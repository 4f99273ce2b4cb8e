"""The four stopping methods: Poisson-process, target, knee, and oracle.

Each maps a Topic and MethodParams to a StopOutcome; ``RULES`` names them
for the command line and the simulator.  All methods are pure given
(topic, params, seed); every fallback path degrades to a full review, which
preserves recall at the cost of effort.
"""

from __future__ import annotations

import math

import numpy as np

from tarstop.config import MethodParams
from tarstop.core import StopOutcome, Topic, rel_at
from tarstop.errors import ComputationError
from tarstop.poisson import required_relevant
from tarstop.ratefit import bin_prefix, delta_gate, fit_exponential, lambda_integral


def _checkpoints(n: int, params: MethodParams) -> list[int]:
    """Prefix ends at which pp and km decide, in order.

    The end of the initial sample, then each batch boundary, then n.
    """
    alpha = min(n, max(1, math.ceil(params.alpha_frac * n)))
    return [*range(alpha, n, params.batch_width(n)), n]


def _first_rank_reaching(topic: Topic, start: int, end: int, quota: int) -> int | None:
    """First rank in start..end whose relevant count reaches quota, or None.

    ``cumrel`` never decreases, so a left-sided search over the window
    finds it.
    """
    window = topic.cumrel[start : end + 1]
    offset = int(np.searchsorted(window, quota))
    return start + offset if offset < len(window) else None


def _quota(topic: Topic, examined_end: int, params: MethodParams) -> int | None:
    """Relevant documents pp needs after examining ranks 1..examined_end.

    None when the rate fit fails or the delta gate rejects it.
    """
    n = topic.size
    try:
        model = fit_exponential(bin_prefix(topic, examined_end, params.batch_width(n)))
        if delta_gate(model, topic, examined_end, params.delta):
            return required_relevant(lambda_integral(model, n), n, params)
    except ComputationError:
        pass
    return None


def poisson_stop(topic: Topic, params: MethodParams) -> StopOutcome:
    """Stop once the credible-bound relevant count has been found.

    Examines an initial sample, fits the exponential rate, and derives the
    number of relevant documents needed for the target recall.  At each
    checkpoint it re-fits and looks for that count up to the next one; too
    few relevant documents in the initial sample, or no quota met by rank
    n, means no prediction was made.
    """
    n = topic.size
    ends = _checkpoints(n, params)
    if rel_at(topic, ends[0]) >= params.gamma:
        for end, next_end in zip(ends, [*ends[1:], n]):
            quota = _quota(topic, end, params)
            if quota is None:
                continue
            rank = _first_rank_reaching(topic, end, next_end, quota)
            if rank is not None:
                return StopOutcome(rank)
    return StopOutcome(n, predicted=False)


def _knee_candidate(cumrel: np.ndarray) -> int | None:
    """Kneedle-style knee of the gain curve; returns a rank or None.

    Normalizes the curve over ranks 1..i to the unit square and takes the
    argmax of the difference to the diagonal.
    """
    i = len(cumrel)
    if i < 2:
        return None
    y_min, y_max = cumrel[0], cumrel[-1]
    if y_max == y_min:
        return None
    x_norm = np.arange(i, dtype=float) / (i - 1)
    y_norm = (cumrel - y_min) / (y_max - y_min)
    return int(np.argmax(y_norm - x_norm)) + 1


def knee_stop(topic: Topic, params: MethodParams) -> StopOutcome:
    """Stop when the gain curve's knee has a large enough slope ratio.

    Uses the same initial-sample/batch schedule as the Poisson method.  The
    slope ratio compares the gain rate up to the knee with the rate after
    it (+1 in the numerator of the tail slope to avoid division by zero on
    flat tails); the required ratio shrinks as more relevant documents are
    found, down to 6 once epsilon of them have been retrieved.
    """
    for i in _checkpoints(topic.size, params):
        knee = _knee_candidate(topic.cumrel[1 : i + 1])
        if knee is None or knee >= i:
            continue
        # A knee with no relevant documents has slope 0, below any threshold.
        rel_i, rel_knee = rel_at(topic, i), rel_at(topic, knee)
        slope_head = rel_knee / knee
        slope_tail = (rel_i - rel_knee + 1) / (i - knee)
        threshold = params.epsilon + 6 - min(rel_i, params.epsilon)
        if slope_head / slope_tail >= threshold:
            return StopOutcome(i)
    return StopOutcome(topic.size, predicted=False)


# Last word of the target method's seed entropy.  It keeps tm's stream apart
# from gen_topic's default_rng(seed), which simulate passes the same seed.
_TARGET_STREAM = 0x746D


def _target_rng(seed: int) -> np.random.Generator:
    """The target method's Generator for ``seed``; negative seeds are valid."""
    return np.random.default_rng((abs(seed), int(seed < 0), _TARGET_STREAM))


def target_stop(topic: Topic, params: MethodParams, seed: int) -> StopOutcome:
    """Sample ranks uniformly without replacement until enough relevant found.

    The sampling order is one Generator permutation of the ranks per topic,
    drawn from ``_target_rng(seed)``, a stream seeded apart from gen_topic's.
    The examined set is the ranked prefix up to the deepest sampled relevant
    document, plus any samples beyond it (counted as extra effort,
    de-duplicated against the prefix).
    """
    drawn = _target_rng(seed).permutation(topic.size) + 1  # ranks in sampling order
    hits = np.flatnonzero(topic.relevant[drawn - 1])[: params.target_count]
    if len(hits) < params.target_count:
        return StopOutcome(topic.size, predicted=False)

    stop_rank = int(drawn[hits].max())
    extra = int(np.count_nonzero(drawn[: hits[-1] + 1] > stop_rank))
    return StopOutcome(stop_rank, extra)


def oracle_stop(topic: Topic, params: MethodParams) -> StopOutcome:
    """Hindsight stop at the minimal rank achieving the target recall."""
    total = topic.total_relevant
    if total < 1:
        raise ValueError(
            f"topic {topic.topic_id!r} has no relevant documents; oracle undefined"
        )
    needed = next(c for c in range(1, total + 1) if c / total >= params.target_recall)
    return StopOutcome(int(np.searchsorted(topic.cumrel, needed)))


# name -> rule(topic, params, seed), the one registry of stopping rules.  Key
# order is the order in which simulate.jsonl lists the methods.
RULES = {
    "pp": lambda topic, params, seed: poisson_stop(topic, params),
    "tm": lambda topic, params, seed: target_stop(topic, params, seed),
    "km": lambda topic, params, seed: knee_stop(topic, params),
    "or": lambda topic, params, seed: oracle_stop(topic, params),
}
