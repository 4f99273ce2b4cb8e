"""The four stopping methods: Poisson-process, target, knee, and oracle.

Each maps a Topic and MethodParams to a StopOutcome.  All methods are pure
given (topic, params, seed); every fallback path degrades to a full review,
which preserves recall at the cost of effort.
"""

from __future__ import annotations

import math
import random

import numpy as np

from tarstop.core import MethodParams, StopOutcome, Topic, rel_at
from tarstop.errors import (
    ComputationError,
    InsufficientDataError,
    NoSignalError,
)
from tarstop.poisson import required_relevant
from tarstop.ratefit import bin_prefix, delta_gate, fit_exponential


def _full_review(topic: Topic) -> StopOutcome:
    return StopOutcome(
        topic_id=topic.topic_id,
        stop_rank=topic.size,
        extra_examined=0,
        relevant_found=topic.total_relevant,
        predicted=False,
    )


def _schedule(topic: Topic, params: MethodParams) -> tuple[int, int]:
    """(initial sample size, batch size) for the examination loop."""
    n = topic.size
    alpha = min(n, max(1, math.ceil(params.alpha_frac * n)))
    batch = max(1, math.ceil(params.beta_frac * n))
    return alpha, batch


def poisson_stop(topic: Topic, params: MethodParams) -> StopOutcome:
    """Stop once the credible-bound relevant count has been found.

    Examines an initial sample, fits the exponential rate, and derives the
    number of relevant documents needed for the target recall.  Extends the
    sample batch by batch (re-fitting at batch boundaries) until that count
    is reached; any gate failure on a fully examined topic means no
    prediction was made.
    """
    n = topic.size
    alpha, batch = _schedule(topic, params)

    # Too few relevant in the initial sample: rate cannot be trusted.
    if rel_at(topic, alpha) < params.gamma:
        return _full_review(topic)

    examined_end = alpha
    while True:
        quota = None
        try:
            binned = bin_prefix(topic, examined_end, batch)
            model = fit_exponential(binned)
            if delta_gate(model, topic, examined_end, params.delta):
                quota = required_relevant(model, n, params)
        except (InsufficientDataError, NoSignalError, ComputationError):
            quota = None

        if quota is not None:
            boundary = min(examined_end + batch, n)
            for rank in range(examined_end, boundary + 1):
                if rel_at(topic, rank) >= quota:
                    return StopOutcome(
                        topic_id=topic.topic_id,
                        stop_rank=rank,
                        extra_examined=0,
                        relevant_found=rel_at(topic, rank),
                        predicted=True,
                    )
            if boundary == examined_end:
                return _full_review(topic)
            examined_end = boundary
        else:
            if examined_end >= n:
                return _full_review(topic)
            examined_end = min(examined_end + batch, n)


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
    n = topic.size
    alpha, batch = _schedule(topic, params)
    examined_end = alpha
    while True:
        i = examined_end
        rel_i = rel_at(topic, i)
        if rel_i > 0 and i >= 2:
            knee = _knee_candidate(topic.cumrel[1 : i + 1])
            if knee is not None and knee < i:
                rel_knee = rel_at(topic, knee)
                if rel_knee > 0:
                    slope_head = rel_knee / knee
                    slope_tail = (rel_i - rel_knee + 1) / (i - knee)
                    threshold = params.epsilon + 6 - min(rel_i, params.epsilon)
                    if slope_head / slope_tail >= threshold:
                        return StopOutcome(
                            topic_id=topic.topic_id,
                            stop_rank=i,
                            extra_examined=0,
                            relevant_found=rel_i,
                            predicted=True,
                        )
        if examined_end >= n:
            return _full_review(topic)
        examined_end = min(examined_end + batch, n)


def target_stop(topic: Topic, params: MethodParams, seed: int) -> StopOutcome:
    """Sample ranks uniformly without replacement until enough relevant found.

    The examined set is the ranked prefix up to the deepest sampled relevant
    document, plus any samples beyond it (counted as extra effort,
    de-duplicated against the prefix).
    """
    n = topic.size
    rng = random.Random(seed)
    order = list(range(1, n + 1))
    rng.shuffle(order)

    drawn = np.array(order)  # ranks in sampling order
    hits = np.flatnonzero(topic.relevant[drawn - 1])[: params.target_count]
    if len(hits) < params.target_count:
        return _full_review(topic)

    stop_rank = int(drawn[hits].max())
    extra = int(np.count_nonzero(drawn[: hits[-1] + 1] > stop_rank))
    return StopOutcome(
        topic_id=topic.topic_id,
        stop_rank=stop_rank,
        extra_examined=extra,
        relevant_found=rel_at(topic, stop_rank),
        predicted=True,
    )


def oracle_stop(topic: Topic, params: MethodParams) -> StopOutcome:
    """Hindsight stop at the minimal rank achieving the target recall."""
    total = topic.total_relevant
    if total < 1:
        raise ValueError(
            f"topic {topic.topic_id!r} has no relevant documents; oracle undefined"
        )
    needed = next(c for c in range(1, total + 1) if c / total >= params.target_recall)
    stop_rank = int(np.searchsorted(topic.cumrel, needed))
    return StopOutcome(
        topic_id=topic.topic_id,
        stop_rank=stop_rank,
        extra_examined=0,
        relevant_found=needed,
        predicted=True,
    )
