"""Synthetic topic generation and statistical validation experiments.

Topics are generated by independent per-rank Bernoulli draws against a
parameterized relevance-rate family (discrete thinning), which matches the
at-most-one-event-per-rank data model.  ``bound_covers`` checks, one topic
at a time, that the credible upper bound on the total relevant count holds,
and ``coverage_experiment`` runs it and every rule over seeded trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tarstop.core import MethodParams, Topic
from tarstop.errors import ComputationError
from tarstop.methods import RULES
from tarstop.metrics import acceptability, reliability
from tarstop.poisson import upper_credible_count
from tarstop.ratefit import fit_topic, lambda_integral


@dataclass(frozen=True)
class ExponentialRate:
    """Per-rank relevance probability d * exp(k * i), clipped to [0, 1]."""

    d: float
    k: float

    def __post_init__(self):
        if self.d <= 0 or not math.isfinite(self.d) or not math.isfinite(self.k):
            raise ValueError("exponential rate needs finite d > 0 and finite k")

    def probabilities(self, n: int) -> np.ndarray:
        ranks = np.arange(1, n + 1, dtype=float)
        # An overflow gives inf, which the clip takes to 1.
        with np.errstate(over="ignore"):
            return np.clip(self.d * np.exp(self.k * ranks), 0.0, 1.0)


@dataclass(frozen=True)
class PiecewiseRate:
    """Probability p1 up to the cutoff rank, p2 afterwards.

    A uniform rate has p1 == p2, and a step rate has p2 == 0.
    """

    p1: float
    p2: float
    cutoff: int

    def __post_init__(self):
        if not (0 <= self.p1 <= 1 and 0 <= self.p2 <= 1):
            raise ValueError(
                f"rate probabilities must be in [0, 1], got {self.p1} and {self.p2}"
            )
        if self.cutoff < 0:
            raise ValueError("rate cutoff must be >= 0")

    def probabilities(self, n: int) -> np.ndarray:
        probs = np.full(n, self.p2, dtype=float)
        probs[: min(self.cutoff, n)] = self.p1
        return probs


RateFamily = ExponentialRate | PiecewiseRate

# --family name -> its rate, built from the simulate command's arguments
# (d, k, p, p1, p2 and cutoff).
FAMILIES = {
    "exponential": lambda args: ExponentialRate(args["d"], args["k"]),
    "uniform": lambda args: PiecewiseRate(args["p"], args["p"], 0),
    "step": lambda args: PiecewiseRate(args["p"], 0.0, args["cutoff"]),
    "bimodal": lambda args: PiecewiseRate(args["p1"], args["p2"], args["cutoff"]),
}


def gen_topic(n: int, rate_family: RateFamily, seed: int) -> Topic:
    """Generate a seeded synthetic topic from a relevance-rate family."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.default_rng(seed)
    probs = rate_family.probabilities(n)
    flags = rng.random(n) < probs
    return Topic(topic_id=f"synthetic-{seed}", relevant=flags)


def bound_covers(topic: Topic, params: MethodParams) -> bool:
    """Whether the credible upper bound covers the topic's relevant count.

    The rate is fitted to the whole topic, binned at the batch width, and
    the true relevant count is tested against the credible bound.  A topic
    with no relevant documents is covered trivially (bound 0).  A topic
    whose rate fit fails is a miss, including one binned into a single
    interval and one whose least-squares cost has no finite minimiser.
    """
    total = topic.total_relevant
    if total == 0:
        return True
    n = topic.size
    try:
        model = fit_topic(topic, params)
        mean = lambda_integral(model, n)
        # The true count never exceeds n, so any bound past n covers it.
        bound = upper_credible_count(mean, params.confidence, cap=n)
    except ComputationError:
        return False
    return total <= bound


def coverage_experiment(
    family: str, rate: RateFamily, n: int, trials: int, seed: int, params: MethodParams
) -> list[dict]:
    """The records of simulate.jsonl: an experiment, then one per rule.

    Trial t's topic of n documents, drawn with seed ``seed + t``, is shared
    by the coverage check and every rule in ``RULES``; one with no relevant
    document counts towards coverage only.  Coverage of the credible bound
    is reported from 100 trials up, and is None below.
    """
    covered = 0
    acceptable = {m: [] for m in RULES}
    for trial in range(trials):
        topic = gen_topic(n, rate, seed=seed + trial)
        if trials >= 100:
            covered += bound_covers(topic, params)
        if topic.total_relevant == 0:
            continue
        for method, rule in RULES.items():
            outcome = rule(topic, params, seed + trial)
            acceptable[method].append(
                acceptability(outcome, topic, params.target_recall)
            )
    records = [
        {
            "record": "experiment",
            "family": family,
            "n": n,
            "trials": trials,
            "seed": seed,
            "coverage": round(covered / trials, 10) if trials >= 100 else None,
        }
    ]
    for method, hits in acceptable.items():
        records.append(
            {
                "record": "method_reliability",
                "method": method,
                "topics": len(hits),
                "reliability": round(reliability(hits), 10) if hits else None,
            }
        )
    return records
