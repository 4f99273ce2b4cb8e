"""Synthetic topic generation and statistical validation experiments.

Topics are generated by independent per-rank Bernoulli draws against a
parameterized relevance-rate family (discrete thinning), which matches the
at-most-one-event-per-rank data model.  ``bound_covers`` checks, one topic
at a time, that the credible upper bound on the total relevant count holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tarstop.core import MethodParams, Topic
from tarstop.errors import ComputationError, NoSignalError
from tarstop.poisson import lambda_integral, upper_credible_count
from tarstop.ratefit import bin_prefix, fit_exponential


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
        return np.clip(self.d * np.exp(self.k * ranks), 0.0, 1.0)


@dataclass(frozen=True)
class UniformRate:
    """Constant per-rank relevance probability."""

    p: float

    def __post_init__(self):
        if not 0 <= self.p <= 1:
            raise ValueError("uniform rate needs p in [0, 1]")

    def probabilities(self, n: int) -> np.ndarray:
        return np.full(n, self.p)


@dataclass(frozen=True)
class StepRate:
    """Probability p up to the cutoff rank, then 0."""

    p: float
    cutoff: int

    def __post_init__(self):
        if not 0 <= self.p <= 1:
            raise ValueError("step rate needs p in [0, 1]")
        if self.cutoff < 0:
            raise ValueError("step rate needs cutoff >= 0")

    def probabilities(self, n: int) -> np.ndarray:
        probs = np.zeros(n)
        probs[: min(self.cutoff, n)] = self.p
        return probs


@dataclass(frozen=True)
class BimodalRate:
    """Probability p1 up to the cutoff rank, p2 afterwards."""

    p1: float
    p2: float
    cutoff: int

    def __post_init__(self):
        if not (0 <= self.p1 <= 1 and 0 <= self.p2 <= 1):
            raise ValueError("bimodal rate needs p1, p2 in [0, 1]")
        if self.cutoff < 0:
            raise ValueError("bimodal rate needs cutoff >= 0")

    def probabilities(self, n: int) -> np.ndarray:
        probs = np.full(n, self.p2)
        probs[: min(self.cutoff, n)] = self.p1
        return probs


RateFamily = ExponentialRate | UniformRate | StepRate | BimodalRate


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
    whose rate fit fails is a miss, including one whose least-squares cost
    has no finite minimiser.
    """
    total = topic.total_relevant
    if total == 0:
        return True
    n = topic.size
    batch = max(1, math.ceil(params.beta_frac * n))
    try:
        model = fit_exponential(bin_prefix(topic, n, batch))
        mean = lambda_integral(model, n)
        # The true count never exceeds n, so any bound past n covers it.
        bound = upper_credible_count(mean, params.confidence, cap=n)
    except (NoSignalError, ComputationError):
        return False
    return total <= bound


def make_rate_family(name: str, args: dict[str, float]) -> RateFamily:
    """Build a rate family from a name and keyword arguments."""
    families = {
        "exponential": lambda: ExponentialRate(d=args["d"], k=args["k"]),
        "uniform": lambda: UniformRate(p=args["p"]),
        "step": lambda: StepRate(p=args["p"], cutoff=int(args["cutoff"])),
        "bimodal": lambda: BimodalRate(
            p1=args["p1"], p2=args["p2"], cutoff=int(args["cutoff"])
        ),
    }
    if name not in families:
        raise ValueError(f"unknown rate family {name!r}")
    try:
        return families[name]()
    except KeyError as exc:
        raise ValueError(f"rate family {name!r} missing parameter {exc}") from exc
