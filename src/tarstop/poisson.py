"""Poisson-process probability machinery.

The rate of relevant-document occurrence over ranks is modelled as an
exponential intensity lambda(x) = d * exp(k * x).  The expected count over
ranks (0, n] is its integral; the count itself is Poisson with that mean,
which yields a credible upper bound on the total number of relevant
documents and, from it, the number that must be found before stopping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from tarstop.core import MethodParams
from tarstop.errors import ComputationError, ValidationError

# exp() overflows double precision just above this exponent.
_MAX_EXP_ARG = 700.0

# Below this |k| the closed-form integral loses precision; use the k -> 0 limit.
_K_EPS = 1e-9


@dataclass(frozen=True)
class RateModel:
    """Fitted exponential intensity: lambda(x) = d * exp(k * x)."""

    d: float
    k: float

    def __post_init__(self):
        if not (math.isfinite(self.d) and math.isfinite(self.k)):
            raise ValidationError("rate parameters must be finite")
        if self.d <= 0:
            raise ValidationError("amplitude d must be positive")


def lambda_at(model: RateModel, x: float) -> float:
    """Evaluate the intensity d * exp(k * x)."""
    arg = model.k * x
    if arg > _MAX_EXP_ARG:
        raise ComputationError(f"exp overflow evaluating rate at x={x}")
    return model.d * math.exp(arg)


def lambda_integral(model: RateModel, n: float) -> float:
    """Expected event count over (0, n]: (d/k) * (exp(k*n) - 1).

    Falls back to the analytic limit d*n when |k| is negligible.
    """
    if n < 0:
        raise ValueError("interval length n must be >= 0")
    if abs(model.k) < _K_EPS:
        return model.d * n
    arg = model.k * n
    if arg > _MAX_EXP_ARG:
        raise ComputationError(f"exp overflow in rate integral, k*n={arg:.3g}")
    return (model.d / model.k) * (math.exp(arg) - 1.0)


def poisson_pmf(mean: float, r: int) -> float:
    """P(N = r) for a Poisson count with the given mean, in log-space."""
    if mean < 0:
        raise ValueError("mean must be >= 0")
    if r < 0:
        raise ValueError("r must be >= 0")
    if mean == 0:
        return 1.0 if r == 0 else 0.0
    return math.exp(r * math.log(mean) - mean - math.lgamma(r + 1))


def upper_credible_count(mean: float, confidence: float, cap: int | None = None) -> int:
    """Smallest R whose cumulative Poisson probability reaches ``confidence``.

    Linear upward scan.  With a ``cap`` the scan stops there and returns
    ``min(R, cap)``: callers pass a cap past which every larger R leads to
    the same outcome, which bounds the scan when the mean is huge.
    """
    if mean < 0:
        raise ValueError("mean must be >= 0")
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    if cap is not None and cap < 0:
        raise ValueError("cap must be >= 0")
    total = 0.0
    r = 0
    while r != cap:
        total += poisson_pmf(mean, r)
        if total >= confidence:
            return r
        r += 1
    return r


def _unreachable_bound(n: int, target_recall: float) -> int:
    """Least R whose quota ceil(R * target_recall) exceeds n documents."""
    r = int(n / target_recall)
    while math.ceil(r * target_recall) <= n:
        r += 1
    while r > 0 and math.ceil((r - 1) * target_recall) > n:
        r -= 1
    return r


def required_relevant(model: RateModel, n: int, params: MethodParams) -> int:
    """Relevant documents needed before stopping: ceil(R * target_recall).

    R is the credible upper bound on the total relevant count over (0, n].
    A quota above n can never be met, so R is capped at the least value
    giving such a quota; past the cap the quota is n + 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    mean = lambda_integral(model, n)
    cap = _unreachable_bound(n, params.target_recall)
    bound = upper_credible_count(mean, params.confidence, cap)
    return math.ceil(bound * params.target_recall)
