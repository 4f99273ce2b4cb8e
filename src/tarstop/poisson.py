"""Poisson count law.

The number of relevant documents over ranks (0, n] is Poisson with the
mean of the fitted rate model (``ratefit.lambda_integral``), which yields a
credible upper bound on the total number of relevant documents and, from
it, the number that must be found before stopping.
"""

from __future__ import annotations

import math

from tarstop.config import MethodParams
from tarstop.errors import ComputationError


def upper_credible_count(mean: float, confidence: float, cap: int | None = None) -> int:
    """Smallest R whose cumulative Poisson probability reaches ``confidence``.

    Linear upward scan.  With a ``cap`` the scan stops there and returns
    ``min(R, cap)``: callers pass a cap past which every larger R leads to
    the same outcome.  The scan starts at ``_first_term``, as every term
    before it adds 0.0, so it walks about 40 sqrt(mean) terms to the mean.

    Past the mean each term is smaller than the last, so the first term
    there that leaves the float sum unchanged proves that no later term
    changes it: the sum stalls below ``confidence``, and the scan would
    reach the cap.  It returns the cap at once, or raises
    ``ComputationError`` when there is none.
    """
    if mean < 0:
        raise ValueError("mean must be >= 0")
    if not 0 < confidence < 1:
        raise ValueError("confidence must be in (0, 1)")
    if cap is not None and cap < 0:
        raise ValueError("cap must be >= 0")
    if mean == 0:
        return 0
    log_mean = math.log(mean)
    total = 0.0
    r = _first_term(mean, log_mean)
    if cap is not None:
        r = min(r, cap)
    while r != cap:
        summed = total + math.exp(r * log_mean - mean - math.lgamma(r + 1))
        if summed == total and r > mean:
            if cap is None:
                raise ComputationError(
                    f"the Poisson sum at mean {mean} stalls at {total!r}, "
                    f"below the confidence {confidence}"
                )
            return cap
        total = summed
        if total >= confidence:
            return r
        r += 1
    return r


def _first_term(mean: float, log_mean: float) -> int:
    """The least r whose pmf term has a log, r log(mean) - mean - lg(r!), of -800 or more.

    Up to the mean the log rises with r, so every term before that r is
    below e^-800 and adds 0.0 in floats, where exp underflows below -745.
    """
    # The log is below -800 at lo and not at hi; a mean that is not finite skips nothing.
    lo, hi = -1, math.floor(mean) if math.isfinite(mean) else 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid * log_mean - mean - math.lgamma(mid + 1) < -800:
            lo = mid
        else:
            hi = mid
    return hi


def _unreachable_bound(n: int, target_recall: float) -> int:
    """Least R whose quota ceil(R * target_recall) exceeds n documents."""
    r = int(n / target_recall)
    while math.ceil(r * target_recall) <= n:
        r += 1
    while r > 0 and math.ceil((r - 1) * target_recall) > n:
        r -= 1
    return r


def required_relevant(mean: float, n: int, params: MethodParams) -> int:
    """Relevant documents needed before stopping: ceil(R * target_recall).

    R is the credible upper bound on the total relevant count over (0, n],
    a Poisson count with the given mean.  A quota above n can never be met,
    so R is capped at the least value giving such a quota; past the cap the
    quota is n + 1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    cap = _unreachable_bound(n, params.target_recall)
    bound = upper_credible_count(mean, params.confidence, cap)
    return math.ceil(bound * params.target_recall)
