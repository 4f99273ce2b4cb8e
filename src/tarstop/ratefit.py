"""Exponential rate estimation from an examined ranking prefix.

The examined ranks are split into contiguous sub-intervals; the per-rank
density of relevant documents in each sub-interval, plotted at the
sub-interval midpoint, is fitted with d * exp(k * x) by least squares.
Fitting densities (counts divided by sub-interval width) keeps the
continuous integral and the per-rank sum used by the fit-accuracy gate
mutually consistent.

The fit is a two-parameter Levenberg-Marquardt solve with the closed-form
Jacobian.  One limit of the model is checked before it iterates: when every
relevant document in the binned prefix lies in the first sub-interval, the
squared error has no finite minimiser (it falls towards 0 as k -> -inf), so
the fit raises ``FitError`` instead of returning an arbitrary point on that
valley.  The same holds, with k -> +inf, when they all lie in the last one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from tarstop.core import Topic, rel_at
from tarstop.errors import (
    ComputationError,
    FitError,
    InsufficientDataError,
    NoSignalError,
)
from tarstop.poisson import _MAX_EXP_ARG, RateModel

# Budget of residual evaluations (the initial point included) per fit.
_MAX_NFEV = 600
_FTOL = 1e-15
_XTOL = 1e-15
_GTOL = 1e-12


@dataclass(frozen=True)
class BinnedCounts:
    """Relevant-document counts per contiguous rank sub-interval.

    ``points`` pairs each sub-interval midpoint with its relevant count;
    ``widths`` holds the matching sub-interval sizes (the last interval may
    be short).
    """

    points: tuple[tuple[float, int], ...]
    widths: tuple[int, ...]


def bin_prefix(topic: Topic, examined_end: int, interval_width: float) -> BinnedCounts:
    """Partition ranks 1..examined_end into sub-intervals of the given width."""
    if not 1 <= examined_end <= topic.size:
        raise ValueError(f"examined_end {examined_end} out of range 1..{topic.size}")
    if interval_width < 1:
        raise ValueError("interval_width must be >= 1")
    if examined_end < interval_width and examined_end < 2:
        raise InsufficientDataError(
            f"cannot bin {examined_end} ranks into intervals of width {interval_width}"
        )
    # Interval i covers ranks edges[i] + 1 .. edges[i + 1].
    edges = [*range(0, examined_end, int(math.ceil(interval_width))), examined_end]
    found = topic.cumrel[edges].tolist()
    points, widths = [], []
    for lo, hi, found_lo, found_hi in zip(edges, edges[1:], found, found[1:]):
        points.append(((lo + 1 + hi) / 2.0, found_hi - found_lo))
        widths.append(hi - lo)
    return BinnedCounts(tuple(points), tuple(widths))


def fit_exponential(binned: BinnedCounts) -> RateModel:
    """Least-squares fit of d * exp(k * x) to the per-rank densities.

    Optimizes over (ln d, k) so the amplitude stays positive; initialized by
    log-linear regression over the densities floored at half an event per
    interval.  Raises ``FitError`` when all relevant documents lie in the
    first or the last interval (no finite minimiser), when the solver spends
    its budget of residual evaluations without converging, or when a
    parameter is not finite.
    """
    if len(binned.points) < 2:
        raise InsufficientDataError("need at least 2 binned points to fit")
    x = np.array([p[0] for p in binned.points])
    y = np.array([p[1] for p in binned.points], dtype=float)
    w = np.array(binned.widths, dtype=float)
    if not np.any(y > 0):
        raise NoSignalError("no relevant documents in the examined prefix")
    if not np.any(y[1:-1] > 0) and not (y[0] > 0 and y[-1] > 0):
        raise FitError(
            "all relevant documents lie in the first or the last interval; "
            "the rate fit has no finite minimiser"
        )
    dens = y / w

    # Log-linear init; the 0.5-event floor keeps empty intervals usable.
    log_dens = np.log(np.maximum(dens, 0.5 / w))
    k0, logd0 = np.polyfit(x, log_dens, 1)

    logd, k = _levenberg_marquardt(x, dens, float(logd0), float(k0))
    d = math.exp(logd) if logd <= _MAX_EXP_ARG else math.inf
    if not (math.isfinite(k) and 0.0 < d < math.inf):
        raise FitError("rate fit produced non-finite parameters")
    return RateModel(d=d, k=k)


def _residuals_and_jacobian(
    logd: float, k: float, x: np.ndarray, dens: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals exp(logd + k x) - dens and their Jacobian [e, e * x]."""
    e = np.exp(np.clip(logd + k * x, -_MAX_EXP_ARG, _MAX_EXP_ARG))
    return e - dens, np.stack((e, e * x), axis=1)


def _levenberg_marquardt(
    x: np.ndarray, dens: np.ndarray, logd: float, k: float
) -> tuple[float, float]:
    """Minimise 0.5 * sum(residual**2) over (logd, k) from the given start.

    Each step solves the 2x2 damped normal equations
    (J^T J + mu * diag(J^T J)) step = -J^T r.  A step is kept when it lowers
    the cost; mu follows Nielsen's update.  Converged when |J^T r|_inf <
    gtol, when a step with a good model fit lowers the cost by less than
    ftol of it, or when a step is shorter than xtol relative to the
    parameters.  Raises ``FitError`` once the budget of residual
    evaluations is spent.
    """
    r, jac = _residuals_and_jacobian(logd, k, x, dens)
    cost = 0.5 * float(r @ r)
    nfev = 1
    mu, nu = 1e-3, 2.0
    while True:
        (a11, a12), (_, a22) = (jac.T @ jac).tolist()
        g1, g2 = (jac.T @ r).tolist()
        if max(abs(g1), abs(g2)) < _GTOL:
            return logd, k
        while True:
            if nfev >= _MAX_NFEV:
                raise FitError(
                    f"rate fit did not converge in {_MAX_NFEV} evaluations"
                )
            m11, m22 = a11 * (1.0 + mu), a22 * (1.0 + mu)
            det = m11 * m22 - a12 * a12
            if det > 0:
                step1 = (-g1 * m22 + g2 * a12) / det
                step2 = (-g2 * m11 + g1 * a12) / det
            else:
                step1 = step2 = math.nan
            new_logd, new_k = logd + step1, k + step2
            nfev += 1
            if math.isfinite(new_logd) and math.isfinite(new_k):
                r_new, jac_new = _residuals_and_jacobian(new_logd, new_k, x, dens)
                cost_new = 0.5 * float(r_new @ r_new)
            else:
                cost_new = math.inf
            reduction = cost - cost_new
            # Reduction the linear model promises: -(g.s + s.A.s / 2).
            predicted = 0.5 * (
                mu * (a11 * step1 * step1 + a22 * step2 * step2)
                - g1 * step1
                - g2 * step2
            )
            ratio = reduction / predicted if predicted > 0 else 0.0
            converged = (
                reduction < _FTOL * cost and ratio > 0.25
            ) or math.hypot(step1, step2) < _XTOL * (_XTOL + math.hypot(logd, k))
            if reduction > 0:
                logd, k, r, jac, cost = new_logd, new_k, r_new, jac_new, cost_new
                mu *= max(1.0 / 3.0, 1.0 - (2.0 * min(ratio, 1.0) - 1.0) ** 3)
                nu = 2.0
                if converged:
                    return logd, k
                break
            if converged:
                return logd, k
            mu *= nu
            nu *= 2.0


def delta_gate(model: RateModel, topic: Topic, examined_end: int, delta: float) -> bool:
    """Accept the fitted rate iff observed relevant >= delta * predicted.

    The prediction is the discrete per-rank sum of the intensity over the
    examined prefix.
    """
    if examined_end < 1:
        raise ValueError("examined_end must be >= 1")
    predicted = predicted_relevant(model, examined_end)
    if predicted < 1e-12:  # vanished rate predicts 0 relevant; trivially met
        return True
    return rel_at(topic, examined_end) >= delta * predicted


def predicted_relevant(model: RateModel, examined_end: int) -> float:
    """Discrete per-rank sum of the intensity over ranks 1..examined_end."""
    arg = model.k * np.arange(1, examined_end + 1, dtype=float)
    if arg.max(initial=0.0) > _MAX_EXP_ARG:
        raise ComputationError("exp overflow summing the fitted rate")
    return float(model.d * np.exp(arg).sum())
