"""The rate model and its estimation from an examined ranking prefix.

The rate of relevant-document occurrence over ranks is modelled as an
exponential intensity lambda(x) = d * exp(k * x); its integral over ranks
(0, n] is the mean of the Poisson count law in ``poisson``.

The examined ranks are split into contiguous sub-intervals; the per-rank
density of relevant documents in each sub-interval, plotted at the
sub-interval midpoint, is fitted with d * exp(k * x) by least squares.
Fitting densities (counts divided by sub-interval width) keeps the
continuous integral and the per-rank sum used by the fit-accuracy gate
mutually consistent.

The model is linear in d, so the fit is solved by variable projection
(Golub & Pereyra, SIAM J. Numer. Anal. 1973): for a fixed k the best d is
(e . dens) / (e . e) with e = exp(k * x), which leaves the profile
f(k) = (|dens|^2 - (e . dens)^2 / (e . e)) / 2 to minimise over k alone.  Its
limits are exact, (|dens|^2 - dens[0]^2) / 2 as k -> -inf and
(|dens|^2 - dens[-1]^2) / 2 as k -> +inf.  The rule: when the minimum is not
below the smaller limit by more than rounding, the cost falls towards a limit
along a valley in (d, k) with no finite minimiser, and the fit raises
``FitError`` rather than return a point on that valley.

f is searched on a grid of t = k * span, and its grids and their exp basis
depend only on the bin layout (the midpoints scaled to [0, 1]), not on the
counts.  A basis is kept from the first fit that asks for it, while the
kept bases stay within _KEPT_BYTES of exp basis, and for one bin width at a
time: a fit at a new width drops the kept bases.  ``simulate`` fits every
trial at one n and so reuses them, while a run of CLEF topics, each with
its own width, reuses none.  A kept basis gives the same bits as a fresh
one.
Between grid points, the secant steps evaluate f' on Python floats; their
sums run in another order than numpy's, so they can differ from the grid's
f' in the last bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul

import numpy as np

from tarstop.config import MethodParams
from tarstop.core import Topic, rel_at
from tarstop.errors import (
    ComputationError,
    FitError,
    InsufficientDataError,
    NoSignalError,
    ValidationError,
)

# exp() overflows double precision just above this exponent.
_MAX_EXP_ARG = 700.0

# Below this |k| the closed-form integral loses precision; use the k -> 0 limit.
_K_EPS = 1e-9

# The profile is searched over t = k * span, span being the distance from the
# first to the last midpoint, on a grid of _GRID points evenly over
# [-_T0, _T0] and _PER_DOUBLING geometric points per doubling beyond.
_T0 = 8.0
_GRID = 33
_PER_DOUBLING = 16
_UNDERFLOW = 750.0  # exp(-750.0) == 0.0 in double precision
_MAX_STEPS = 64  # secant steps on f' per local minimum
# A cost closer to a limit than this, per midpoint and relative to |dens|^2,
# is within rounding of it.
_ROUNDING = 64 * float(np.finfo(float).eps)
_NO_MINIMISER = "the rate fit has no finite minimiser: its cost is not below its limit"


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


@dataclass(frozen=True)
class BinnedCounts:
    """Relevant-document counts per contiguous rank sub-interval.

    ``points`` pairs each sub-interval midpoint with its relevant count;
    ``widths`` holds the matching sub-interval sizes (the last interval may
    be short).
    """

    points: tuple[tuple[float, int], ...]
    widths: tuple[int, ...]


def bin_prefix(topic: Topic, examined_end: int, interval_width: int) -> BinnedCounts:
    """Partition ranks 1..examined_end into sub-intervals of the given width."""
    if not 1 <= examined_end <= topic.size:
        raise ValueError(f"examined_end {examined_end} out of range 1..{topic.size}")
    if interval_width < 1:
        raise ValueError("interval_width must be >= 1")
    # Interval i covers ranks edges[i] + 1 .. edges[i + 1].
    edges = [*range(0, examined_end, interval_width), examined_end]
    found = topic.cumrel[edges].tolist()
    points, widths = [], []
    for lo, hi, found_lo, found_hi in zip(edges, edges[1:], found, found[1:]):
        points.append(((lo + 1 + hi) / 2.0, found_hi - found_lo))
        widths.append(hi - lo)
    return BinnedCounts(tuple(points), tuple(widths))


def fit_exponential(binned: BinnedCounts) -> RateModel:
    """Least-squares fit of d * exp(k * x) to the per-rank densities.

    f and f' are evaluated on a grid of t = k * span out to +-64, widened to
    where f equals its limits when its lowest point is at an edge.  Secant
    steps on f' locate the minimum in each cell where f' turns from - to +;
    the lowest is the fit.  Minima within rounding of the lowest tie with
    it, and of tied minima the smallest t (the falling rate) is the fit.
    Raises ``FitError`` when it is not below both limits by more than
    rounding, or when d is outside double precision.
    """
    if len(binned.points) < 2:
        raise InsufficientDataError("need at least 2 binned points to fit")
    x, y = np.array(binned.points, dtype=float).T
    if not (y > 0).any():
        raise NoSignalError("no relevant documents in the examined prefix")
    if (x[1:] <= x[:-1]).any():
        raise ValueError("interval midpoints must increase")
    dens = y / np.array(binned.widths, dtype=float)
    span = float(x[-1] - x[0])
    u = (x - x[0]) / span

    grid = _LAYOUTS.get(u, binned.widths[0])
    cost, grad = grid.profile(dens)
    if np.argmin(cost) in (0, cost.size - 1):
        grid = _LAYOUTS.get(u, binned.widths[0], wide=True)
        cost, grad = grid.profile(dens)
    cells = np.flatnonzero((grad[:-1] < 0) & (grad[1:] >= 0))
    if cells.size == 0:
        raise FitError(_NO_MINIMISER)
    u_list, dens_list = u.tolist(), dens.tolist()
    roots = [
        _slope_root(u_list, dens_list, grid.k[i : i + 2], grad[i : i + 2]) for i in cells
    ]
    margin = _ROUNDING * len(dens) * float(dens @ dens)
    if len(roots) > 1:
        # |r|^2 at each minimum.  Those within rounding of the lowest tie,
        # and as roots ascend in t, the first of them, the falling rate, wins.
        costs = 2 * _profile(np.array(roots), u, dens)[0]
        roots = [t for t, cost in zip(roots, costs) if cost <= costs.min() + margin]
    t = roots[0]

    near = 0 if t < 0 else -1
    e = np.exp(t * (u - u[near]))
    d_scaled = float(e @ dens) / float(e @ e)
    r = dens - d_scaled * e
    limit = min(float(dens[1:] @ dens[1:]), float(dens[:-1] @ dens[:-1]))
    if not float(r @ r) < limit - margin:
        raise FitError(_NO_MINIMISER)
    k = t / span
    logd = math.log(d_scaled) - k * x[near]
    if not -_MAX_EXP_ARG < logd < _MAX_EXP_ARG:
        raise FitError("rate fit amplitude is outside double precision")
    return RateModel(d=math.exp(logd), k=k)


def fit_topic(topic: Topic, params: MethodParams) -> RateModel:
    """The rate fitted to the whole topic, binned at the batch width."""
    n = topic.size
    return fit_exponential(bin_prefix(topic, n, params.batch_width(n)))


def _slope_root(u: list[float], y: list[float], t: np.ndarray, g: np.ndarray) -> float:
    """Root of f' in the cell t, where f' is g: g[0] < 0 <= g[1].

    Illinois steps until one stalls at rounding, leaves the cell or would
    divide by zero (halving a subnormal f' can leave zero at both ends), at
    most _MAX_STEPS; returns the cell end where |f'| is smaller.
    """
    (lo, hi), (g_lo, g_hi) = t.tolist(), g.tolist()
    side, mid = 0, lo
    for _ in range(_MAX_STEPS):
        if g_hi == g_lo:
            break
        mid, last = (lo * g_hi - hi * g_lo) / (g_hi - g_lo), mid
        if not lo < mid < hi or abs(mid - last) <= 4 * math.ulp(abs(mid) + 1.0):
            break
        g_mid = _slope(mid, u, y)
        if g_mid < 0:
            lo, g_lo = mid, g_mid
            g_hi *= 0.5 if side < 0 else 1.0
            side = -1
        else:
            hi, g_hi = mid, g_mid
            g_lo *= 0.5 if side > 0 else 1.0
            side = 1
    return float(lo if -g_lo < g_hi else hi)


def _slope(t: float, u: list[float], y: list[float]) -> float:
    """_profile's f' at one t, on Python floats.

    The same formula term by term; only the order of the sums differs, so
    it can differ from _profile in the last bits.
    """
    near = u[0] if t < 0 else u[-1]
    dx = [ui - near for ui in u]
    e = [math.exp(di * t) for di in dx]
    d = sum(map(mul, y, e)) / sum(map(mul, e, e))
    return -d * sum([di * ei * (yi - d * ei) for di, ei, yi in zip(dx, e, y)])


def _grid(t_edge: float) -> np.ndarray:
    """_GRID points evenly over [-_T0, _T0], then geometric out to +-t_edge."""
    points = 1 + math.ceil(_PER_DOUBLING * math.log2(t_edge / _T0))
    tail = np.geomspace(_T0, t_edge, points)
    return np.concatenate((-tail[:0:-1], np.linspace(-_T0, _T0, _GRID), tail[1:]))


_INITIAL_GRID = _grid(64.0)


class _Basis:
    """The parts of the profile on a grid of k that do not depend on y.

    For midpoints x (increasing), e = exp(k * x) rescaled to 1 at its
    largest entry, one column per k, and e . e.
    """

    def __init__(self, k: np.ndarray, x: np.ndarray):
        self.k, self.x = k, x
        self.near = np.where(k < 0, x[0], x[-1])
        self.e = np.exp((x[:, None] - self.near) * k)
        self.ee = np.einsum("ij,ij->j", self.e, self.e)

    def profile(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Profile cost f(k) = |r|^2 / 2 and f'(k) = -d (x * e) . r at each k.

        Here d = (e . y) / (e . e) and r = y - d * e.  As e . r = 0, f'
        measures x from where e = 1, which drops the one residual that
        carries the rounding of d.
        """
        d = (y @ self.e) / self.ee
        r = d * self.e
        np.subtract(y[:, None], r, out=r)
        dx_e = np.subtract(self.x[:, None], self.near)
        dx_e *= self.e
        return 0.5 * np.einsum("ij,ij->j", r, r), -d * np.einsum("ij,ij->j", dx_e, r)


def _profile(
    k: np.ndarray, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Profile cost f(k) and slope f'(k) at each k; see _Basis.profile."""
    return _Basis(k, x).profile(y)


# The most exp basis the kept bases hold.  The seed-0 ``simulate --family
# bimodal`` round asks for 30 bases of 764 KB in all.
_KEPT_BYTES = 1 << 20


class _BasisMemo:
    """The search bases of one bin width, keyed by midpoints u and grid.

    A basis is kept from its first request, while the kept bases stay
    within _KEPT_BYTES, and a new bin width drops the last width's bases.
    """

    def __init__(self):
        self.width: int | None = None
        self.kept: dict[tuple[bytes, bool], _Basis] = {}
        self.nbytes = 0  # of exp basis, summed over the kept bases

    def get(self, u: np.ndarray, width: int, wide: bool = False) -> _Basis:
        """The basis on the initial grid, or on the wide one, for midpoints u."""
        if width != self.width:
            self.width, self.nbytes = width, 0
            self.kept.clear()
        key = (u.tobytes(), wide)
        basis = self.kept.get(key)
        if basis is None:
            # The wide grid runs out to where exp(t * gap) == 0 for all
            # midpoints but an end one.
            k = _grid(_UNDERFLOW / min(u[1], 1.0 - u[-2])) if wide else _INITIAL_GRID
            basis = _Basis(k, u)
            if self.nbytes + basis.e.nbytes <= _KEPT_BYTES:
                self.kept[key] = basis
                self.nbytes += basis.e.nbytes
        return basis


_LAYOUTS = _BasisMemo()


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


def _exp_at_ranks(model: RateModel, n: int) -> np.ndarray:
    """exp(k * x) at ranks x = 1..n; an overflow is a ComputationError."""
    arg = model.k * np.arange(1, n + 1, dtype=float)
    if arg.max(initial=0.0) > _MAX_EXP_ARG:
        rank = int(np.argmax(arg > _MAX_EXP_ARG)) + 1
        raise ComputationError(f"exp overflow evaluating rate at x={rank}")
    return np.exp(arg)


def predicted_relevant(model: RateModel, examined_end: int) -> float:
    """Discrete per-rank sum of the intensity over ranks 1..examined_end."""
    return float(model.d * _exp_at_ranks(model, examined_end).sum())


def predicted_gain(model: RateModel, n: int) -> list[float]:
    """Running per-rank sum of the intensity at ranks 1..n, added rank by rank."""
    return np.cumsum(model.d * _exp_at_ranks(model, n)).tolist()
