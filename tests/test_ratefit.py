import contextlib
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import tarstop.ratefit
from conftest import make_topic
from tarstop.config import MethodParams
from tarstop.core import rel_at
from tarstop.errors import (
    ComputationError,
    FitError,
    InsufficientDataError,
    NoSignalError,
)
from tarstop.ratefit import (
    BinnedCounts,
    RateModel,
    _INITIAL_GRID,
    _UNDERFLOW,
    _profile,
    _slope,
    _slope_root,
    bin_prefix,
    delta_gate,
    fit_exponential,
    predicted_gain,
    predicted_relevant,
)
from tarstop.simulate import PiecewiseRate, gen_topic


def test_bin_prefix_two_halves():
    topic = make_topic("t", {1, 2, 3}, 6)
    binned = bin_prefix(topic, 6, 3)
    assert binned.points == ((2.0, 3), (5.0, 0))
    assert binned.widths == (3, 3)


def test_bin_prefix_short_last_interval():
    topic = make_topic("t", set(), 10)
    binned = bin_prefix(topic, 10, 4)
    assert [p[0] for p in binned.points] == [2.5, 6.5, 9.5]
    assert binned.widths == (4, 4, 2)


def test_bin_prefix_uniform_counts():
    topic = make_topic("t", set(range(1, 101)), 100)
    binned = bin_prefix(topic, 100, 10)
    assert all(y == 10 for _, y in binned.points)
    assert len(binned.points) == 10


def test_bin_prefix_insufficient():
    topic = make_topic("t", {1}, 10)
    with pytest.raises(InsufficientDataError):
        fit_exponential(bin_prefix(topic, 1, 5))


@given(
    st.sets(st.integers(1, 200)),
    st.integers(2, 200),
    st.integers(1, 50),
)
@settings(max_examples=50)
def test_bin_prefix_conserves_counts(relevant, examined_end, width):
    topic = make_topic("t", {r for r in relevant if r <= 200}, 200)
    binned = bin_prefix(topic, examined_end, width)
    assert sum(y for _, y in binned.points) == rel_at(topic, examined_end)
    xs = [x for x, _ in binned.points]
    assert xs == sorted(xs)
    assert sum(binned.widths) == examined_end


def _bin_prefix_loop(topic, examined_end, interval_width):
    """Reference: one interval at a time, counting with rel_at."""
    points, widths = [], []
    lo = 1
    while lo <= examined_end:
        hi = min(lo + interval_width - 1, examined_end)
        points.append(((lo + hi) / 2.0, rel_at(topic, hi) - rel_at(topic, lo - 1)))
        widths.append(hi - lo + 1)
        lo = hi + 1
    return BinnedCounts(tuple(points), tuple(widths))


@given(
    st.sets(st.integers(1, 300)),
    st.integers(1, 300),
    st.integers(1, 60),
)
@settings(max_examples=200)
def test_bin_prefix_matches_loop_reference(relevant, examined_end, interval_width):
    topic = make_topic("t", relevant, 300)
    binned = bin_prefix(topic, examined_end, interval_width)
    expected = _bin_prefix_loop(topic, examined_end, interval_width)
    assert binned == expected
    assert all(type(x) is float and type(c) is int for x, c in binned.points)
    assert all(type(w) is int for w in binned.widths)


def _binned_from_model(d, k, m, width):
    """Noiseless per-rank densities sampled from d*exp(k*x)."""
    points, widths = [], []
    for i in range(m):
        x = i * width + (1 + width) / 2.0
        points.append((x, d * math.exp(k * x) * width))
        widths.append(width)
    return BinnedCounts(tuple(points), tuple(widths))


def test_fit_recovers_noiseless_exponential():
    binned = _binned_from_model(0.5, -0.01, 10, 1)
    model = fit_exponential(binned)
    assert model.d == pytest.approx(0.5, rel=1e-6)
    assert model.k == pytest.approx(-0.01, rel=1e-6)


def test_fit_reproduces_every_density():
    binned = _binned_from_model(0.8, -0.004, 8, 25)
    model = fit_exponential(binned)
    for (x, y), w in zip(binned.points, binned.widths):
        assert model.d * math.exp(model.k * x) == pytest.approx(y / w, rel=1e-6)


def test_fit_constant_data():
    points = tuple((x, 3) for x in (5.0, 15.0, 25.0, 35.0))
    binned = BinnedCounts(points, (10, 10, 10, 10))
    model = fit_exponential(binned)
    assert model.k == pytest.approx(0.0, abs=1e-8)
    assert model.d == pytest.approx(0.3, rel=1e-6)
    # grid-search oracle: no (d, k) on a fine grid beats the fitted loss
    dens = np.array([y for _, y in points]) / 10.0
    xs = np.array([x for x, _ in points])

    def loss(d, k):
        return np.sum((dens - d * np.exp(k * xs)) ** 2)

    best = loss(model.d, model.k)
    for d in np.linspace(0.1, 0.6, 51):
        for k in np.linspace(-0.05, 0.05, 51):
            assert loss(d, k) >= best - 1e-12


def test_fit_single_point_rejected():
    binned = BinnedCounts(((2.0, 3),), (4,))
    with pytest.raises(InsufficientDataError):
        fit_exponential(binned)


def test_fit_no_signal():
    binned = BinnedCounts(((2.0, 0), (6.0, 0)), (4, 4))
    with pytest.raises(NoSignalError):
        fit_exponential(binned)


def _binned_counts(counts, width):
    points = tuple(
        (i * width + (1 + width) / 2.0, c) for i, c in enumerate(counts)
    )
    return BinnedCounts(points, (width,) * len(counts))


def _xs_and_densities(binned):
    x = np.array([p[0] for p in binned.points])
    dens = np.array([p[1] for p in binned.points], dtype=float)
    return x, dens / np.array(binned.widths, dtype=float)


@pytest.mark.parametrize("k", [-0.2, -0.01, -1e-4, 0.0, 0.002, 0.05])
def test_profile_derivative_matches_central_differences(k):
    x, dens = _xs_and_densities(_binned_counts([7, 3, 4, 0, 1, 2], 10))
    h = 1e-7
    cost, grad = _profile(np.array([k - h, k, k + h]), x, dens)
    assert grad[1] == pytest.approx((cost[2] - cost[0]) / (2 * h), rel=1e-6)


@given(
    st.lists(st.floats(0.01, 100.0), min_size=1, max_size=19),
    st.lists(st.floats(0.0, 1.0), min_size=20, max_size=20),
    st.floats(-1.0, 1.0),
)
@settings(max_examples=300, deadline=None)
def test_float_slope_matches_profile(gaps, densities, fraction):
    # Over increasing midpoints scaled to [0, 1] and t out to the widened
    # grid's edge, where exp(t * gap) underflows for all but an end midpoint.
    # The two sum their terms in different orders, so they agree to 1e-13
    # of the sum of the terms' sizes; 1e-300 covers subnormal e.
    x = np.cumsum([0.0, *gaps])
    u = (x - x[0]) / (x[-1] - x[0])
    dens = np.array(densities[: len(u)])
    t = fraction * _UNDERFLOW / min(u[1], 1.0 - u[-2])
    _, grad = _profile(np.array([t]), u, dens)
    dx = u - (u[0] if t < 0 else u[-1])
    e = np.exp(t * dx)
    d = float(dens @ e) / float(e @ e)
    scale = float(np.sum(np.abs(d * dx * e) * (dens + np.abs(d * e))))
    assert _slope(t, u.tolist(), dens.tolist()) == pytest.approx(
        grad[0], rel=0, abs=1e-13 * scale + 1e-300
    )


def test_slope_root_ends_where_halving_rounds_both_slopes_to_zero(monkeypatch):
    # Far out on the wide grid f' can be subnormal.  Here the second step
    # leaves g_hi 0.0 and halves g_lo from -5e-324 to -0.0, so a third
    # secant step would divide by zero.
    slopes = iter([1e-320, 0.0, 0.0])
    monkeypatch.setattr(tarstop.ratefit, "_slope", lambda t, u, y: next(slopes))
    root = _slope_root([0.0], [0.0], np.array([-1.0, 1.0]), np.array([-5e-324, 5e-324]))
    # The cell's end where |f'| is smaller: the second step's point, which is hi.
    assert root == -1e-320 / (1e-320 + 5e-324)


@pytest.mark.parametrize(
    "counts", [[5, 0, 0, 0], [1, 0], [12, 0, 0, 0, 0, 0], [0, 0, 3], [0, 4]]
)
def test_fit_signal_in_one_end_interval_has_no_minimiser(counts):
    # The squared error falls towards 0 as k -> -inf (first interval) or
    # k -> +inf (last interval); there is no finite point to return.
    with pytest.raises(FitError, match="no finite minimiser"):
        fit_exponential(_binned_counts(counts, 100))


def _limits(dens):
    """The profile's exact limits as k -> -inf and as k -> +inf."""
    return 0.5 * float(dens[1:] @ dens[1:]), 0.5 * float(dens[:-1] @ dens[:-1])


@pytest.mark.parametrize(
    "counts, width", [([2, 0, 1], 291), ([30, 0, 1, 1, 2, 0], 100)]
)
def test_fit_whose_cost_falls_towards_a_limit_raises(counts, width):
    # Relevant documents in several intervals, yet the cost stays above its
    # k -> -inf limit and falls towards it: every finite point is a valley.
    x, dens = _xs_and_densities(_binned_counts(counts, width))
    cost, _ = _profile(-np.geomspace(0.1, 10.0, 50) / (x[-1] - x[0]), x, dens)
    assert np.all(np.diff(cost) < 0) and np.all(cost > _limits(dens)[0])
    with pytest.raises(FitError, match="no finite minimiser"):
        fit_exponential(_binned_counts(counts, width))


def test_bimodal_valley_prefix_raises():
    # Bimodal topic, seed 10, prefix 600: the counts above, for which a
    # Levenberg-Marquardt solve stopped at d = 422, k = -0.144 on the valley.
    topic = gen_topic(2000, PiecewiseRate(0.3, 0.01, 100), seed=10)
    binned = bin_prefix(topic, 600, 100)
    assert [c for _, c in binned.points] == [30, 0, 1, 1, 2, 0]
    with pytest.raises(FitError, match="no finite minimiser"):
        fit_exponential(binned)


def test_fit_minimum_past_the_first_grid_is_found():
    # (30, 1, 0, ..., 0) over 20 intervals: the cost dips below its
    # k -> -inf limit near exp(k * width) = 1/30, at k * span = -65, past
    # the edge of the first grid.
    model = fit_exponential(_binned_counts([30, 1] + [0] * 18, 100))
    assert model.k * 1900 < -64
    assert math.exp(model.k * 100) == pytest.approx(1 / 30, rel=1e-2)


@pytest.mark.parametrize(
    "bins, width, relevant",
    [(16, 2, 3), (18, 3, 1), (16, 9, 1), (23, 6, 1)],
)
def test_mirrored_minima_tie_to_the_falling_rate(bins, width, relevant):
    # Relevant documents only in the 2nd and the next to last bin: the cost
    # is symmetric in k, with minima at +-t of equal cost up to rounding.
    counts = [0] * bins
    counts[1] = counts[-2] = relevant
    assert fit_exponential(_binned_counts(counts, width)).k < 0


def test_fit_returns_plain_floats():
    model = fit_exponential(_binned_from_model(0.5, -0.01, 10, 1))
    assert type(model.d) is float
    assert type(model.k) is float


def test_step_trial_84_with_one_relevant_document_raises():
    # The step family's coverage trial 84 at seed 0 has one relevant
    # document, at a rank inside the first 100-rank interval.
    topic = gen_topic(2000, PiecewiseRate(0.1, 0.0, 100), seed=84)
    assert topic.total_relevant == 1 == rel_at(topic, 100)
    batch = math.ceil(MethodParams().beta_frac * topic.size)
    with pytest.raises(FitError):
        fit_exponential(bin_prefix(topic, topic.size, batch))


@given(
    st.lists(st.integers(0, 60), min_size=3, max_size=20),
    st.integers(1, 300),
)
@settings(max_examples=200, deadline=None)
def test_fit_is_no_worse_than_its_start_and_stationary(counts, width):
    assume(any(counts))
    binned = _binned_counts(counts, width)
    x, dens = _xs_and_densities(binned)
    try:
        model = fit_exponential(binned)
    except FitError:
        return
    w = np.array(binned.widths, dtype=float)
    k0, _ = np.polyfit(x, np.log(np.maximum(dens, 0.5 / w)), 1)
    cost, grad = _profile(np.array([model.k, k0]), x, dens)
    # No worse than the profile at the log-linear start, up to rounding:
    # each residual is off by at most 4 ulps of the largest density, which
    # moves the sum of squares by at most m * err * (|r| + err).
    err = 4 * np.finfo(float).eps * dens.max()
    slack = len(dens) * err * (np.linalg.norm(dens) + err)
    assert cost[0] <= cost[1] + slack
    # The returned (d, k) costs what the profile does at k.
    fitted = model.d * np.exp(model.k * x)
    r = dens - fitted
    assert 0.5 * float(r @ r) <= cost[0] + slack
    # Stationary: f'(k) = -(x - x_end) d e . r is 0 to within its terms.
    near = x[0] if model.k < 0 else x[-1]
    scale = np.linalg.norm((x - near) * fitted) * np.linalg.norm(dens)
    assert abs(grad[0]) <= 1e-6 * scale


def _dense_grid_minimum(x, dens):
    """Least profile cost on a dense grid of t = k * span, refined twice.

    The grid reaches the t at which exp(t * gap) == 0 for every midpoint
    but an end one, so its two ends cost the two limits.
    """
    u = (x - x[0]) / (x[-1] - x[0])
    tail = np.geomspace(1e-3, 800.0 / np.diff(u).min(), 4000)
    t = np.concatenate((-tail[::-1], [0.0], tail))
    for _ in range(3):
        z = np.multiply.outer(u, t)
        e = np.exp(z - z.max(axis=0))
        d = (dens @ e) / (e * e).sum(axis=0)
        cost = 0.5 * ((dens[:, None] - d * e) ** 2).sum(axis=0)
        j = int(np.argmin(cost))
        t = np.linspace(t[max(j - 1, 0)], t[min(j + 1, t.size - 1)], 1001)
    return float(cost[j])


@given(
    st.lists(st.integers(0, 20), min_size=2, max_size=8),
    st.integers(1, 300),
    st.floats(0.01, 1.0),
)
@example([20, 20, 6, 5, 0, 8, 11, 6], 299, 0.168)  # two local minima
@example([6, 0, 1], 15, 0.9375)  # dips below a limit, within rounding
@example([16, 0, 4], 15, 0.93)  # the same, computed below it by rounding
@settings(max_examples=200, deadline=None)
def test_fit_cost_matches_a_dense_grid_minimum(counts, width, last):
    # Reference for the whole fit: the dense-grid minimum of the profile,
    # to 1e-9 of the cost scale |dens|^2 / 2.  A minimum that reaches a
    # limit must raise; one less than 1e-9 of the scale below it may.
    assume(any(counts))
    last_width = max(1, round(last * width))
    edges = [i * width for i in range(len(counts))] + [(len(counts) - 1) * width + last_width]
    binned = BinnedCounts(
        tuple(((lo + 1 + hi) / 2.0, c) for lo, hi, c in zip(edges, edges[1:], counts)),
        tuple(hi - lo for lo, hi in zip(edges, edges[1:])),
    )
    x, dens = _xs_and_densities(binned)
    scale = 0.5 * float(dens @ dens)
    ref = _dense_grid_minimum(x, dens)
    limit = min(_limits(dens))
    if ref >= limit:
        with pytest.raises(FitError, match="no finite minimiser"):
            fit_exponential(binned)
        return
    try:
        model = fit_exponential(binned)
    except FitError:
        assert ref >= limit - 1e-9 * scale
        return
    r = dens - model.d * np.exp(model.k * x)
    cost = 0.5 * float(r @ r)
    assert abs(cost - ref) <= 1e-9 * scale
    # Below the limit by more than the cost's rounding, m ulps of the scale.
    assert cost < limit - 16 * len(dens) * np.finfo(float).eps * scale


# (family, counts, width, last interval's width, fitted (d, k) or the error
# raised), recorded from the fits before the search grids were reused.  Each
# count vector is a prefix of a seeded gen_topic draw of that family binned
# at that width; most end in a short interval.
_PINNED_FITS = [
    ("bimodal", "36 1 2 0", 112, 112, (1.8485120065947764, -0.03096307972587567)),
    ("bimodal", "7 12 9 9 0 1 0 0 0 1 0", 25, 9,
     (0.5083674922294921, -0.011332650998622148)),
    ("bimodal", "29 0 1 2 0 1 2 1 0 1 0 0 1 0 3", 100, 100, FitError),
    ("bimodal", "23 0 0", 96, 96, FitError),
    ("bimodal", "5 8 14 10 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0", 25, 4,
     (0.4396616208930069, -0.010065425725698362)),
    ("bimodal", "28 0 2 2 2 0", 100, 15, FitError),
    ("bimodal", "21 2 0 0 2 1 1 0 0 3 1 0", 87, 87,
     (0.798575859454901, -0.027191023178527306)),
    ("bimodal", "21 3 0 0 1 1 2 2 2 1 3 0 1 1 2 3 0 2 0", 100, 2,
     (0.571061012319568, -0.019803497976158702)),
    ("bimodal", "27 2 2 0 0", 85, 6, (1.10149025212666, -0.028929441521263057)),
    ("bimodal", "18 19 1 1 1 0 0 2 1 2 1", 61, 61,
     (0.4557060881127014, -0.010010152979147474)),
    ("bimodal", "7 7 5 9 0 0 0 0 0 0 0 0 1 0 0 0 0 0 0 0", 25, 1,
     (0.39915986040588197, -0.012377436493090825)),
    ("bimodal", "8 7 7 7 0 0 0 0 0 0 1 0", 25, 25,
     (0.4440327752027745, -0.013275378085538692)),
    ("bimodal", "31 4 0 1 1 2 4 0 1 0 2 1", 90, 90,
     (0.9786676921261287, -0.02294857388177033)),
    ("step", "8 5 0 0 0 0 0", 63, 63, (0.2078494487580995, -0.014058175365311575)),
    ("step", "15 0 0", 134, 3, FitError),
    ("step", "6 3 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0", 61, 15,
     (0.1679436614588634, -0.01647627112692568)),
    ("step", "6 2 0 0 0 0 0 0 0 0 0 0 0 0 0 0", 94, 94,
     (0.12217151683139073, -0.013512730139754162)),
    ("step", "9 2 0 0 0", 80, 29, (0.25223018285483323, -0.01988890391809012)),
    ("step", "8 1 0 0 0 0 0 0 0 0 0 0 0 0 0 0", 89, 79,
     (0.2612020206575447, -0.023700233306955712)),
    ("step", "5 4 0 0 0 0 0 0 0", 61, 61, (0.13104680966673754, -0.012708977363385979)),
    ("step", "3 3 4 1 0 0 0", 25, 24, (0.17870944861834184, -0.013604904589541942)),
    ("step", "6 3 0 0 0 0", 61, 49, (0.1679434659212371, -0.016476301417367847)),
    ("step", "7 0 0 0 0", 90, 90, FitError),
    ("step", "11 0 0 0 0 0", 100, 64, FitError),
    ("step", "7 2 0 2 0", 25, 9, (0.5193470227700773, -0.04795051141105319)),
    ("step", "7 0 0 0 0 0 0 0 0", 102, 102, FitError),
    ("uniform", "8 2 5", 124, 124, (0.07203691367999022, -0.0035434155040212027)),
    ("uniform", "6 3 2", 110, 39, (0.05118834147897375, -0.0009506473788449886)),
    ("uniform", "3 6 4 3 3 3 3", 71, 57,
     (0.060816126157448254, -0.0006657279778155403)),
    ("uniform", "8 1 4 6 5 6 6 2 3 8 6 4 8 6 9 6 6 5", 100, 100,
     (0.045159795598062234, 0.00021220707986771824)),
    ("uniform", "1 1 1 1 1 2 2 0", 25, 20,
     (0.04301728171129501, 0.00044712416860075214)),
    ("uniform", "1 4 5 1 5 3 0 5 3 4 1 5 1 2 2 1", 61, 25,
     (0.05248008702846222, -0.000297751185741457)),
    ("uniform", "1 4 2 3 5 2", 54, 54, (0.0414759100868348, 0.0014054943017214427)),
    ("uniform", "1 0 1 3 1 3 0 1 1 0", 25, 10,
     (0.05187890316892391, -0.0013415745907417735)),
    ("uniform", "2 6 3 5 3 5 3 3", 74, 57,
     (0.05083883077644885, 8.825407046349834e-05)),
    ("uniform", "4 3 0 1 2 2 0 4 0 3 4 4 1", 54, 54,
     (0.03445102829087595, 0.00040550101580266474)),
    ("uniform", "4 2 8 1 5 8 2 6 6 3 3 3 2", 61, 14,
     (0.06515024152546642, 0.00035814805067294156)),
    ("uniform", "2 4 6 4 3 3 5 1", 82, 18,
     (0.04115490066578099, 0.00046994634378547253)),
    ("uniform", "4 2 1 3 2 3 4 5 3 1 4 2 3 3 3 3 2 3", 61, 61,
     (0.04601085076216451, 1.718629480912967e-05)),
    ("exponential", "30 13", 48, 48, (0.9577498038285974, -0.017421833837512887)),
    ("exponential", "12 13 7 10 11 10 6 6 5 3 6 4 2", 25, 12,
     (0.5318910862107747, -0.003941598376863695)),
    ("exponential", "32 28 21 7 1 2 1 1 0 0 0 0 0 0 0 0 0", 100, 56,
     (0.4451175670556089, -0.004370491608213484)),
    ("exponential", "33 22 13", 88, 88, (0.4736054060085705, -0.005083516937637776)),
    ("exponential", "9 7 9 3 4 5 7 4 5 2 3 4 3 4 3 1 1", 25, 17,
     (0.3395068203496613, -0.0035517792932763747)),
    ("exponential", "49 19 12 6 7 3 0 1 6", 100, 82,
     (0.6868445257639758, -0.007255687258177487)),
    ("exponential", "46 20 15 6 4 4 3", 100, 100,
     (0.6180151730078728, -0.00636750411285185)),
    ("exponential", "41 26 12 13 7 5 2 1 1 1 0 0 0 0 0 0 0", 86, 76,
     (0.598341197235205, -0.005423458453317824)),
    ("exponential", "9 9 7 10 11 4 8 6 5 4 5 3 2", 25, 7,
     (0.39950062632176314, -0.00255544415014175)),
    ("exponential", "34 20 19 9 7 2 2 1 1 2 0 0 0 0", 100, 100,
     (0.4178730109907896, -0.004165319298289486)),
    ("exponential", "36 27 15 6 6 2 1 0 0 0 0 0 0", 111, 78,
     (0.4362646010606298, -0.004403651710255993)),
    ("exponential", "32 20 21 6 6 3 2 1", 69, 8,
     (0.5586498592780762, -0.005427309357401491)),
    ("exponential", "8 15 9 8 11 4 8 3 5", 25, 25,
     (0.49211230302982367, -0.004228600616114958)),
    ("step", "0 0 0", 50, 50, NoSignalError),
    ("uniform", "3", 40, 17, InsufficientDataError),
    # A whole-topic fit whose lowest cost on the initial grid is at an edge,
    # so that it is found on the wide grid.
    ("bimodal", "32 1 0 0 1 1 0 0 1 1 0 2 2 0 2 3 1 1 2 3", 100, 100,
     (1.8435317469343049, -0.03467557597221978)),
]


def _binned_from_row(counts, width, last):
    """A _PINNED_FITS row's counts binned at width, the last interval last wide."""
    counts = [int(c) for c in counts.split()]
    edges = [*range(0, width * len(counts), width)] + [width * (len(counts) - 1) + last]
    return BinnedCounts(
        tuple(((lo + 1 + hi) / 2.0, c) for lo, hi, c in zip(edges, edges[1:], counts)),
        tuple(hi - lo for lo, hi in zip(edges, edges[1:])),
    )


@pytest.mark.parametrize(
    "family, counts, width, last, expected",
    _PINNED_FITS,
    ids=[f"{row[0]}-{i}" for i, row in enumerate(_PINNED_FITS)],
)
def test_fit_matches_its_pinned_result(family, counts, width, last, expected):
    binned = _binned_from_row(counts, width, last)
    if isinstance(expected, type):
        with pytest.raises(expected):
            fit_exponential(binned)
        return
    model = fit_exponential(binned)
    assert (model.d, model.k) == pytest.approx(expected, rel=1e-12, abs=0)


def _fresh_memo(monkeypatch):
    """An empty basis memo for the fits, and the midpoints of each grid basis built."""
    memo, built, make = tarstop.ratefit._BasisMemo(), [], tarstop.ratefit._Basis

    def basis(k, x):
        if k.size >= _INITIAL_GRID.size:  # not _profile's basis on a few roots
            built.append(x)
        return make(k, x)

    monkeypatch.setattr(tarstop.ratefit, "_LAYOUTS", memo)
    monkeypatch.setattr(tarstop.ratefit, "_Basis", basis)
    return memo, built


def _layout_key(binned):
    """The memo's key for a fit's scaled midpoints, without the grid."""
    x, _ = _xs_and_densities(binned)
    return ((x - x[0]) / (x[-1] - x[0])).tobytes()


def test_fits_from_a_kept_layout_equal_cold_fits(monkeypatch):
    grids = set()
    for _, counts, width, last, expected in _PINNED_FITS:
        if isinstance(expected, type):
            continue
        binned = _binned_from_row(counts, width, last)
        memo, built = _fresh_memo(monkeypatch)
        cold = fit_exponential(binned)
        kept = dict(memo.kept)  # asked for once: built and kept
        assert len(built) == len(kept) >= 1
        warm = fit_exponential(binned)
        assert len(built) == len(kept) and memo.kept == kept
        assert (warm.d, warm.k) == (cold.d, cold.k)
        grids.update(wide for _, wide in kept)
    assert grids == {False, True}  # kept bases on both grids were compared


def test_layouts_are_kept_for_one_bin_width(monkeypatch):
    memo, built = _fresh_memo(monkeypatch)
    topic = gen_topic(2000, PiecewiseRate(0.3, 0.01, 100), seed=3)
    at_100 = [bin_prefix(topic, end, 100) for end in (650, 900, 900, 1000)]
    at_50 = [bin_prefix(topic, end, 50) for end in (620, 620, 700)]
    for binned in at_100:
        fit_exponential(binned)
    assert {u for u, _ in memo.kept} == {_layout_key(binned) for binned in at_100}
    assert len(built) == len(memo.kept)  # the repeated layout is built once
    built_at_100 = len(built)
    for binned in at_50:
        fit_exponential(binned)
    assert {u for u, _ in memo.kept} == {_layout_key(binned) for binned in at_50}
    assert len(built) == built_at_100 + len(memo.kept)


def test_kept_bases_stay_within_their_byte_budget(monkeypatch):
    memo, built = _fresh_memo(monkeypatch)
    budget = 256 * _INITIAL_GRID.nbytes  # 256 midpoints on the initial grid
    monkeypatch.setattr(tarstop.ratefit, "_KEPT_BYTES", budget)
    for m in (100, 120, 60, 30):  # 100 + 120 + 60 midpoints would pass it
        binned = _binned_counts([3, 1] * (m // 2), 10)
        for _ in range(2):
            with contextlib.suppress(FitError):
                fit_exponential(binned)
    assert sorted(basis.x.size for basis in memo.kept.values()) == [30, 100, 120]
    assert memo.nbytes == sum(basis.e.nbytes for basis in memo.kept.values())
    assert memo.nbytes <= budget
    assert [u.size for u in built] == [100, 120, 60, 60, 30]  # 60 is built per fit


def test_delta_gate_boundary_accepts():
    # Construct a model whose per-rank sum over 100 ranks is known, then
    # place exactly delta * predicted relevant documents in the prefix.
    model = RateModel(1.0, 0.0)
    predicted = predicted_relevant(model, 100)
    assert predicted == pytest.approx(100.0)
    topic = make_topic("t", set(range(1, 71)), 100)
    assert delta_gate(model, topic, 100, 0.7) is True
    topic_low = make_topic("t", set(range(1, 70)), 100)
    assert delta_gate(model, topic_low, 100, 0.7) is False


@pytest.mark.parametrize("model", [RateModel(0.3, -0.01), RateModel(1e-3, 0.02)])
def test_predicted_gain_runs_to_predicted_relevant(model):
    gain = predicted_gain(model, 200)
    assert len(gain) == 200
    assert gain[-1] == pytest.approx(predicted_relevant(model, 200), rel=1e-12)
    assert gain[49] == pytest.approx(predicted_relevant(model, 50), rel=1e-12)


def test_predicted_intensity_overflow_names_the_first_rank():
    model = RateModel(1e-3, 2.0)
    for predict in (predicted_relevant, predicted_gain):
        with pytest.raises(ComputationError, match="evaluating rate at x=351$"):
            predict(model, 400)
        assert predict(model, 350)


def test_delta_gate_degenerate_model_accepts():
    model = RateModel(1e-300, 0.0)
    topic = make_topic("t", set(), 10)
    assert delta_gate(model, topic, 10, 0.7) is True


@given(st.integers(0, 50), st.integers(0, 50))
@settings(max_examples=30)
def test_delta_gate_monotone_in_rel(rel_a, rel_b):
    lo, hi = sorted((rel_a, rel_b))
    model = RateModel(0.5, -0.01)
    topic_lo = make_topic("t", set(range(1, lo + 1)), 60)
    topic_hi = make_topic("t", set(range(1, hi + 1)), 60)
    if delta_gate(model, topic_lo, 60, 0.7):
        assert delta_gate(model, topic_hi, 60, 0.7)
