import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import make_topic
from tarstop.core import MethodParams, rel_at
from tarstop.errors import FitError, InsufficientDataError, NoSignalError
from tarstop.poisson import RateModel
from tarstop.ratefit import (
    BinnedCounts,
    _residuals_and_jacobian,
    bin_prefix,
    delta_gate,
    fit_exponential,
    predicted_relevant,
)
from tarstop.simulate import StepRate, gen_topic


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
        bin_prefix(topic, 1, 5)


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
    width = int(math.ceil(interval_width))
    points, widths = [], []
    lo = 1
    while lo <= examined_end:
        hi = min(lo + width - 1, examined_end)
        points.append(((lo + hi) / 2.0, rel_at(topic, hi) - rel_at(topic, lo - 1)))
        widths.append(hi - lo + 1)
        lo = hi + 1
    return BinnedCounts(tuple(points), tuple(widths))


@given(
    st.sets(st.integers(1, 300)),
    st.integers(1, 300),
    st.one_of(st.integers(1, 60), st.floats(1.0, 60.0)),
)
@settings(max_examples=200)
def test_bin_prefix_matches_loop_reference(relevant, examined_end, interval_width):
    topic = make_topic("t", relevant, 300)
    assume(examined_end >= 2 or interval_width <= examined_end)
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


@pytest.mark.parametrize("logd, k", [(-1.0, -0.01), (-4.5, 0.002), (0.3, -0.2)])
def test_jacobian_matches_central_differences(logd, k):
    x, dens = _xs_and_densities(_binned_counts([7, 3, 4, 0, 1, 2], 10))
    _, jac = _residuals_and_jacobian(logd, k, x, dens)
    for col, (hd, hk) in enumerate(((1e-6, 0.0), (0.0, 1e-8))):
        r_hi, _ = _residuals_and_jacobian(logd + hd, k + hk, x, dens)
        r_lo, _ = _residuals_and_jacobian(logd - hd, k - hk, x, dens)
        central = (r_hi - r_lo) / (2 * (hd + hk))
        np.testing.assert_allclose(jac[:, col], central, rtol=1e-6, atol=1e-12)


@pytest.mark.parametrize(
    "counts", [[5, 0, 0, 0], [1, 0], [12, 0, 0, 0, 0, 0], [0, 0, 3], [0, 4]]
)
def test_fit_signal_in_one_end_interval_has_no_minimiser(counts):
    # The squared error falls towards 0 as k -> -inf (first interval) or
    # k -> +inf (last interval); there is no finite point to return.
    with pytest.raises(FitError, match="no finite minimiser"):
        fit_exponential(_binned_counts(counts, 100))


def test_fit_exhausting_the_budget_raises():
    # (2, 0, 1) per interval: the best fits run off towards k -> -inf, so
    # no step converges before the residual-evaluation budget is spent.
    with pytest.raises(FitError, match="did not converge in 600 evaluations"):
        fit_exponential(_binned_counts([2, 0, 1], 291))


def test_fit_returns_plain_floats():
    model = fit_exponential(_binned_from_model(0.5, -0.01, 10, 1))
    assert type(model.d) is float
    assert type(model.k) is float


def test_step_trial_84_with_one_relevant_document_raises():
    # The step family's coverage trial 84 at seed 0 has one relevant
    # document, at a rank inside the first 100-rank interval.
    topic = gen_topic(2000, StepRate(0.1, 100), seed=84)
    assert topic.total_relevant == 1 == rel_at(topic, 100)
    batch = math.ceil(MethodParams().beta_frac * topic.size)
    with pytest.raises(FitError):
        fit_exponential(bin_prefix(topic, topic.size, batch))


def _cost(logd, k, x, dens):
    r, _ = _residuals_and_jacobian(logd, k, x, dens)
    return 0.5 * float(r @ r)


@given(
    st.lists(st.integers(0, 60), min_size=3, max_size=20),
    st.integers(1, 300),
)
@settings(max_examples=200, deadline=None)
def test_fit_is_no_worse_than_its_start_and_stationary(counts, width):
    # Relevant documents outside a single end interval (that case raises
    # before iterating); the infimum may still lie at k -> +-inf, as in the
    # budget test, and then the fit raises too.
    assume(any(counts[1:-1]) or (counts[0] and counts[-1]))
    binned = _binned_counts(counts, width)
    x, dens = _xs_and_densities(binned)
    try:
        model = fit_exponential(binned)
    except FitError:
        return
    w = np.array(binned.widths, dtype=float)
    k0, logd0 = np.polyfit(x, np.log(np.maximum(dens, 0.5 / w)), 1)
    logd = math.log(model.d)
    # log(exp(logd)) may move logd by an ulp: allow that much residual error.
    slack = len(dens) * (4 * np.finfo(float).eps * dens.max()) ** 2
    assert _cost(logd, model.k, x, dens) <= _cost(logd0, k0, x, dens) + slack
    r, jac = _residuals_and_jacobian(logd, model.k, x, dens)
    scale = np.linalg.norm(jac, axis=0) * np.linalg.norm(dens)
    assert np.all(np.abs(jac.T @ r) <= 1e-6 * scale)


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
