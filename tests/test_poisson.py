import math
import time

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tarstop import poisson
from tarstop.config import MethodParams
from tarstop.core import StopOutcome, rel_at
from tarstop.errors import ComputationError, ValidationError
from tarstop.methods import poisson_stop
from tarstop.poisson import required_relevant, upper_credible_count
from tarstop.ratefit import (
    RateModel,
    bin_prefix,
    delta_gate,
    fit_exponential,
    lambda_integral,
)
from tarstop.simulate import ExponentialRate, gen_topic


def pmf_oracle(mean: float, r: int) -> float:
    """Arbitrary-precision Poisson pmf, independent of the log-space path."""
    with mpmath.workdps(50):
        return float(
            mpmath.power(mean, r) / mpmath.factorial(r) * mpmath.exp(-mean)
        )


def credible_oracle(mean: float, confidence: float) -> int:
    """The least r whose Poisson CDF at mean reaches confidence, exactly.

    P(X <= r) is the regularized upper incomplete gamma Q(r + 1, mean),
    held against confidence at 50 digits, with no float sum to round.
    """
    with mpmath.workdps(50):
        r = 0
        while mpmath.gammainc(r + 1, mean, mpmath.inf, regularized=True) < confidence:
            r += 1
        return r


def test_lambda_integral_small_k_limit():
    assert lambda_integral(RateModel(3.0, 1e-12), 10.0) == pytest.approx(30.0)


def test_lambda_integral_empty_interval():
    assert lambda_integral(RateModel(1.0, -0.5), 0.0) == 0.0


def test_lambda_integral_against_quadrature():
    # 1000 * (1 - exp(-1)), frozen from adaptive quadrature of the intensity
    value = lambda_integral(RateModel(1.0, -0.001), 1000.0)
    assert value == pytest.approx(632.1205588285577, rel=1e-12)
    with mpmath.workdps(40):
        quad = float(mpmath.quad(lambda x: mpmath.exp(-0.001 * x), [0, 1000]))
    assert value == pytest.approx(quad, rel=1e-10)


def test_lambda_integral_overflow():
    with pytest.raises(ComputationError):
        lambda_integral(RateModel(1.0, 1.0), 800.0)


# The pmf terms that upper_credible_count sums, seen through the bound.


def test_pmf_at_zero():
    # The first term is exp(-mean): exp(-1) = 0.36787944117144233.
    assert upper_credible_count(1.0, 0.3678794411714) == 0
    assert upper_credible_count(1.0, 0.3678794411715) == 1


def test_pmf_degenerate():
    # Mean 0 puts all the mass at 0, whatever the cap.
    for cap in (None, 0, 3):
        assert upper_credible_count(0.0, 0.999, cap) == 0


def test_pmf_value():
    # At mean 2 the terms up to 2 sum to 5 * exp(-2) = 0.6766764161830635,
    # the last of them 2 * exp(-2).
    assert upper_credible_count(2.0, 0.6766764161830) == 2
    assert upper_credible_count(2.0, 0.6766764161831) == 3


def test_pmf_rejects_negative():
    with pytest.raises(ValueError):
        upper_credible_count(-1.0, 0.95)
    with pytest.raises(ValueError):
        upper_credible_count(-1.0, 0.95, 10)


def test_pmf_large_r_no_overflow():
    # The last scan passes r = 600, where mean ** r alone would overflow.
    for confidence in (0.5, 0.95, 0.999999):
        assert upper_credible_count(500.0, confidence) == credible_oracle(
            500.0, confidence
        )


def test_pmf_sums_to_one():
    # The terms reach 1 - 1e-9 well before 20 standard deviations up.
    for mean in (0.5, 3.0, 40.0, 300.0):
        cap = int(mean + 20 * math.sqrt(mean + 1))
        assert upper_credible_count(mean, 1 - 1e-9, cap) < cap


def test_upper_credible_count_degenerate():
    assert upper_credible_count(0.0, 0.95) == 0


def test_upper_credible_count_frozen_values():
    # exact oracle: CDF(14) ~ 0.9165, CDF(15) ~ 0.9513
    assert upper_credible_count(10.0, 0.95) == 15
    # CDF(4) ~ 0.4405, CDF(5) ~ 0.6160
    assert upper_credible_count(5.0, 0.5) == 5


@pytest.mark.parametrize("mean", [0.1, 1.0, 5.0, 10.0, 50.0])
@pytest.mark.parametrize("confidence", [0.5, 0.9, 0.95, 0.99])
def test_upper_credible_count_matches_oracle(mean, confidence):
    assert upper_credible_count(mean, confidence) == credible_oracle(mean, confidence)


@pytest.mark.parametrize("mean", [0.0, 1.0, 10.0, 50.0])
@pytest.mark.parametrize("cap", [0, 1, 5, 12, 60, 500])
def test_upper_credible_count_cap_returns_the_smaller(mean, cap):
    assert upper_credible_count(mean, 0.95, cap) == min(
        credible_oracle(mean, 0.95), cap
    )


def test_upper_credible_count_rejects_negative_cap():
    with pytest.raises(ValueError):
        upper_credible_count(1.0, 0.95, -1)


def _walked_scan(mean, confidence, cap):
    """The scan of upper_credible_count without its stall rule: every term to the cap."""
    log_mean, total, r = math.log(mean), 0.0, 0
    while r != cap:
        total += math.exp(r * log_mean - mean - math.lgamma(r + 1))
        if total >= confidence:
            return r
        r += 1
    return r


def test_a_stalled_sum_returns_the_cap_at_once():
    # At mean 1000 the float sum of the terms stalls near 1 - 2.5e-13, below
    # the confidence: a scan of every term up to the cap would not end.
    assert upper_credible_count(1000.0, 0.9999999999999999, cap=10**12) == 10**12


def test_a_mean_far_past_the_cap_returns_the_cap_at_once():
    # simulate --recall 1e-9 at n 125 put a fitted mean of 4.6e11 against a
    # cap of 1.25e11.  Every term below the cap is 0.0 in floats, and a scan
    # from 0 would add all 1.25e11 of them.
    start = time.perf_counter()
    assert upper_credible_count(457028321769.08435, 0.9999999999999999, 125 * 10**9) == (
        125 * 10**9
    )
    assert time.perf_counter() - start < 1


def test_a_stalled_sum_without_a_cap_is_a_computation_error():
    with pytest.raises(ComputationError, match="stalls"):
        upper_credible_count(1000.0, 0.9999999999999999)


@settings(max_examples=60, deadline=None)
@given(
    mean=st.floats(1e-3, 1e4),
    confidence=st.sampled_from(
        [0.5, 0.95, 1 - 1e-9, 1 - 1e-12, 1 - 1e-14, 0.9999999999999999]
    ),
    headroom=st.integers(0, 5000),
)
def test_the_stall_rule_gives_the_walked_scans_bound(mean, confidence, headroom):
    # With a cap the walked scan can reach, both end at the same R, whether
    # the sum reaches the confidence or stalls below it.
    cap = int(mean + 40 * math.sqrt(mean) + 50) + headroom
    assert upper_credible_count(mean, confidence, cap) == _walked_scan(mean, confidence, cap)


@given(st.integers(1, 400), st.floats(0.05, 1.0))
@settings(max_examples=40, deadline=None)
def test_required_relevant_past_the_cap_is_unreachable(n, recall):
    # A mean of 1e6 per document puts the credible bound far past anything
    # n documents can hold; the capped quota is the least one above n.
    params = MethodParams(target_recall=recall)
    assert required_relevant(1e6 * n, n, params) == n + 1


def test_rising_rate_topic_scan_stops_at_the_cap(monkeypatch):
    # Fitted k ~ 0.0016 over the initial sample puts the Poisson mean over
    # (0, 10000] near 3e7; an uncapped scan takes about a minute per call.
    topic = gen_topic(10_000, ExponentialRate(0.005, 0.0016), seed=1)
    params = MethodParams()
    model = fit_exponential(bin_prefix(topic, 3000, 500))
    assert model.k == pytest.approx(0.0016, rel=0.05)
    assert delta_gate(model, topic, 3000, params.delta)

    calls = []

    def recording(mean, confidence, cap=None):
        bound = upper_credible_count(mean, confidence, cap)
        calls.append((mean, bound, cap))
        return bound

    monkeypatch.setattr(poisson, "upper_credible_count", recording)
    outcome = poisson_stop(topic, params)
    # Frozen from the uncapped scan, which reaches the same decisions.
    assert outcome == StopOutcome(8553, 0, True)
    assert rel_at(topic, outcome.stop_rank) == 5864
    cap = 14_286  # least R with ceil(0.7 R) > 10000
    assert calls[0][0] > 1e7 and calls[0][1] == cap
    assert all(c == cap and bound <= cap for _, bound, c in calls)


@given(
    st.floats(0.0, 100.0),
    st.floats(0.0, 100.0),
    st.floats(0.05, 0.99),
)
def test_upper_credible_monotone_in_mean(mean_a, mean_b, confidence):
    lo, hi = sorted((mean_a, mean_b))
    assert upper_credible_count(lo, confidence) <= upper_credible_count(hi, confidence)


@given(st.floats(0.0, 100.0), st.floats(0.05, 0.95), st.floats(0.001, 0.04))
def test_upper_credible_monotone_in_confidence(mean, confidence, bump):
    assert upper_credible_count(mean, confidence) <= upper_credible_count(
        mean, confidence + bump
    )


def test_credible_bound_covers_simulated_counts():
    rng = np.random.default_rng(2024)
    for mean, p in ((3.0, 0.9), (10.0, 0.95), (50.0, 0.99)):
        bound = upper_credible_count(mean, p)
        draws = rng.poisson(mean, size=10_000)
        frac = np.mean(draws <= bound)
        se = math.sqrt(p * (1 - p) / 10_000)
        assert frac >= p - 3 * se


def test_lambda_integral_additivity():
    model = RateModel(0.7, -0.003)
    for a, b in ((100.0, 400.0), (0.0, 50.0), (10.0, 2000.0)):
        over_ab = (model.d / model.k) * (math.exp(model.k * b) - math.exp(model.k * a))
        assert lambda_integral(model, a) + over_ab == pytest.approx(
            lambda_integral(model, b), rel=1e-12
        )


def test_required_relevant_zero_mean():
    mean = lambda_integral(RateModel(1e-300, -0.5), 10)
    assert required_relevant(mean, 10, MethodParams()) == 0


def test_required_relevant_composes_bound():
    # Pick (d, k) so the integral over (0, n] is exactly 10.
    model = RateModel(10.0 * 0.001 / (1 - math.exp(-0.001 * 1000)), -0.001)
    n = 1000
    mean = lambda_integral(model, n)
    assert mean == pytest.approx(10.0, rel=1e-12)
    assert required_relevant(mean, n, MethodParams()) == 11  # ceil(15 * 0.7)
    assert required_relevant(mean, n, MethodParams(target_recall=1.0)) == 15


def test_rate_model_invariants():
    with pytest.raises(ValidationError):
        RateModel(0.0, -0.1)
    with pytest.raises(ValidationError):
        RateModel(1.0, float("nan"))
