import math
import warnings

import numpy as np
import pytest

from tarstop.config import MethodParams
from tarstop.ratefit import RateModel, lambda_integral
from tarstop.simulate import (
    FAMILIES,
    ExponentialRate,
    PiecewiseRate,
    bound_covers,
    gen_topic,
)


def test_uniform_zero_rate():
    topic = gen_topic(50, PiecewiseRate(0.0, 0.0, 0), seed=1)
    assert topic.total_relevant == 0


def test_uniform_full_rate():
    topic = gen_topic(50, PiecewiseRate(1.0, 1.0, 0), seed=1)
    assert topic.total_relevant == 50


def test_gen_topic_deterministic():
    family = ExponentialRate(0.5, -0.005)
    topic = gen_topic(200, family, seed=3)
    assert topic.topic_id == "synthetic-3"
    assert np.array_equal(topic.relevant, gen_topic(200, family, seed=3).relevant)
    assert not np.array_equal(topic.relevant, gen_topic(200, family, seed=4).relevant)


def test_exponential_mean_matches_integral():
    family = ExponentialRate(0.5, -0.005)
    n, seeds = 2000, 2000
    counts = [gen_topic(n, family, seed=s).total_relevant for s in range(seeds)]
    expected = lambda_integral(RateModel(0.5, -0.005), n)
    # per-rank Bernoulli mean is the discrete sum, within O(k) of the integral
    discrete = float(np.sum(0.5 * np.exp(-0.005 * np.arange(1, n + 1))))
    sd = math.sqrt(discrete) / math.sqrt(seeds)
    assert abs(np.mean(counts) - discrete) < 3 * sd
    assert abs(discrete - expected) / expected < 0.01


def test_step_and_bimodal_masses():
    step = gen_topic(100, PiecewiseRate(1.0, 0.0, 30), seed=0)
    assert step.total_relevant == 30
    bimodal = gen_topic(100, PiecewiseRate(1.0, 0.0, 40), seed=0)
    assert bimodal.total_relevant == 40


def test_exponential_rate_overflow_clips_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        topic = gen_topic(500, ExponentialRate(0.5, 2.0), seed=0)
    assert topic.total_relevant == 500


def test_families_map_onto_two_shapes():
    args = {"d": 0.5, "k": -0.01, "p": 0.2, "p1": 0.3, "p2": 0.05, "cutoff": 4}
    expected = {
        "exponential": 0.5 * np.exp(-0.01 * np.arange(1, 11)),
        "uniform": [0.2] * 10,
        "step": [0.2] * 4 + [0.0] * 6,
        "bimodal": [0.3] * 4 + [0.05] * 6,
    }
    assert list(FAMILIES) == ["exponential", "uniform", "step", "bimodal"]
    for name, probs in expected.items():
        rate = FAMILIES[name](args)
        shape = ExponentialRate if name == "exponential" else PiecewiseRate
        assert type(rate) is shape
        assert np.array_equal(rate.probabilities(10), probs), name


def test_invalid_family_parameters():
    with pytest.raises(ValueError):
        PiecewiseRate(1.5, 1.5, 0)
    with pytest.raises(ValueError):
        ExponentialRate(-1.0, 0.0)
    with pytest.raises(ValueError):
        PiecewiseRate(0.5, 0.0, -1)


def _coverage(family, n, trials, seed=0):
    """Share of trials, drawn with seeds seed..seed+trials-1, whose bound covers."""
    params = MethodParams()
    covered = sum(
        bound_covers(gen_topic(n, family, seed=seed + t), params) for t in range(trials)
    )
    return covered / trials


def test_coverage_degenerate_rate():
    assert _coverage(PiecewiseRate(0.0, 0.0, 0), 200, 100) == 1.0


def test_coverage_step_family_reports_fraction():
    coverage = _coverage(PiecewiseRate(0.5, 0.0, 50), 500, 100, seed=2)
    assert 0.0 <= coverage <= 1.0
