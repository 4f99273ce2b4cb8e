import math

import numpy as np
import pytest

from tarstop.core import MethodParams
from tarstop.poisson import RateModel, lambda_integral
from tarstop.simulate import (
    BimodalRate,
    ExponentialRate,
    StepRate,
    UniformRate,
    coverage_experiment,
    gen_topic,
    make_rate_family,
)


def test_uniform_zero_rate():
    topic = gen_topic(50, UniformRate(0.0), seed=1)
    assert topic.total_relevant == 0


def test_uniform_full_rate():
    topic = gen_topic(50, UniformRate(1.0), seed=1)
    assert topic.total_relevant == 50


def test_gen_topic_deterministic():
    family = ExponentialRate(0.5, -0.005)
    assert gen_topic(200, family, seed=3) == gen_topic(200, family, seed=3)
    assert gen_topic(200, family, seed=3) != gen_topic(200, family, seed=4)


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
    step = gen_topic(100, StepRate(1.0, 30), seed=0)
    assert step.total_relevant == 30
    bimodal = gen_topic(100, BimodalRate(1.0, 0.0, 40), seed=0)
    assert bimodal.total_relevant == 40


def test_invalid_family_parameters():
    with pytest.raises(ValueError):
        UniformRate(1.5)
    with pytest.raises(ValueError):
        ExponentialRate(-1.0, 0.0)
    with pytest.raises(ValueError):
        make_rate_family("nope", {})
    with pytest.raises(ValueError):
        make_rate_family("exponential", {"d": 0.5})


def test_coverage_degenerate_rate():
    coverage = coverage_experiment(UniformRate(0.0), 200, 100, MethodParams())
    assert coverage == 1.0


def test_coverage_requires_trials():
    with pytest.raises(ValueError):
        coverage_experiment(UniformRate(0.1), 200, 10, MethodParams())


def test_coverage_step_family_reports_fraction():
    coverage = coverage_experiment(StepRate(0.5, 50), 500, 100, MethodParams(), seed=2)
    assert 0.0 <= coverage <= 1.0
