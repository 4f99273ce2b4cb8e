import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_topic
from tarstop.core import MethodParams, rel_at
from tarstop.methods import (
    _knee_candidate,
    knee_stop,
    oracle_stop,
    poisson_stop,
    target_stop,
)
from tarstop.metrics import recall_of
from tarstop.simulate import ExponentialRate, gen_topic

DEFAULTS = MethodParams()


def test_poisson_gamma_gate_full_review():
    topic = make_topic("t", set(), 500)
    outcome = poisson_stop(topic, DEFAULTS)
    assert outcome.stop_rank == 500
    assert not outcome.predicted
    assert outcome.effort == 500


def test_poisson_gamma_gate_preserves_recall():
    topic = make_topic("t", {450, 480, 499}, 500)  # all relevant in the tail
    outcome = poisson_stop(topic, DEFAULTS)
    assert not outcome.predicted
    assert recall_of(outcome, topic) == 1.0


def test_poisson_synthetic_golden():
    # frozen from the first converged build of this loop
    topic = gen_topic(2000, ExponentialRate(0.5, -0.005), seed=1)
    outcome = poisson_stop(topic, DEFAULTS)
    assert outcome.stop_rank == 600
    assert outcome.relevant_found == 98
    assert outcome.predicted
    assert recall_of(outcome, topic) >= 0.7


def test_poisson_stops_at_initial_sample_when_quota_met():
    # Steep decay: the initial sample already holds the required count.
    topic = gen_topic(1000, ExponentialRate(0.9, -0.02), seed=5)
    outcome = poisson_stop(topic, DEFAULTS)
    assert outcome.predicted
    assert outcome.stop_rank == 300  # ceil(0.3 * 1000)
    assert outcome.relevant_found == rel_at(topic, 300)


def test_target_exhaustion_full_review():
    topic = make_topic("t", {2, 5}, 50)
    outcome = target_stop(topic, DEFAULTS, seed=0)
    assert outcome.stop_rank == 50
    assert not outcome.predicted
    assert outcome.extra_examined == 0


def test_target_stops_at_max_sampled_relevant():
    # Every document relevant: the first 10 samples are the target set.
    topic = make_topic("t", set(range(1, 101)), 100)
    outcome = target_stop(topic, DEFAULTS, seed=3)
    assert outcome.predicted
    assert rel_at(topic, outcome.stop_rank) >= 10


def test_target_seeded_golden():
    # frozen from the first converged build
    topic = gen_topic(500, ExponentialRate(0.4, -0.01), seed=123)
    outcome = target_stop(topic, DEFAULTS, seed=7)
    assert (
        outcome.stop_rank,
        outcome.extra_examined,
        outcome.relevant_found,
        outcome.predicted,
    ) == (222, 99, 34, True)


def test_target_deterministic_per_seed():
    topic = gen_topic(300, ExponentialRate(0.3, -0.008), seed=9)
    assert target_stop(topic, DEFAULTS, seed=11) == target_stop(
        topic, DEFAULTS, seed=11
    )


def test_knee_flat_curve_full_review():
    topic = make_topic("t", set(), 100)
    outcome = knee_stop(topic, DEFAULTS)
    assert outcome.stop_rank == 100
    assert not outcome.predicted


def test_knee_threshold_formula():
    for rel in range(0, 301):
        threshold = DEFAULTS.epsilon + 6 - min(rel, DEFAULTS.epsilon)
        if rel >= 150:
            assert threshold == 6
        else:
            assert threshold == 156 - rel


def test_knee_convex_golden():
    # 50 relevant at odd ranks 1..100, none after; frozen from the first build.
    topic = make_topic(
        "convex", {i for i in range(1, 101) if i % 2 == 1}, 1000
    )
    outcome = knee_stop(topic, MethodParams(epsilon=50))
    assert outcome.predicted
    assert outcome.stop_rank == 300  # first batch boundary (alpha sample)
    assert recall_of(outcome, topic) == 1.0


def test_knee_candidate_degenerate():
    import numpy as np

    assert _knee_candidate(np.array([2.0])) is None
    assert _knee_candidate(np.array([3.0, 3.0, 3.0])) is None


def test_oracle_first_ranks():
    topic = make_topic("t", set(range(1, 11)), 50)
    assert oracle_stop(topic, DEFAULTS).stop_rank == 7


def test_oracle_ceiling_effect():
    topic = make_topic("t", {5, 500}, 600)
    assert oracle_stop(topic, DEFAULTS).stop_rank == 500  # needs ceil(1.4) = 2


def test_oracle_deep_tail():
    topic = make_topic("t", {1, 2, 3000}, 3000)
    assert oracle_stop(topic, DEFAULTS).stop_rank == 3000  # needs ceil(2.1) = 3


def test_oracle_rejects_zero_relevant():
    topic = make_topic("t", set(), 10)
    with pytest.raises(ValueError):
        oracle_stop(topic, DEFAULTS)


def _target_reference(topic, params, seed):
    """(stop_rank, extra, found, predicted) from one draw at a time."""
    rng = random.Random(seed)
    order = list(range(1, topic.size + 1))
    rng.shuffle(order)
    found, examined = [], []
    for pos in order:
        examined.append(pos)
        if topic.relevant[pos - 1]:
            found.append(pos)
            if len(found) == params.target_count:
                break
    else:
        return topic.size, 0, topic.total_relevant, False
    stop_rank = max(found)
    extra = sum(1 for pos in examined if pos > stop_rank)
    return stop_rank, extra, rel_at(topic, stop_rank), True


@given(
    st.sets(st.integers(1, 80)),
    st.integers(1, 80),
    st.integers(1, 12),
    st.integers(0, 2**32),
)
def test_target_stop_matches_sequential_draws(relevant, n, target_count, seed):
    topic = make_topic("t", {r for r in relevant if r <= n}, n)
    params = MethodParams(target_count=target_count)
    outcome = target_stop(topic, params, seed)
    assert (
        outcome.stop_rank,
        outcome.extra_examined,
        outcome.relevant_found,
        outcome.predicted,
    ) == _target_reference(topic, params, seed)


def test_outcomes_hold_python_ints():
    topic = gen_topic(800, ExponentialRate(0.4, -0.004), seed=4)
    outcomes = [
        poisson_stop(topic, DEFAULTS),
        knee_stop(topic, DEFAULTS),
        target_stop(topic, DEFAULTS, seed=0),
        oracle_stop(topic, DEFAULTS),
    ]
    for outcome in outcomes:
        counts = (outcome.stop_rank, outcome.extra_examined, outcome.relevant_found)
        assert all(type(count) is int for count in counts), outcome


def test_prefix_methods_report_prefix_relevant():
    topic = gen_topic(800, ExponentialRate(0.4, -0.004), seed=4)
    for method in (poisson_stop, knee_stop):
        outcome = method(topic, DEFAULTS)
        assert outcome.relevant_found == rel_at(topic, outcome.stop_rank)
        assert outcome.extra_examined == 0
