import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_topic
from tarstop.core import MethodParams, Run, Topic, rel_at
from tarstop.errors import ValidationError


def test_rel_at_counts_prefix():
    topic = make_topic("t", {1, 3}, 5)
    assert rel_at(topic, 2) == 1


def test_rel_at_empty_prefix_is_zero():
    topic = make_topic("t", {1, 3}, 5)
    assert rel_at(topic, 0) == 0


def test_rel_at_full_prefix_equals_total():
    topic = make_topic("t", {2, 4, 5}, 5)
    assert rel_at(topic, 5) == 3 == topic.total_relevant


def test_rel_at_rejects_out_of_range():
    topic = make_topic("t", {1}, 3)
    with pytest.raises(ValueError):
        rel_at(topic, 4)
    with pytest.raises(ValueError):
        rel_at(topic, -1)


def test_topic_rejects_empty():
    with pytest.raises(ValidationError):
        Topic("t", [])


def test_topic_copies_and_freezes_labels():
    labels = np.array([False, True, True])
    topic = Topic("t", labels)
    labels[0] = True
    assert topic.relevant.tolist() == [False, True, True]
    assert topic.cumrel.tolist() == [0, 0, 1, 2]
    assert not topic.relevant.flags.writeable
    assert not topic.cumrel.flags.writeable


def test_run_rejects_duplicate_topic_ids():
    t = make_topic("t", {1}, 2)
    with pytest.raises(ValidationError):
        Run("r", (t, t))


@given(st.sets(st.integers(1, 50)), st.integers(1, 50))
def test_rel_at_monotone_unit_steps(relevant, n):
    topic = make_topic("t", {r for r in relevant if r <= n}, n)
    values = [rel_at(topic, r) for r in range(n + 1)]
    for prev, cur in zip(values, values[1:]):
        assert cur - prev in (0, 1)
    assert values[-1] == topic.total_relevant


@pytest.mark.parametrize(
    "kwargs",
    [
        {"target_recall": 0.0},
        {"target_recall": 1.5},
        {"confidence": 1.0},
        {"alpha_frac": 0.01, "beta_frac": 0.05},
        {"gamma": 0},
        {"delta": 0.0},
    ],
)
def test_method_params_invariants(kwargs):
    with pytest.raises(ValidationError):
        MethodParams(**kwargs)


def test_method_params_defaults():
    p = MethodParams()
    assert (p.target_recall, p.confidence) == (0.7, 0.95)
    assert (p.alpha_frac, p.beta_frac) == (0.3, 0.05)
    assert (p.gamma, p.delta) == (20, 0.7)
    assert (p.target_count, p.epsilon) == (10, 150)
