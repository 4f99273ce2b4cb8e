import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_topic
from tarstop.core import Run, StopOutcome
from tarstop.metrics import (
    acceptability,
    aurc,
    mean_aurc,
    pct_effort_saved,
    recall_of,
    reliability,
    stratify_runs,
)


def outcome(stop_rank, extra=0, predicted=True):
    return StopOutcome(stop_rank, extra, predicted)


def test_recall_of_simple():
    topic = make_topic("t", set(range(1, 11)), 20)
    assert recall_of(outcome(7), topic) == pytest.approx(0.7)


def test_recall_of_full_review():
    topic = make_topic("t", {3, 9}, 10)
    assert recall_of(outcome(10), topic) == 1.0


def test_recall_of_rejects_zero_relevant():
    topic = make_topic("t", set(), 5)
    with pytest.raises(ValueError):
        recall_of(outcome(5), topic)


def test_acceptability_boundary_non_strict():
    topic = make_topic("t", set(range(1, 11)), 20)
    assert acceptability(outcome(7), topic, 0.7) == 1


def test_acceptability_below():
    topic = make_topic("t", set(range(1, 1001)), 2000)
    assert acceptability(outcome(699), topic, 0.7) == 0


def test_acceptability_full_recall():
    topic = make_topic("t", {1}, 5)
    assert acceptability(outcome(1), topic, 1.0) == 1


def test_reliability_values():
    assert reliability([True] * 19 + [False]) == pytest.approx(0.95)
    assert reliability([True] * 5) == 1.0
    assert reliability([True] * 29 + [False]) == pytest.approx(29 / 30)


def test_pct_effort_saved_full_reviews():
    assert pct_effort_saved([(100, 100)] * 3) == 0.0


def test_pct_effort_saved_single():
    assert pct_effort_saved([(30, 100)]) == pytest.approx(70.0)


def test_pct_effort_saved_mean_of_fractions():
    assert pct_effort_saved([(50, 100), (100, 200)]) == pytest.approx(50.0)


def test_pct_effort_saved_floors_extras():
    # Effort 15 on a 10-document topic: 10 ranks plus 5 extra samples.
    assert pct_effort_saved([(15, 10)]) == 0.0


def test_aurc_perfect_ranking():
    topic = make_topic("t", {1, 2, 3}, 10)
    assert aurc(topic) == 1.0


def test_aurc_hand_examples():
    topic = make_topic("t", {3, 4}, 4)
    assert aurc(topic) == pytest.approx(1.5 / 3.5, abs=1e-9)
    topic2 = make_topic("t", {2}, 2)
    assert aurc(topic2) == pytest.approx(0.5, abs=1e-9)


@given(st.sets(st.integers(1, 60), min_size=1), st.integers(0, 40))
def test_aurc_matches_unit_step_sum(relevant, tail):
    # Reference: the per-rank sums aurc is defined by, in exact integers.
    n = max(relevant) + tail
    total = len(relevant)
    cumrel = [sum(1 for r in relevant if r <= rank) for rank in range(1, n + 1)]
    area = sum(cumrel) / total
    optimal = sum(min(rank, total) for rank in range(1, n + 1)) / total
    assert aurc(make_topic("t", relevant, n)) == area / optimal


def test_aurc_reversal_never_increases():
    topic = make_topic("t", {1, 2, 5}, 8)
    reversed_topic = make_topic(
        "t", {8 + 1 - r for r in {1, 2, 5}}, 8
    )
    assert aurc(reversed_topic) <= aurc(topic)


def _run_with_aurc(tag, good):
    # Relevant-first topics score 1.0; relevant-last score lower.
    topic = make_topic("x", {1, 2} if good else {7, 8}, 8)
    return Run(tag, (topic,))


def _stratify(runs):
    """Groups of runs from stratify_runs over each run's mean AURC."""
    groups = stratify_runs([(run, mean_aurc(run)) for run in runs])
    return tuple([run for run, _ in group] for group in groups)


def test_stratify_15_runs():
    runs = [_run_with_aurc(f"r{i:02d}", good=i < 8) for i in range(15)]
    top, middle, bottom = _stratify(runs)
    assert [len(g) for g in (top, middle, bottom)] == [5, 5, 5]
    ranked = sorted(runs, key=lambda r: (-mean_aurc(r), r.run_tag))
    assert top == ranked[:5]
    assert middle == ranked[5:10]
    assert bottom == ranked[10:]


def test_stratify_33_runs_middle_window():
    runs = [_run_with_aurc(f"r{i:02d}", good=i % 2 == 0) for i in range(33)]
    ranked = sorted(runs, key=lambda r: (-mean_aurc(r), r.run_tag))
    _, middle, _ = _stratify(runs)
    assert middle == ranked[14:19]  # 1-based positions 15..19


def test_stratify_ties_break_by_tag():
    runs = [_run_with_aurc(f"r{i:02d}", good=True) for i in range(15)]
    top, middle, bottom = _stratify(runs)
    tags = [r.run_tag for r in top + middle + bottom]
    assert tags == sorted(tags)


def test_stratify_requires_15():
    runs = [_run_with_aurc(f"r{i}", good=True) for i in range(14)]
    with pytest.raises(ValueError):
        _stratify(runs)
