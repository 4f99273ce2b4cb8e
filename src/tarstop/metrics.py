"""Per-topic and aggregate evaluation of stopping outcomes.

Covers recall, acceptability, reliability, percentage of effort saved, the
normalized area under the cumulative recall curve (AURC), and AURC-based
stratification of runs.
"""

from __future__ import annotations

from tarstop.core import Run, StopOutcome, Topic, rel_at


def recall_of(outcome: StopOutcome, topic: Topic) -> float:
    """Fraction of the topic's relevant documents inside the examined set."""
    total = topic.total_relevant
    if total < 1:
        raise ValueError(f"topic {topic.topic_id!r} has no relevant documents")
    return rel_at(topic, outcome.stop_rank) / total


def acceptability(outcome: StopOutcome, topic: Topic, target_recall: float) -> int:
    """1 iff the stopped review reached the target recall (non-strict)."""
    return 1 if recall_of(outcome, topic) >= target_recall else 0


def reliability(acceptable_flags: list[int]) -> float:
    """Fraction of topics whose outcome is acceptable."""
    if not acceptable_flags:
        raise ValueError("reliability of an empty topic set is undefined")
    return sum(1 for a in acceptable_flags if a) / len(acceptable_flags)


def pct_effort_saved(efforts: list[tuple[int, int]]) -> float:
    """Mean per-topic percentage of documents that went unexamined.

    Takes one (effort, topic size) pair per topic.  Per-topic saved
    fractions are floored at 0 (extra samples can push effort past the
    topic size).
    """
    if not efforts:
        raise ValueError("pct_effort_saved of an empty set is undefined")
    saved = [max(0.0, (size - effort) / size) for effort, size in efforts]
    return 100.0 * sum(saved) / len(saved)


def aurc(topic: Topic) -> float:
    """Area under the cumulative recall curve, normalized by the optimal area.

    Unit-step sum of recall after each judged document; the optimal area is
    that of the ranking placing all relevant documents first.
    """
    total = topic.total_relevant
    n = topic.size
    if total < 1:
        raise ValueError(f"topic {topic.topic_id!r} has no relevant documents")
    # Exact integer sums: cumrel over ranks 1..n, and min(r, total) over the
    # same ranks in closed form.
    area = int(topic.cumrel[1:].sum()) / total
    optimal = (total * (total + 1) // 2 + (n - total) * total) / total
    return area / optimal


def mean_aurc(run: Run) -> float:
    """Mean AURC over a run's topics."""
    return sum(aurc(t) for t in run.topics) / len(run.topics)


def stratify_runs(
    scored: list[tuple[Run, float]],
) -> tuple[list[tuple[Run, float]], ...]:
    """Split (run, mean AURC) pairs into the top, middle and bottom five.

    The middle five are centered on the 1-based median position of the
    AURC-sorted list; ties break lexicographically by run_tag.
    """
    if len(scored) < 15:
        raise ValueError("stratification needs at least 15 runs")
    ranked = sorted(scored, key=lambda pair: (-pair[1], pair[0].run_tag))
    median_pos = (len(ranked) + 1) // 2  # 1-based
    mid_start = median_pos - 3  # 0-based start of the centered window
    return ranked[:5], ranked[mid_start : mid_start + 5], ranked[-5:]
