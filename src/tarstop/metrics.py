"""Per-topic and aggregate evaluation of stopping outcomes.

Covers recall, acceptability, reliability, percentage of effort saved, the
normalized area under the cumulative recall curve (AURC), and AURC-based
stratification of runs, and the records of report.jsonl and stratify.jsonl
built from these figures.
"""

from __future__ import annotations

import zlib

from tarstop.config import MethodParams
from tarstop.core import Run, StopOutcome, Topic, rel_at
from tarstop.methods import RULES


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


def stratify_runs(scores: dict[str, float]) -> tuple[list[str], ...]:
    """Split {run_tag: mean AURC} into the top, middle and bottom five tags.

    The middle five are centered on the 1-based median position of the
    AURC-sorted list; ties break lexicographically by run_tag.
    """
    if len(scores) < 15:
        raise ValueError("stratification needs at least 15 runs")
    ranked = sorted(scores, key=lambda tag: (-scores[tag], tag))
    median_pos = (len(ranked) + 1) // 2  # 1-based
    mid_start = median_pos - 3  # 0-based start of the centered window
    return ranked[:5], ranked[mid_start : mid_start + 5], ranked[-5:]


def _topic_seed(base: int, run_tag: str, topic_id: str) -> int:
    """Stable per-(run, topic) seed for the randomized target method."""
    return base * 1_000_003 + zlib.crc32(f"{run_tag}:{topic_id}".encode())


def topic_records(
    run: Run, method: str, params: MethodParams, seed: int
) -> list[dict]:
    """One method's topic records on a run, in topic_id order."""
    records = []
    for topic in sorted(run.topics, key=lambda t: t.topic_id):
        outcome = RULES[method](
            topic, params, _topic_seed(seed, run.run_tag, topic.topic_id)
        )
        records.append(
            {
                "record": "topic",
                "run": run.run_tag,
                "method": method,
                "topic_id": topic.topic_id,
                "n": topic.size,
                "stop_rank": outcome.stop_rank,
                "extra_examined": outcome.extra_examined,
                "effort": outcome.effort,
                "relevant_found": rel_at(topic, outcome.stop_rank),
                "recall": round(recall_of(outcome, topic), 10),
                "acceptable": acceptability(outcome, topic, params.target_recall),
                "predicted": outcome.predicted,
            }
        )
    return records


def build_report(runs: dict[str, dict[str, list[dict]]]) -> list[dict]:
    """The records of report.jsonl, from run tag -> method -> topic records.

    Runs come in run-tag order, each as its topic records followed by its
    run record, method by method; one aggregate record per method closes
    the list.  Methods keep the order of the first run's mapping.
    """
    if not runs:
        raise ValueError("a report on no runs is undefined")
    methods = list(next(iter(runs.values())))
    records: list[dict] = []
    summaries: dict[str, list[dict]] = {m: [] for m in methods}
    for tag in sorted(runs):
        for method in methods:
            topics = runs[tag][method]
            summary = {
                "total_effort": sum(t["effort"] for t in topics),
                "reliability": reliability([t["acceptable"] for t in topics]),
                "mean_pct_effort_saved": pct_effort_saved(
                    [(t["effort"], t["n"]) for t in topics]
                ),
            }
            summaries[method].append(summary)
            records += topics
            records.append(
                {
                    "record": "run",
                    "run": tag,
                    "method": method,
                    "topic_count": len(topics),
                    **{key: round(value, 10) for key, value in summary.items()},
                }
            )
    for method, figs in summaries.items():
        flags = [t["acceptable"] for run in runs.values() for t in run[method]]
        records.append(
            {
                "record": "aggregate",
                "method": method,
                "run_count": len(figs),
                "mean_effort": round(
                    sum(f["total_effort"] for f in figs) / len(figs), 10
                ),
                "mean_pct_effort_saved": round(
                    sum(f["mean_pct_effort_saved"] for f in figs) / len(figs), 10
                ),
                "reliability": round(reliability(flags), 10),
            }
        )
    return records


def build_stratify_report(
    scores: dict[str, float], runs: dict[str, dict[str, list[dict]]]
) -> list[dict]:
    """The records of stratify.jsonl, from {run_tag: mean AURC} and topic records.

    A run_aurc record per run and a sanity_band record each for the top and
    bottom five (against their AURC ranges on CLEF 2017) precede each
    group's build_report records, marked with the group's name.
    """
    groups = dict(zip(("top", "middle", "bottom"), stratify_runs(scores)))
    records = [
        {"record": "run_aurc", "run": tag, "mean_aurc": round(scores[tag], 10)}
        for tag in sorted(scores)
    ]
    for name, lo, hi in (("top", 0.91, 0.94), ("bottom", 0.46, 0.62)):
        band = sorted(scores[tag] for tag in groups[name])
        records.append(
            {
                "record": "sanity_band",
                "group": name,
                "lo": round(band[0], 10),
                "hi": round(band[-1], 10),
                "status": "pass" if lo <= band[0] and band[-1] <= hi else "warn",
            }
        )
    for name, tags in groups.items():
        for record in build_report({tag: runs[tag] for tag in tags}):
            records.append({**record, "group": name})
    return records
