"""Parsing of run and qrels files into Runs and Topics.

Run files carry 6 whitespace-separated columns
(``topic_id flag doc_id rank score run_tag``); qrels carry 4
(``topic_id unused doc_id label``), with label > 0 meaning relevant.
"""

from __future__ import annotations

import itertools
import logging
import operator
from dataclasses import dataclass, field
from typing import Iterable, TextIO

import numpy as np

from tarstop.core import Run, Topic
from tarstop.errors import ParseError, ValidationError

logger = logging.getLogger(__name__)

# Ranks are held as int64.
_MAX_RANK = np.iinfo(np.int64).max

# Lines of a run file that parse_run reads and converts at once.  Measured
# on 100k-line runs, 256 to 1,024 lines parsed fastest; from 2,048 lines up,
# blocks were slower than converting the whole file at once.
_BLOCK_LINES = 512

# Sanity statistics of the CLEF 2017 e-Health Task 2 test collection.
CLEF2017_STATS = {
    "topic_count": 30,
    "total_docs": 117_562,
    "size_min": 64,
    "size_max": 12_807,
    "size_median": 2_070,
    "relevant_min": 2,
    "relevant_max": 460,
    "relevant_median": 38,
    "relevant_fraction": 0.0158,
}


def _line_of(row: int, blank_lines: list[int]) -> int:
    """1-based line number of the given 0-based non-blank row."""
    line_no = row + 1
    for blank in blank_lines:  # ascending
        if blank > line_no:
            break
        line_no += 1
    return line_no


def _check_numbers(
    rank_col: list[str], score_col: list[str], row0: int, blank_lines: list[int]
) -> None:
    """Raise a ParseError naming the first row whose rank or score is bad.

    ``row0`` is the run-wide row of the first entry of the columns.
    """
    for row, (rank_s, score_s) in enumerate(zip(rank_col, score_col), row0):
        try:
            rank = int(rank_s)
            float(score_s)
        except ValueError as exc:
            raise ParseError(
                f"bad rank/score: {exc}", _line_of(row, blank_lines)
            ) from exc
        if rank < 1:
            raise ParseError(
                f"rank must be >= 1, got {rank}", _line_of(row, blank_lines)
            )
        if rank > _MAX_RANK:
            raise ParseError(f"rank too large: {rank}", _line_of(row, blank_lines))


def _doc_order(doc_ids: list[str]) -> np.ndarray:
    """Position of each doc_id in Python string order."""
    by_id = sorted(range(len(doc_ids)), key=doc_ids.__getitem__)
    order = np.empty(len(doc_ids), dtype=np.int64)
    order[by_id] = np.arange(len(doc_ids))
    return order


def _ranked_topic(
    run_tag: str,
    topic_id: str,
    doc_ids: list[str],
    ranks: np.ndarray,
    scores: np.ndarray,
) -> Topic:
    """An unlabeled Topic in (rank, -score, doc_id) order."""
    if np.any(ranks[1:] <= ranks[:-1]):
        order = np.lexsort((_doc_order(doc_ids), -scores, ranks))
        ranks = ranks[order]
        doc_ids = [doc_ids[i] for i in order.tolist()]
    if not np.array_equal(ranks, np.arange(1, len(ranks) + 1)):
        logger.warning(
            "run %s topic %s: non-contiguous ranks repaired by re-ranking",
            run_tag,
            topic_id,
        )
    return Topic(topic_id, tuple(doc_ids), np.zeros(len(doc_ids), dtype=bool))


def parse_run(lines: Iterable[str] | TextIO) -> Run:
    """Parse a run file into a Run of unlabeled Topics.

    Documents are ordered by ascending rank (ties broken by descending score
    then doc_id); non-contiguous ranks are repaired by re-ranking in sorted
    order, with a warning.  Topics keep the order of their first line.

    Lines are read in blocks of ``_BLOCK_LINES``.  A block's rank, score
    and topic columns are converted to arrays at once and its strings
    dropped, so beside the result only one block of strings, the doc ids
    and a few numbers per line are held.  A ParseError names the first bad
    line by its number.
    """
    doc_col: list[str] = []
    blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    first_rows: dict[str, int] = {}
    blank_lines: list[int] = []
    run_tag = None
    numbered = enumerate(lines, start=1)
    while block := list(itertools.islice(numbered, _BLOCK_LINES)):
        topic_col: list[str] = []
        rank_col: list[str] = []
        score_col: list[str] = []
        row0 = len(doc_col)
        for line_no, line in block:
            try:
                topic_id, _, doc_id, rank_s, score_s, tag = line.split()
            except ValueError:
                fields = line.split()
                if not fields:
                    blank_lines.append(line_no)
                    continue
                _check_numbers(rank_col, score_col, row0, blank_lines)
                raise ParseError(
                    f"expected 6 fields, got {len(fields)}: {line!r}", line_no
                ) from None
            topic_col.append(topic_id)
            doc_col.append(doc_id)
            rank_col.append(rank_s)
            score_col.append(score_s)
            if run_tag is None:
                run_tag = tag
        if not rank_col:
            continue
        n = len(rank_col)
        try:
            ranks = np.fromiter(map(int, rank_col), dtype=np.int64, count=n)
            scores = np.fromiter(map(float, score_col), dtype=np.float64, count=n)
        except (ValueError, OverflowError):
            ranks = None
        if ranks is None or ranks.min() < 1:
            _check_numbers(rank_col, score_col, row0, blank_lines)  # raises
        # Row of each topic's first line: sorting rows by it groups the
        # topics in the order they first appear.
        group = np.fromiter(
            map(first_rows.setdefault, topic_col, itertools.count(row0)),
            dtype=np.int64,
            count=n,
        )
        blocks.append((ranks, scores, group))
    if run_tag is None:
        raise ParseError("empty run file")
    ranks, scores, group = (np.concatenate(col) for col in zip(*blocks))
    del blocks

    n = len(doc_col)
    if np.any(group[1:] < group[:-1]):  # topics interleaved
        rows = np.argsort(group, kind="stable")
        group, ranks, scores = group[rows], ranks[rows], scores[rows]
        doc_col = [doc_col[i] for i in rows.tolist()]
    ends = [*(np.flatnonzero(group[1:] != group[:-1]) + 1).tolist(), n]

    topics = []
    lo = 0
    for topic_id, hi in zip(first_rows, ends):
        topics.append(
            _ranked_topic(
                run_tag, topic_id, doc_col[lo:hi], ranks[lo:hi], scores[lo:hi]
            )
        )
        lo = hi
    return Run(run_tag=run_tag, topics=tuple(topics))


def serialize_run(run: Run) -> list[str]:
    """Render a Run back to run-file lines (score = 1/rank, flag = 'NF')."""
    lines = []
    for topic in run.topics:
        for i, doc_id in enumerate(topic.doc_ids, start=1):
            lines.append(
                f"{topic.topic_id} NF {doc_id} {i} {1.0 / i:.6f} {run.run_tag}"
            )
    return lines


# topic_id -> doc_id -> integer label, as parse_qrels returns them.
Qrels = dict[str, dict[str, int]]


def parse_qrels(lines: Iterable[str] | TextIO) -> Qrels:
    """Parse a qrels file into ``{topic_id: {doc_id: label}}``, in one pass.

    A label > 0 means relevant.  The same (topic, doc) pair may repeat only
    with the same label.
    """
    qrels: Qrels = {}
    for line_no, line in enumerate(lines, start=1):
        parts = line.split()
        if len(parts) != 4:
            if not parts:
                continue
            raise ParseError(
                f"expected 4 fields, got {len(parts)}: {line!r}", line_no
            )
        topic_id, _, doc_id, label_s = parts
        try:
            label = int(label_s)
        except ValueError as exc:
            raise ParseError(f"bad label: {exc}", line_no) from exc
        labels = qrels.get(topic_id)
        if labels is None:
            labels = qrels[topic_id] = {}
        if labels.setdefault(doc_id, label) != label:
            raise ValidationError(
                f"conflicting labels for topic {topic_id!r} doc {doc_id!r}"
            )
    return qrels


def join(run: Run, qrels: Qrels) -> Run:
    """Attach relevance flags from qrels; order, membership and ids are unchanged.

    A document absent from the qrels is treated as non-relevant (counted and
    logged once per topic).
    """
    topics = []
    for topic in run.topics:
        labels = qrels.get(topic.topic_id)
        if labels is None:
            raise ValidationError(
                f"topic {topic.topic_id!r} missing from qrels"
            )
        # Each document's label, None when it is not judged.
        found = list(map(labels.get, topic.doc_ids))
        missing_count = found.count(None)
        if missing_count:
            logger.warning(
                "run %s topic %s: %d of %d documents not in the qrels, "
                "treated as non-relevant",
                run.run_tag,
                topic.topic_id,
                missing_count,
                topic.size,
            )
            found = [0 if label is None else label for label in found]
        relevant = np.fromiter(
            map(operator.gt, found, itertools.repeat(0)), dtype=bool, count=topic.size
        )
        topics.append(Topic(topic.topic_id, topic.doc_ids, relevant))
    return Run(run_tag=run.run_tag, topics=tuple(topics))


def serialize_qrels(topics: Iterable[Topic]) -> list[str]:
    """Render topics' relevance labels as qrels lines."""
    lines = []
    for topic in topics:
        for doc_id, rel in zip(topic.doc_ids, topic.relevant.tolist()):
            lines.append(f"{topic.topic_id} 0 {doc_id} {1 if rel else 0}")
    return lines


@dataclass
class ValidationSummary:
    """Dataset statistics with pass/warn checks against the published figures."""

    topic_count: int
    total_docs: int
    size_min: int
    size_max: int
    size_median: float
    relevant_min: int
    relevant_max: int
    relevant_median: float
    relevant_fraction: float
    checks: list[tuple[str, str]] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "topic_count": self.topic_count,
            "total_docs": self.total_docs,
            "size_min": self.size_min,
            "size_max": self.size_max,
            "size_median": self.size_median,
            "relevant_min": self.relevant_min,
            "relevant_max": self.relevant_max,
            "relevant_median": self.relevant_median,
            "relevant_fraction": self.relevant_fraction,
            "checks": [list(c) for c in self.checks],
        }


def _median(values: list[int]) -> float:
    values = sorted(values)
    m = len(values) // 2
    if len(values) % 2:
        return float(values[m])
    return (values[m - 1] + values[m]) / 2.0


def validate_dataset(
    runs: list[Run], qrels: Qrels
) -> ValidationSummary:
    """Summarize topic sizes and relevant counts, checking the known figures.

    Mismatches against the published collection statistics are reported as
    warnings in ``checks``, never as errors; synthetic datasets simply fail
    every check with a 'warn'.
    """
    if not runs:
        raise ValidationError("no runs to validate")
    topics = runs[0].topics
    sizes = [t.size for t in topics]
    joined = join(runs[0], qrels)
    relevant = [t.total_relevant for t in joined.topics]

    summary = ValidationSummary(
        topic_count=len(topics),
        total_docs=sum(sizes),
        size_min=min(sizes),
        size_max=max(sizes),
        size_median=_median(sizes),
        relevant_min=min(relevant),
        relevant_max=max(relevant),
        relevant_median=_median(relevant),
        relevant_fraction=sum(relevant) / sum(sizes),
    )
    expected = CLEF2017_STATS
    checks = [
        ("topic_count", summary.topic_count == expected["topic_count"]),
        ("total_docs", summary.total_docs == expected["total_docs"]),
        ("size_min", summary.size_min == expected["size_min"]),
        ("size_max", summary.size_max == expected["size_max"]),
        ("size_median", summary.size_median == expected["size_median"]),
        ("relevant_min", summary.relevant_min == expected["relevant_min"]),
        ("relevant_max", summary.relevant_max == expected["relevant_max"]),
        ("relevant_median", summary.relevant_median == expected["relevant_median"]),
        (
            "relevant_fraction",
            abs(summary.relevant_fraction - expected["relevant_fraction"]) < 5e-4,
        ),
    ]
    summary.checks = [(name, "pass" if ok else "warn") for name, ok in checks]
    return summary
