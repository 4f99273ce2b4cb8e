"""Parsing of run and qrels files into labelled Runs and a qrels index.

Run files carry 6 whitespace-separated columns
(``topic_id flag doc_id rank score run_tag``); qrels carry 4
(``topic_id unused doc_id label``), with label > 0 meaning relevant.

Both are read from a file opened in binary mode, in chunks of whole
lines: ``_CHUNK_BYTES`` at a time, cut at the last line end, with
``\\r\\n`` and a lone ``\\r`` read as ``\\n``, as a text file reads them.
``blockreader.read_block`` reads a chunk that is simple (see that
module) with numpy; every other chunk goes through the per-line reader
here, which decodes it as UTF-8 and splits each line with ``str.split``,
``int`` and ``float``.  Both readers hand the same ``Rows`` to one
downstream, so a Run, its warnings and its errors do not depend on which
reader read a chunk; errors are always found and numbered by the
per-line reader.  A byte that is not UTF-8 is a ParseError naming its
line.

A doc id is held as its own UTF-8 bytes, NUL-padded: one 64-bit word
read big-endian when every id of the file fits in 8 bytes, else a ``V``
(raw bytes) array.  Either orders and compares as the ids' bytes do.  A
NUL byte in a doc id would read back as padding, so it is a ParseError.
``parse_qrels`` returns a ``QrelsIndex``, which keeps each topic's judged
ids sorted, with their relevance, and ``parse_run`` labels a run by a
binary search in them.
"""

from __future__ import annotations

import io
import itertools
import logging
from typing import IO, Iterator

import numpy as np

from tarstop.blockreader import Rows, read_block
from tarstop.core import Run, Topic
from tarstop.errors import ParseError, ValidationError

logger = logging.getLogger(__name__)

# Ranks and labels are held as int64.
_MAX_RANK = np.iinfo(np.int64).max

# Bytes read from a file at once.  A chunk costs some fifty numpy calls,
# so small chunks are slow, and at work it holds about 8 bytes per byte.
# On a 99,918-line run (median of 15, the sizes alternated in one process)
# 32 KiB took 111 ms, 64 KiB 67, 128 KiB 53 and 256 KiB 54; on a
# 120,000-line run, 128 KiB peak at 29 bytes a line beyond the Run and
# 256 KiB at 38 (tracemalloc), against a test bound of 40.
_CHUNK_BYTES = 1 << 17

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


def _chunks(source: IO[bytes]) -> Iterator[bytes]:
    """Chunks of whole lines, each ended by ``\\n`` but perhaps the file's last.

    The file, opened in binary mode, is read ``_CHUNK_BYTES`` at a time.
    """
    rest = b""
    while data := source.read(_CHUNK_BYTES):
        data = rest + data
        if b"\r" in data:
            # A \r at the end may start a \r\n: it waits for the next chunk.
            end = len(data) - data.endswith(b"\r")
            data = data[:end].replace(b"\r\n", b"\n").replace(b"\r", b"\n") + data[end:]
        cut = data.rfind(b"\n") + 1
        if cut:
            yield data[:cut]
        rest = data[cut:]
    if rest:
        yield rest.replace(b"\r", b"\n")


def _require_utf8(line: str, line_no: int) -> None:
    """Refuse a line holding a byte that is not valid UTF-8.

    Bytes decoded with ``errors="surrogateescape"`` turn each such byte
    into a lone surrogate, U+DC80..U+DCFF, which UTF-8 cannot encode.
    """
    try:
        line.encode()
    except UnicodeEncodeError as exc:
        byte = ord(line[exc.start]) - 0xDC00
        raise ParseError(
            f"invalid UTF-8: byte 0x{byte:x} at character {exc.start + 1}", line_no
        ) from exc


def _fields(line: str, line_no: int, fields: int) -> tuple | None:
    """A line's (topic, doc id, values, run tag), or None when it is blank.

    The values are a run line's (rank, score) or a qrels line's (label,),
    and only a run line has a tag.  A bad line is a ParseError.
    """
    if not line.isascii():
        _require_utf8(line, line_no)
    parts = line.split()
    if len(parts) != fields:
        if not parts:
            return None
        raise ParseError(f"expected {fields} fields, got {len(parts)}: {line!r}", line_no)
    if fields == 4:
        try:
            label = int(parts[3])
        except ValueError as exc:
            raise ParseError(f"bad label: {exc}", line_no) from exc
        if abs(label) > _MAX_RANK:
            raise ParseError(f"label too large: {label}", line_no)
        values, tag = (label,), None
    else:
        try:
            rank, score = int(parts[3]), float(parts[4])
        except ValueError as exc:
            raise ParseError(f"bad rank/score: {exc}", line_no) from exc
        if rank < 1:
            raise ParseError(f"rank must be >= 1, got {rank}", line_no)
        if rank > _MAX_RANK:
            raise ParseError(f"rank too large: {rank}", line_no)
        values, tag = (rank, score), parts[5]
    if "\0" in parts[2]:
        raise ParseError(f"doc id holds a NUL byte: {parts[2]!r}", line_no)
    return parts[0], parts[2], values, tag


def _split_block(
    chunk: bytes, first_line: int, fields: int
) -> tuple[Rows | None, ParseError | None]:
    """The per-line reader: a chunk's rows up to its first bad line, and its error.

    The rows are None when no line before the error has fields.
    ``first_line`` is the number of the chunk's first line.
    """
    rows, error = [], None
    text = chunk.decode("utf-8", "surrogateescape")
    for line_no, line in enumerate(io.StringIO(text, newline="\n"), first_line):
        try:
            row = _fields(line, line_no, fields)
        except ParseError as exc:
            error = exc
            break
        if row is not None:
            rows.append(row)
    if not rows:
        return None, error
    topics, doc_ids, values, tags = zip(*rows)
    stretches = [(topic, len(list(run))) for topic, run in itertools.groupby(topics)]
    return (
        Rows(
            topics=[topic for topic, _ in stretches],
            topic_ends=list(itertools.accumulate(n for _, n in stretches)),
            id_words=_id_words(doc_ids),
            values=tuple(
                np.array(column, dtype=dtype)
                for column, dtype in zip(zip(*values), (np.int64, np.float64))
            ),
            run_tag=tags[0],
        ),
        error,
    )


def _blocks(source: IO[bytes], fields: int) -> Iterator[Rows]:
    """The rows of each chunk of a file of ``fields``-field lines.

    A ParseError names the first bad line; it is raised after the rows of
    the lines before it.
    """
    first_line = 1
    for chunk in _chunks(source):
        read, error = read_block(chunk, fields), None
        if read is None:
            read, error = _split_block(chunk, first_line, fields)
        if read is not None:
            yield read
        if error is not None:
            raise error
        first_line += chunk.count(b"\n")


# Doc ids.  An id is stored as its UTF-8 bytes, NUL-padded to a fixed
# width; an id holds no NUL (``_fields`` refuses one), so it reads back,
# and compares, as itself.  The readers hand ids on as rows of 64-bit
# words, the bytes read big-endian and NUL-padded, so that words order as
# the ids do.


def _id_words(doc_ids: list[str]) -> np.ndarray:
    """The ids as rows of words (see above)."""
    raw = [doc_id.encode() for doc_id in doc_ids]
    width = -(-max(8, max(map(len, raw), default=0)) // 8) * 8
    array = np.array(raw, dtype=f"S{width}")
    return array.view(">u8").reshape(len(raw), width // 8).astype(np.uint64)


def _id_bytes(ids: np.ndarray, width: int = 8) -> np.ndarray:
    """Ids as NUL-padded bytes (V dtype) of at least ``width`` bytes.

    The ids are given as bytes, words or rows of words.  V bytes compare
    as ``memcmp`` does, in the order of NUL-padded S bytes, but sort
    faster: argsorting the 99,918 25-byte ids of a run took 27 ms, against
    46 ms as S (2 vCPUs).
    """
    if ids.dtype.kind != "V":
        words = ids if ids.ndim == 2 else ids[:, None]
        ids = words.astype(">u8").view(f"V{8 * words.shape[1]}").ravel()
    return ids.astype(f"V{max(width, ids.itemsize)}", copy=False)


def _common(ids: np.ndarray, other: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two topics' ids in one dtype: words if both are, else bytes of one width."""
    if ids.dtype == other.dtype:
        return ids, other
    width = max(ids.itemsize, other.itemsize)
    return _id_bytes(ids, width), _id_bytes(other, width)


def _id_strings(ids: np.ndarray) -> list[str]:
    """The doc ids as strings."""
    return [raw.rstrip(b"\0").decode() for raw in _id_bytes(ids).tolist()]


class _Columns:
    """A file's rows, chunk by chunk, as a doc id and values per row.

    A row takes 8 bytes for each value and its id's bytes, NUL-padded to
    the multiple of 8 that holds the chunk's longest id.
    """

    def __init__(self):
        self.topic_ids: dict[str, int] = {}  # in the order they first appear
        self.stretch_topics: list[int] = []  # each stretch of rows with one topic
        self.stretch_ends: list[int] = []
        # Ids (words, or bytes in a chunk with a longer id) and each value:
        # each column's arrays, one per chunk.
        self.columns: list[list[np.ndarray]] = []
        self.rows = 0
        self.run_tag: str | None = None

    def add(self, read: Rows) -> None:
        for topic_id, end in zip(read.topics, read.topic_ends):
            topic = self.topic_ids.setdefault(topic_id, len(self.topic_ids))
            if self.stretch_topics and self.stretch_topics[-1] == topic:
                self.stretch_ends[-1] = self.rows + end
            else:
                self.stretch_topics.append(topic)
                self.stretch_ends.append(self.rows + end)
        words = read.id_words
        ids = words[:, 0] if words.shape[1] == 1 else _id_bytes(words)
        arrays = (ids, *read.values)
        self.columns = self.columns or [[] for _ in arrays]
        for column, array in zip(self.columns, arrays):
            column.append(array)
        self.rows += len(ids)
        self.run_tag = self.run_tag or read.run_tag

    def by_topic(self) -> Iterator[tuple]:
        """Each topic's (topic_id, file rows, ids, *values), as first seen.

        The file rows number each row in the file from 0.  The ids are
        words when every id of the file fits in 8 bytes, else bytes.
        """
        if not self.rows:
            return
        if len({chunk.dtype for chunk in self.columns[0]}) > 1:  # words and bytes
            width = max(chunk.itemsize for chunk in self.columns[0])
            self.columns[0] = [_id_bytes(chunk, width) for chunk in self.columns[0]]
        # One column at a time, so that its chunks are freed before the next.
        ids, *values = (
            np.concatenate(self.columns.pop(0)) for _ in range(len(self.columns))
        )
        rows, ends = None, self.stretch_ends
        if len(self.stretch_topics) > len(self.topic_ids):  # topics interleaved
            topic = np.repeat(self.stretch_topics, np.diff(ends, prepend=0))
            rows = np.argsort(topic, kind="stable")
            ids, values = ids[rows], [value[rows] for value in values]
            ends = np.cumsum(np.bincount(topic, minlength=len(self.topic_ids))).tolist()
        lo = 0
        for topic_id, hi in zip(self.topic_ids, ends):
            at = np.arange(lo, hi) if rows is None else rows[lo:hi]
            yield topic_id, at, *(column[lo:hi] for column in (ids, *values))
            lo = hi


def _ranked(
    run_tag: str, topic_id: str, ids: np.ndarray, ranks: np.ndarray, scores: np.ndarray
) -> np.ndarray:
    """A topic's doc ids in (rank, -score, doc_id) order; a repeated id is refused."""
    if np.any(ranks[1:] <= ranks[:-1]):
        order = np.lexsort((ids, -scores, ranks))
        ranks, ids = ranks[order], ids[order]
    if not np.array_equal(ranks, np.arange(1, len(ranks) + 1)):
        logger.warning(
            "run %s topic %s: non-contiguous ranks repaired by re-ranking",
            run_tag,
            topic_id,
        )
    in_order = np.sort(ids)
    if np.any(in_order[1:] == in_order[:-1]):
        seen = set()
        for doc_id in _id_strings(ids):
            if doc_id in seen:
                raise ValidationError(
                    f"topic {topic_id!r} has duplicate doc_id {doc_id!r}"
                )
            seen.add(doc_id)
    return ids


class QrelsIndex:
    """The qrels: each topic's judged doc ids, sorted, and their relevance.

    ``parse_qrels`` builds it, and ``parse_run`` labels runs from it.  It
    holds arrays alone, 9 bytes a judgement when the ids fit in 8 bytes,
    no string per judgement, and does not change once built, so pool
    workers forked after it was built share its memory.
    """

    def __init__(self, topics: dict[str, tuple[np.ndarray, np.ndarray]]):
        self._topics = topics  # topic_id -> (ids, relevant), sorted by id

    def label(self, run_tag: str, topic_id: str, ids: np.ndarray) -> Topic:
        """The Topic of a ranked id list (as ``_ranked`` gives it), labelled.

        A document absent from the qrels is non-relevant (counted and
        logged once per topic).
        """
        entry = self._topics.get(topic_id)
        if entry is None:
            raise ValidationError(f"topic {topic_id!r} missing from qrels")
        judged_ids, judged_relevant = entry
        ids, judged_ids = _common(ids, judged_ids)
        # Searching in id order is several times faster than in rank order.
        order = np.argsort(ids)
        at = np.empty_like(order)
        at[order] = np.searchsorted(judged_ids, ids[order])
        np.minimum(at, len(judged_ids) - 1, out=at)
        judged = judged_ids[at] == ids
        relevant = judged & judged_relevant[at]
        missing_count = len(ids) - int(np.count_nonzero(judged))
        if missing_count:
            logger.warning(
                "run %s topic %s: %d of %d documents not in the qrels, "
                "treated as non-relevant",
                run_tag,
                topic_id,
                missing_count,
                len(ids),
            )
        return Topic(topic_id, relevant)


def parse_run(source: IO[bytes], qrels: QrelsIndex) -> Run:
    """Parse a run file into a Run of Topics labelled from the qrels.

    ``source`` is a file opened in binary mode.  Documents are ordered by
    ascending rank (ties broken by descending score then doc_id);
    non-contiguous ranks are repaired by re-ranking in sorted order, with a
    warning.  Topics keep the order of their first line.  A document is
    relevant when its qrels label is > 0; one the qrels do not judge is
    non-relevant, with one warning per topic.  The doc ids live only here:
    a Topic keeps its labels alone.

    A chunk becomes a doc id, a rank and a score per row before the next
    is read, so beside the result parse_run holds about 24 bytes a row
    when the ids fit in 8 bytes.  A ParseError names the first bad line by
    its number.  Every topic is ordered and checked for a repeated doc id
    before any is labelled, so parse errors come first, then duplicates,
    then topics missing from the qrels.
    """
    columns = _Columns()
    for read in _blocks(source, 6):
        columns.add(read)
    run_tag = columns.run_tag
    if run_tag is None:
        raise ParseError("empty run file")
    ranked = [
        (topic_id, _ranked(run_tag, topic_id, ids, ranks, scores))
        for topic_id, _, ids, ranks, scores in columns.by_topic()
    ]
    return Run(run_tag, tuple(qrels.label(run_tag, *topic) for topic in ranked))


def parse_qrels(source: IO[bytes]) -> QrelsIndex:
    """Parse a qrels file into a ``QrelsIndex``.

    ``source`` is a file opened in binary mode.  A label > 0 means
    relevant.  The same (topic, doc) pair may repeat only with the same
    label.  Errors are those of reading line by line: a pair given another
    label on a line before the first bad line is reported, else the bad
    line.
    """
    columns = _Columns()
    try:
        for read in _blocks(source, 4):
            columns.add(read)
    except ParseError:
        _index(columns)
        raise
    return _index(columns)


def _index(columns: _Columns) -> QrelsIndex:
    """The index of a qrels file's rows; a pair given two labels is refused.

    The pair named is the one whose other label comes first in the file.
    """
    topics, conflicts = {}, []
    for topic_id, rows, ids, labels in columns.by_topic():
        # Each id's rows together, in file order.
        order = np.argsort(ids, kind="stable")
        ids, labels, rows = ids[order], labels[order], rows[order]
        first = np.ones(len(order), dtype=bool)  # each id's first row
        first[1:] = ids[1:] != ids[:-1]
        # The rows whose label is not their id's first row's label.
        other = np.flatnonzero(labels != labels[first][np.cumsum(first) - 1])
        if len(other):
            at = other[np.argmin(rows[other])]
            (doc_id,) = _id_strings(ids[at : at + 1])
            conflicts.append((rows[at], topic_id, doc_id))
        topics[topic_id] = (ids[first], labels[first] > 0)
    if conflicts:
        _, topic_id, doc_id = min(conflicts)
        raise ValidationError(
            f"conflicting labels for topic {topic_id!r} doc {doc_id!r}"
        )
    return QrelsIndex(topics)


def validate_dataset(run: Run) -> dict:
    """Summarize a labelled run's topic sizes and relevant counts.

    Each statistic is checked against the published collection figure in
    ``CLEF2017_STATS``; a mismatch is reported as a 'warn' in ``checks``,
    never as an error, so synthetic datasets simply warn on every check.
    """
    sizes = [t.size for t in run.topics]
    relevant = [t.total_relevant for t in run.topics]
    summary = {
        "topic_count": len(sizes),
        "total_docs": sum(sizes),
        "size_min": min(sizes),
        "size_max": max(sizes),
        "size_median": float(np.median(sizes)),
        "relevant_min": min(relevant),
        "relevant_max": max(relevant),
        "relevant_median": float(np.median(relevant)),
        "relevant_fraction": sum(relevant) / sum(sizes),
    }
    checks = []
    for name, expected in CLEF2017_STATS.items():
        if name == "relevant_fraction":
            ok = abs(summary[name] - expected) < 5e-4
        else:
            ok = summary[name] == expected
        checks.append([name, "pass" if ok else "warn"])
    summary["checks"] = checks
    return summary
