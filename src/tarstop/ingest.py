"""Parsing of run and qrels files into labelled Runs and Topics.

Run files carry 6 whitespace-separated columns
(``topic_id flag doc_id rank score run_tag``); qrels carry 4
(``topic_id unused doc_id label``), with label > 0 meaning relevant.  A
line holding a character UTF-8 cannot encode, which is how a byte that is
not UTF-8 reads from a file opened with ``errors="surrogateescape"``, is a
ParseError.

``parse_run`` reads a run in blocks of lines.  ``blockreader.read_block``
reads a block that is simple with numpy (see that module); every other
block goes through the per-line reader here, which splits each line with
``str.split``, ``int`` and ``float``: a block with a non-ASCII character,
other whitespace (such as ``\x0b``, ``\x1c``, ``\r``, ``\xa0`` or U+3000)
or a control character, a rank such as ``+5``, ``1_0`` or ``0``, a score
such as ``1e-05``, ``inf``, ``nan`` or ``+1.5``, a rank or score longer
than 16 characters, or a non-blank line without six fields.  Both readers
hand the same ``Rows`` to one downstream, so a Run, its warnings and its
errors do not depend on which reader read a block; errors are always found
and numbered by the per-line reader.

A doc id is held as a 64-bit key: the id's UTF-8 bytes read big-endian
when they fit in 8, so such keys order as the ids do, else a hash,
re-checked against the id's bytes on any match.  A ``QrelsIndex`` keeps
each topic's judged ids as sorted keys, and a run is labelled by a binary
search in them.
"""

from __future__ import annotations

import itertools
import logging
import operator
import re
from typing import Iterable, TextIO

import numpy as np

from tarstop.blockreader import Rows, read_block
from tarstop.core import Run, Topic
from tarstop.errors import ParseError, ValidationError

logger = logging.getLogger(__name__)

# Ranks are held as int64.
_MAX_RANK = np.iinfo(np.int64).max

# Lines of a run file that parse_run reads and converts at once.  A block
# costs a fixed hundred-odd numpy calls, so small blocks are slow: on a
# 99,918-line run (median of 15 runs, the sizes alternated in one
# process), 512 lines took 168 ms, 1,024 took 119, 2,048 took 96, 4,096
# took 93 and 8,192 or 16,384 took 89-90.  A block at work holds about 280
# bytes a line, so 4,096 lines hold about 1.1 MB, half of what the
# slightly faster 8,192 do.
_BLOCK_LINES = 4096

# Multipliers of the doc-id hash (odd, so that multiplying loses nothing).
_HASH_A = np.uint64(0x9E3779B97F4A7C15)
_HASH_B = np.uint64(0xBF58476D1CE4E5B9)

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


# topic_id -> doc_id -> integer label, as parse_qrels returns them.
Qrels = dict[str, dict[str, int]]


def _require_utf8(line: str, line_no: int) -> None:
    """Refuse a line holding a character UTF-8 cannot encode.

    Files opened with ``errors="surrogateescape"`` turn each byte that is
    not valid UTF-8 into such a character (a lone surrogate).
    """
    try:
        line.encode()
    except UnicodeEncodeError as exc:
        char = ord(line[exc.start])
        # Each byte surrogateescape could not decode is U+DC80..U+DCFF.
        what = f"U+{char:X}"
        if 0xDC80 <= char <= 0xDCFF:
            what = f"byte 0x{char - 0xDC00:x}"
        raise ParseError(
            f"invalid UTF-8: {what} at character {exc.start + 1}", line_no
        ) from exc


def _raise_first_error(block: list[str], first_line: int) -> None:
    """Raise a ParseError naming the first bad line of a block of run lines.

    ``first_line`` is the number of the block's first line.
    """
    for line_no, line in enumerate(block, start=first_line):
        _require_utf8(line, line_no)
        fields = line.split()
        if not fields:
            continue
        if len(fields) != 6:
            raise ParseError(f"expected 6 fields, got {len(fields)}: {line!r}", line_no)
        try:
            rank = int(fields[3])
            float(fields[4])
        except ValueError as exc:
            raise ParseError(f"bad rank/score: {exc}", line_no) from exc
        if rank < 1:
            raise ParseError(f"rank must be >= 1, got {rank}", line_no)
        if rank > _MAX_RANK:
            raise ParseError(f"rank too large: {rank}", line_no)


# Doc ids.  An id is stored as its UTF-8 bytes with NUL written 01 01 and
# 01 written 01 02: that keeps the bytes' order and leaves no NUL, so an id
# NUL-padded to a fixed width still reads back, and compares, as itself.
# Ids are handled as rows of 64-bit words, the stored bytes read
# big-endian and NUL-padded, so that words order as the ids do.


def _escape(raw: bytes) -> bytes:
    return raw.replace(b"\x01", b"\x01\x02").replace(b"\x00", b"\x01\x01")


def _unescape(raw: bytes) -> str:
    raw = re.sub(rb"\x01([\x01\x02])", lambda m: bytes([m[1][0] - 1]), raw)
    return raw.decode()


def _id_words(doc_ids: list[str]) -> np.ndarray:
    """The ids as rows of words (see above)."""
    raw = [doc_id.encode() for doc_id in doc_ids]
    joined = b"".join(raw)
    if b"\x00" in joined or b"\x01" in joined:
        raw = list(map(_escape, raw))
    width = -(-max(8, max(map(len, raw), default=0)) // 8) * 8
    array = np.array(raw, dtype=f"S{width}")
    return array.view(">u8").reshape(len(raw), width // 8).astype(np.uint64)


def _hash(words: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each row of id words.

    Each word is mixed on its own and the results summed, so a word of
    padding adds nothing and the hash does not depend on the row width.
    """
    hashes = np.zeros(len(words), dtype=np.uint64)
    for column in range(words.shape[1]):
        word = words[:, column] * _HASH_A
        word *= np.uint64(2 * column + 1)
        word ^= word >> np.uint64(29)
        word *= _HASH_B
        hashes += word
    return hashes


def _keys(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each id's 64-bit key, and the rows whose key is a hash.

    An id of at most 8 bytes is its own key, its one word, so such keys
    order as their ids do; a longer id is keyed by its hash.
    """
    keys = words[:, 0].copy()
    hashed = np.flatnonzero(np.any(words[:, 1:], axis=1))
    keys[hashed] = _hash(words[hashed])
    return keys, hashed


def _id_bytes(words: np.ndarray) -> np.ndarray:
    """Rows of id words as NUL-padded bytes (S dtype)."""
    return words.astype(">u8").view(f"S{8 * words.shape[1]}").ravel()


def _hashed_rows(ids: np.ndarray) -> np.ndarray:
    """Which ids, given as NUL-padded bytes, are longer than 8 bytes."""
    return ids.view(np.uint8).reshape(len(ids), ids.itemsize)[:, 8:].any(axis=1)


def _id_strings(keys: np.ndarray, ids: np.ndarray | None) -> list[str]:
    """The doc ids as strings, from their keys or, when some is hashed, bytes."""
    raw = _id_bytes(keys[:, None]) if ids is None else ids
    return [_unescape(r) for r in raw.tolist()]


def _split_block(block: list[str], first_line: int) -> Rows | None:
    """The per-line reader: a block's rows, or None when all its lines are blank.

    A ParseError names the first bad line; ``first_line`` is the number of
    the block's first line.
    """
    text = "".join(block)
    if not text.isascii():
        try:
            text.encode()
        except UnicodeEncodeError:
            _raise_first_error(block, first_line)
    topic_col: list[str] = []
    doc_col: list[str] = []
    rank_col: list[str] = []
    score_col: list[str] = []
    run_tag = None
    for line in block:
        try:
            topic_id, _, doc_id, rank_s, score_s, tag = line.split()
        except ValueError:
            if line.split():
                _raise_first_error(block, first_line)
            continue
        topic_col.append(topic_id)
        doc_col.append(doc_id)
        rank_col.append(rank_s)
        score_col.append(score_s)
        if run_tag is None:
            run_tag = tag
    if run_tag is None:
        return None
    n = len(rank_col)
    try:
        ranks = np.fromiter(map(int, rank_col), dtype=np.int64, count=n)
        scores = np.fromiter(map(float, score_col), dtype=np.float64, count=n)
    except (ValueError, OverflowError):
        ranks = None
    if ranks is None or ranks.min() < 1:
        _raise_first_error(block, first_line)
    topics, topic_ends = [], []
    for topic_id, rows in itertools.groupby(topic_col):
        topics.append(topic_id)
        topic_ends.append((topic_ends[-1] if topic_ends else 0) + len(list(rows)))
    return Rows(topics, topic_ends, _id_words(doc_col), ranks, scores, run_tag)


def _ranked(
    run_tag: str,
    topic_id: str,
    keys: np.ndarray,
    ranks: np.ndarray,
    scores: np.ndarray,
    ids: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """A topic's doc ids in (rank, -score, doc_id) order; a repeated id is refused.

    The ids are their keys, and also their bytes (``ids``) when some key
    is a hash; both come back in rank order.
    """
    if np.any(ranks[1:] <= ranks[:-1]):
        order = np.lexsort((keys if ids is None else ids, -scores, ranks))
        ranks, keys = ranks[order], keys[order]
        if ids is not None:
            ids = ids[order]
    if not np.array_equal(ranks, np.arange(1, len(ranks) + 1)):
        logger.warning(
            "run %s topic %s: non-contiguous ranks repaired by re-ranking",
            run_tag,
            topic_id,
        )
    in_order = np.sort(keys)
    if np.any(in_order[1:] == in_order[:-1]):  # a repeated id, or two ids share a hash
        seen = set()
        for doc_id in _id_strings(keys, ids):
            if doc_id in seen:
                raise ValidationError(
                    f"topic {topic_id!r} has duplicate doc_id {doc_id!r}"
                )
            seen.add(doc_id)
    return keys, ids


class QrelsIndex:
    """The qrels with each topic's judged doc ids as sorted 64-bit keys.

    A topic's keys are built on its first lookup and kept, so a process
    that labels many runs from one qrels builds them once.  The qrels must
    not change once indexed.
    """

    def __init__(self, qrels: Qrels):
        self.qrels = qrels
        # topic_id -> (keys, relevant, hashed, ids), sorted by key: whether
        # each key is a hash, and when some is, every id's stored bytes
        # (else None).  None where two ids share a key, or the topic judges
        # nothing: its lookups go by string.
        self._topics: dict[str, tuple | None] = {}

    def _topic(self, topic_id: str, labels: dict[str, int]) -> tuple | None:
        if topic_id in self._topics:
            return self._topics[topic_id]
        entry = None
        if labels:
            words = _id_words(list(labels))
            keys, hashed = _keys(words)
            order = np.argsort(keys)
            if not np.any(keys[order[1:]] == keys[order[:-1]]):
                relevant = np.fromiter(
                    map(operator.gt, labels.values(), itertools.repeat(0)),
                    dtype=bool,
                    count=len(labels),
                )
                flags = np.zeros(len(keys), dtype=bool)
                flags[hashed] = True
                ids = _id_bytes(words[order]) if len(hashed) else None
                entry = (keys[order], relevant[order], flags[order], ids)
        self._topics[topic_id] = entry
        return entry

    def label(
        self, run_tag: str, topic_id: str, keys: np.ndarray, ids: np.ndarray | None
    ) -> Topic:
        """The Topic of a ranked id list (as ``_ranked`` gives it), labelled.

        A document absent from the qrels is non-relevant (counted and
        logged once per topic).
        """
        labels = self.qrels.get(topic_id)
        if labels is None:
            raise ValidationError(f"topic {topic_id!r} missing from qrels")
        entry = self._topic(topic_id, labels)
        if entry is None:
            found = list(map(labels.get, _id_strings(keys, ids)))
            judged = np.array([label is not None for label in found], dtype=bool)
            relevant = np.array(
                [label is not None and label > 0 for label in found], dtype=bool
            )
        else:
            judged_keys, judged_relevant, judged_hashed, judged_ids = entry
            # Searching in key order is several times faster than in rank order.
            order = np.argsort(keys)
            at = np.empty_like(order)
            at[order] = np.searchsorted(judged_keys, keys[order])
            np.minimum(at, len(judged_keys) - 1, out=at)
            judged = judged_keys[at] == keys
            # A packed key and a hash never name one id, and two equal
            # hashes do only when the ids' bytes are equal.
            if ids is None:
                judged &= ~judged_hashed[at]
            else:
                hashed = _hashed_rows(ids)
                judged &= hashed == judged_hashed[at]
                if judged_ids is not None:
                    both = np.flatnonzero(judged & hashed)
                    judged[both] = ids[both] == judged_ids[at[both]]
            relevant = judged & judged_relevant[at]
        missing_count = len(keys) - int(np.count_nonzero(judged))
        if missing_count:
            logger.warning(
                "run %s topic %s: %d of %d documents not in the qrels, "
                "treated as non-relevant",
                run_tag,
                topic_id,
                missing_count,
                len(keys),
            )
        return Topic(topic_id, relevant)


def parse_run(lines: Iterable[str] | TextIO, qrels: Qrels | QrelsIndex) -> Run:
    """Parse a run file into a Run of Topics labelled from the qrels.

    Documents are ordered by ascending rank (ties broken by descending score
    then doc_id); non-contiguous ranks are repaired by re-ranking in sorted
    order, with a warning.  Topics keep the order of their first line.  A
    document is relevant when its qrels label is > 0; one the qrels do not
    judge is non-relevant, with one warning per topic.  The doc ids live
    only here: a Topic keeps its labels alone.  Pass a ``QrelsIndex`` to
    label several runs from one qrels without indexing it each time.

    Lines are read in blocks of ``_BLOCK_LINES``, each by the block reader
    when it is simple and else by the per-line reader (see the module
    docstring).  A block becomes a doc-id key, a rank and a score per row
    before the next is read, so beside the result parse_run holds about
    24 bytes a row, plus the bytes of ids longer than 8 bytes.  A
    ParseError names the first bad line by its number.  Every topic is
    ordered and checked for a repeated doc id before any is labelled, so
    parse errors come first, then duplicates, then topics missing from the
    qrels.
    """
    index = qrels if isinstance(qrels, QrelsIndex) else QrelsIndex(qrels)
    # Each column's arrays, one per block.
    columns: dict[str, list[np.ndarray]] = {
        name: [] for name in ("keys", "hashed", "hashed_ids", "ranks", "scores")
    }
    run_tag = None
    topic_ids: dict[str, int] = {}  # in the order they first appear
    stretch_topics: list[int] = []  # each stretch of rows with one topic
    stretch_ends: list[int] = []
    rows = 0
    lines = iter(lines)
    first_line = 1
    while block := list(itertools.islice(lines, _BLOCK_LINES)):
        read = read_block(block) or _split_block(block, first_line)
        first_line += len(block)
        if read is None:
            continue
        for topic_id, end in zip(read.topics, read.topic_ends):
            topic = topic_ids.setdefault(topic_id, len(topic_ids))
            if stretch_topics and stretch_topics[-1] == topic:
                stretch_ends[-1] = rows + end
            else:
                stretch_topics.append(topic)
                stretch_ends.append(rows + end)
        keys, hashed = _keys(read.id_words)
        for name, array in (
            ("keys", keys),
            ("hashed", hashed + rows),
            ("hashed_ids", _id_bytes(read.id_words[hashed])),
            ("ranks", read.ranks),
            ("scores", read.scores),
        ):
            columns[name].append(array)
        rows += len(keys)
        run_tag = run_tag or read.run_tag
    if run_tag is None:
        raise ParseError("empty run file")
    # One column at a time, so that its blocks are freed before the next.
    keys, hashed, hashed_ids, ranks, scores = (
        np.concatenate(columns.pop(name)) for name in list(columns)
    )

    if len(stretch_topics) > len(topic_ids):  # topics interleaved
        topic = np.repeat(stretch_topics, np.diff(stretch_ends, prepend=0))
        order = np.argsort(topic, kind="stable")
        keys, ranks, scores = keys[order], ranks[order], scores[order]
        if len(hashed):
            position = np.empty(rows, dtype=np.intp)
            position[order] = np.arange(rows)
            moved = position[hashed]
            by_row = np.argsort(moved)
            hashed, hashed_ids = moved[by_row], hashed_ids[by_row]
        stretch_ends = np.cumsum(np.bincount(topic, minlength=len(topic_ids))).tolist()

    ranked = []
    lo = 0
    for topic_id, hi in zip(topic_ids, stretch_ends):
        ids = None
        first, last = np.searchsorted(hashed, (lo, hi))
        if first < last:
            ids = _id_bytes(keys[lo:hi, None]).astype(hashed_ids.dtype)
            ids[hashed[first:last] - lo] = hashed_ids[first:last]
        ranked.append(
            _ranked(run_tag, topic_id, keys[lo:hi], ranks[lo:hi], scores[lo:hi], ids)
        )
        lo = hi
    topics = tuple(
        index.label(run_tag, topic_id, *ids)
        for topic_id, ids in zip(topic_ids, ranked)
    )
    return Run(run_tag=run_tag, topics=topics)


def parse_qrels(lines: Iterable[str] | TextIO) -> Qrels:
    """Parse a qrels file into ``{topic_id: {doc_id: label}}``, in one pass.

    A label > 0 means relevant.  The same (topic, doc) pair may repeat only
    with the same label.
    """
    qrels: Qrels = {}
    for line_no, line in enumerate(lines, start=1):
        if not line.isascii():
            _require_utf8(line, line_no)
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


def _median(values: list[int]) -> float:
    values = sorted(values)
    m = len(values) // 2
    if len(values) % 2:
        return float(values[m])
    return (values[m - 1] + values[m]) / 2.0


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
        "size_median": _median(sizes),
        "relevant_min": min(relevant),
        "relevant_max": max(relevant),
        "relevant_median": _median(relevant),
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
