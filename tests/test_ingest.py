import contextlib
import io
import logging
import pickle
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import serialize_qrels, serialize_run
from tarstop import ingest
from tarstop.core import Topic, rel_at
from tarstop.errors import ParseError, ValidationError
from tarstop.ingest import CLEF2017_STATS, parse_qrels, parse_run, validate_dataset

RUN_LINES = [
    "CD010775 NF 19307324 1 0.2715 Test-Data-Sheffield-run-2",
    "CD010775 NF 10503898 2 0.2612 Test-Data-Sheffield-run-2",
    "CD010775 NF 18850670 3 0.2440 Test-Data-Sheffield-run-2",
    "CD008122 Q0 11111111 1 0.9000 Test-Data-Sheffield-run-2",
    "CD008122 Q0 22222222 2 0.8000 Test-Data-Sheffield-run-2",
]

QREL_LINES = [
    "CD010775 0 18850670 1",
    "CD010775 0 10503898 0",
    "CD010775 0 19307324 1",
    "CD008122 0 11111111 1",
    "CD008122 0 22222222 0",
]

# {topic: {doc: label}} of QREL_LINES.
LABELS = {
    "CD010775": {"18850670": 1, "10503898": 0, "19307324": 1},
    "CD008122": {"11111111": 1, "22222222": 0},
}


def _file(lines: list[str], line_end: str = "\n", last_end: bool = True) -> bytes:
    """The lines as a file's bytes, each ended by line_end, the last if last_end.

    A line's own ``\\n`` is dropped, and a lone surrogate is written as its byte.
    """
    text = "".join(line.removesuffix("\n") + line_end for line in lines)
    return text.removesuffix(line_end * (not last_end)).encode("utf-8", "surrogateescape")


def _source(lines) -> io.BytesIO:
    """A fresh binary file of a file's bytes, or of lines as ``_file`` writes them."""
    return io.BytesIO(lines if isinstance(lines, bytes) else _file(lines))


QRELS = parse_qrels(_source(QREL_LINES))
EMPTY = parse_qrels(_source([]))

DEFAULT_CHUNK_BYTES = ingest._CHUNK_BYTES


def _chunked(chunk_bytes: int):
    """Files read in chunks of ``chunk_bytes`` bytes."""
    return mock.patch.object(ingest, "_CHUNK_BYTES", chunk_bytes)


@pytest.fixture(autouse=True)
def _small_chunks():
    """Chunks of a line or two, so that multi-line runs cross chunk boundaries."""
    with _chunked(40):
        yield


def _index(qrels: dict[str, dict[str, int]]):
    """The QrelsIndex of {topic: {doc: label}}, read from qrels lines."""
    lines = [f"{t} 0 {d} {label}" for t, labels in qrels.items() for d, label in labels.items()]
    return parse_qrels(_source(lines))


def _relevance(index) -> dict[str, dict[str, bool]]:
    """{topic: {doc: relevant}} of a QrelsIndex."""
    return {
        topic_id: dict(zip(ingest._id_strings(ids), relevant.tolist()))
        for topic_id, (ids, relevant) in index._topics.items()
    }


def _judged(lines) -> dict[str, dict[str, int]]:
    """{topic: {doc: 0}} of every (topic, doc) of the well-formed lines."""
    text = _source(lines).read().decode("utf-8", "surrogateescape")
    qrels: dict[str, dict[str, int]] = {}
    for fields in map(str.split, re.split("\r\n?|\n", text)):
        if len(fields) == 6 and "\0" not in fields[2]:
            qrels.setdefault(fields[0], {})[fields[2]] = 0
    return qrels


def _unjudged(lines):
    """A QrelsIndex judging every (topic, doc) of the well-formed lines non-relevant."""
    return _index(_judged(lines))


def _ranked(lines):
    """The run tag and each topic's doc ids in the order parse_run ranks them.

    Topics keep labels alone, so each doc id gets a parse of its own whose
    qrels mark only it relevant: its rank is the one relevant position.
    """
    judged = _judged(lines)
    run = parse_run(_source(lines), _index(judged))
    ranked = []
    for index, topic in enumerate(run.topics):
        ids = [None] * topic.size
        for doc_id in judged[topic.topic_id]:
            qrels = _index({**judged, topic.topic_id: {**judged[topic.topic_id], doc_id: 1}})
            (rank,) = np.flatnonzero(parse_run(_source(lines), qrels).topics[index].relevant)
            ids[rank] = doc_id
        ranked.append((topic.topic_id, tuple(ids)))
    return run.run_tag, tuple(ranked)


def test_parse_run_single_record():
    run = parse_run(_source([RUN_LINES[0]]), QRELS)
    assert run.run_tag == "Test-Data-Sheffield-run-2"
    topic = run.topics[0]
    assert topic.topic_id == "CD010775"
    assert topic.relevant.tolist() == [True]


def test_parse_run_empty_input():
    with pytest.raises(ParseError):
        parse_run(_source([]), QRELS)


def test_parse_run_interleaved_topics():
    interleaved = [RUN_LINES[0], RUN_LINES[3], RUN_LINES[1], RUN_LINES[4], RUN_LINES[2]]
    assert _ranked(interleaved) == (
        "Test-Data-Sheffield-run-2",
        (
            ("CD010775", ("19307324", "10503898", "18850670")),
            ("CD008122", ("11111111", "22222222")),
        ),
    )
    by_id = {t.topic_id: t for t in parse_run(_source(interleaved), QRELS).topics}
    assert by_id["CD010775"].relevant.tolist() == [True, False, True]
    assert by_id["CD008122"].relevant.tolist() == [True, False]


def test_parse_run_malformed_line_reports_number():
    with pytest.raises(ParseError, match="line 2"):
        parse_run(_source([RUN_LINES[0], "too few fields"]), QRELS)


def test_parse_run_duplicate_doc():
    with pytest.raises(
        ValidationError, match="topic 'CD010775' has duplicate doc_id '19307324'"
    ):
        parse_run(_source([RUN_LINES[0], RUN_LINES[0].replace(" 1 ", " 2 ")]), QRELS)


def test_parse_run_repairs_rank_gaps():
    gapped = [
        "T1 NF a 2 0.9 tag",
        "T1 NF b 10 0.5 tag",
        "T1 NF c 30 0.1 tag",
    ]
    assert _ranked(gapped) == ("tag", (("T1", ("a", "b", "c")),))


def test_parse_run_rank_ties_by_score():
    tied = ["T1 NF low 1 0.2 tag", "T1 NF high 1 0.9 tag"]
    assert _ranked(tied) == ("tag", (("T1", ("high", "low")),))


def test_parse_run_builds_each_topic_once(monkeypatch):
    built = []
    build = Topic.__post_init__
    monkeypatch.setattr(
        Topic, "__post_init__", lambda topic: (built.append(topic.topic_id), build(topic))
    )
    run = parse_run(_source(RUN_LINES), QRELS)
    assert built == [topic.topic_id for topic in run.topics] == ["CD010775", "CD008122"]


def test_parse_run_reports_duplicate_before_missing_qrels_topic():
    # T1 is missing from the qrels and T2, a later topic, repeats a doc id.
    lines = ["T1 NF a 1 0.9 tag", "T2 NF b 1 0.9 tag", "T2 NF b 2 0.5 tag"]
    qrels = parse_qrels(_source(["T2 0 b 1"]))
    with pytest.raises(ValidationError, match="topic 'T2' has duplicate doc_id 'b'"):
        parse_run(_source(lines), qrels)
    with pytest.raises(ValidationError, match="topic 'T1' missing from qrels"):
        parse_run(_source(lines[:2]), qrels)
    # A parse error beats both.
    with pytest.raises(ParseError, match="line 4: expected 6 fields"):
        parse_run(_source([*lines, "T2 NF c 3"]), qrels)


def test_parse_qrels_labels():
    assert _relevance(parse_qrels(_source(QREL_LINES))) == {
        "CD010775": {"18850670": True, "10503898": False, "19307324": True},
        "CD008122": {"11111111": True, "22222222": False},
    }


def test_parse_qrels_repeated_label_keeps_one_row():
    index = parse_qrels(_source(["T1 0 a 2", "T1 0 b 0", "T1 0 a 2"]))
    assert _relevance(index) == {"T1": {"a": True, "b": False}}
    assert len(index._topics["T1"][0]) == 2


def test_parse_qrels_conflicting_duplicate():
    # In the second pair both labels mean relevant, but the integers differ.
    for second in ("T1 0 a 0", "T1 0 a 2"):
        with pytest.raises(
            ValidationError, match="conflicting labels for topic 'T1' doc 'a'"
        ):
            parse_qrels(_source(["T1 0 a 1", second]))


def test_parse_qrels_malformed():
    with pytest.raises(ParseError, match="line 1"):
        parse_qrels(_source(["only three fields x"]))


def test_a_text_file_is_a_type_error():
    # Both read a file opened in binary mode: a text file's str is refused
    # by Python where it meets bytes, a lone surrogate included.
    with pytest.raises(TypeError, match="can't concat str to bytes"):
        parse_qrels(io.StringIO("T1 0 a 1\n"))
    with pytest.raises(TypeError, match="can't concat str to bytes"):
        parse_run(io.StringIO("T1 NF a\ud800 1 0.5 tag\n"), QRELS)


# The join of a run with the qrels: parse_run labels each ranked document.


def test_join_sets_flags():
    topic = parse_run(_source(RUN_LINES), QRELS).topics[0]
    # 19307324, 10503898 and 18850670 in rank order.
    assert topic.topic_id == "CD010775"
    assert topic.relevant.tolist() == [True, False, True]


def test_join_missing_doc_is_nonrelevant():
    lines = ["T1 NF known 1 0.9 tag", "T1 NF unknown 2 0.5 tag"]
    topic = parse_run(_source(lines), parse_qrels(_source(["T1 0 known 1"]))).topics[0]
    assert topic.relevant.tolist() == [True, False]


def test_join_missing_topic_errors():
    with pytest.raises(ValidationError, match="topic 'CD008122' missing from qrels"):
        parse_run(_source(RUN_LINES), parse_qrels(_source(["CD010775 0 19307324 1"])))


def test_join_preserves_order():
    tag, ranked = _ranked(RUN_LINES)
    run = parse_run(_source(RUN_LINES), QRELS)
    assert run.run_tag == tag
    for (topic_id, ids), topic in zip(ranked, run.topics, strict=True):
        assert topic.topic_id == topic_id
        assert topic.relevant.tolist() == [LABELS[topic_id][d] > 0 for d in ids]


def test_run_round_trip():
    ids = ["b", "a", "c"]
    labels = [True, False, True]
    lines = serialize_run("tag", {"T1": ids, "T2": ids[::-1]})
    qrels = parse_qrels(_source(serialize_qrels({"T1": (ids, labels), "T2": (ids, labels)})))
    assert _ranked(lines) == ("tag", (("T1", tuple(ids)), ("T2", tuple(ids[::-1]))))
    run = parse_run(_source(lines), qrels)
    assert [t.relevant.tolist() for t in run.topics] == [labels, labels[::-1]]


def test_validate_synthetic_dataset_warns():
    summary = validate_dataset(parse_run(_source(RUN_LINES), QRELS))
    assert summary["topic_count"] == 2
    assert summary["total_docs"] == 5
    assert (summary["relevant_min"], summary["relevant_max"]) == (1, 2)
    assert [name for name, _ in summary["checks"]] == list(CLEF2017_STATS)
    assert all(status == "warn" for _, status in summary["checks"])


@pytest.mark.parametrize(
    "bad_line, message",
    [
        ("T2 NF z 2 0.5", "expected 6 fields"),
        ("T2 NF z two 0.5 tag", "bad rank/score"),
        ("T2 NF z 2 high tag", "bad rank/score"),
        ("T2 NF z 0 0.5 tag", "rank must be >= 1"),
        ("T2 NF z 99999999999999999999 0.5 tag", "rank too large"),
    ],
)
def test_parse_run_error_in_second_topic_reports_line(bad_line, message):
    lines = [
        "T1 NF a 1 0.9 tag",
        "",
        "T1 NF b 2 0.8 tag",
        "T2 NF y 1 0.7 tag",
        bad_line,
        "T2 NF x 3 0.1 tag",
    ]
    # Parse errors come before any qrels lookup, so no qrels are needed.
    with pytest.raises(ParseError, match=f"line 5: {message}"):
        parse_run(_source(lines), EMPTY)


def test_parse_run_counts_leading_blank_lines():
    with pytest.raises(ParseError, match="line 3: bad rank/score"):
        parse_run(_source(["", "  ", "T1 NF a x 0.9 tag"]), EMPTY)


def test_parse_run_reports_first_bad_line():
    # A bad rank on line 2 comes before a short line 3.
    with pytest.raises(ParseError, match="line 2: bad rank/score"):
        parse_run(_source(["T1 NF a 1 0.9 tag", "T1 NF b x 0.8 tag", "T1 NF c 3"]), EMPTY)


def _warns(caplog, lines) -> bool:
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="tarstop.ingest"):
        parse_run(_source(lines), _unjudged(lines))
    return "non-contiguous ranks" in caplog.text


def test_parse_run_non_contiguous_warning(caplog):
    assert _warns(caplog, ["T1 NF a 1 0.9 tag", "T1 NF b 3 0.5 tag"])
    assert _warns(
        caplog, ["T1 NF a 1 0.9 tag", "T1 NF b 1 0.5 tag", "T1 NF c 3 0.1 tag"]
    )
    shuffled = ["T1 NF c 3 0.1 tag", "T1 NF a 1 0.9 tag", "T1 NF b 2 0.5 tag"]
    assert not _warns(caplog, shuffled)
    assert _ranked(shuffled) == ("tag", (("T1", ("a", "b", "c")),))


_rows = st.lists(
    st.tuples(
        st.sampled_from(["A", "B"]),
        st.text("abcxyz019", min_size=1, max_size=4),
        st.integers(1, 6),
        st.sampled_from([-1.5, -0.0, 0.0, 0.25, 0.5, 2.0]),
    ),
    min_size=1,
    max_size=30,
    unique_by=lambda row: (row[0], row[1]),
)


@settings(deadline=None)
@given(_rows)
def test_parse_run_orders_by_rank_score_doc(rows):
    lines = [f"{t} NF {d} {r} {s!r} tag" for t, d, r, s in rows]
    expected = []
    for topic_id in dict.fromkeys(row[0] for row in rows):  # first-seen order
        ranked = sorted(
            (row for row in rows if row[0] == topic_id),
            key=lambda row: (row[2], -row[3], row[1]),
        )
        expected.append((topic_id, tuple(row[1] for row in ranked)))
    assert _ranked(lines) == ("tag", tuple(expected))


def test_topic_counts_are_python_ints():
    topic = parse_run(_source(RUN_LINES), QRELS).topics[0]
    assert type(rel_at(topic, 2)) is int
    assert type(topic.total_relevant) is int
    assert not topic.cumrel.flags.writeable
    assert not topic.relevant.flags.writeable
    with pytest.raises(ValueError):
        topic.cumrel[1] = 5


def test_join_logs_documents_missing_from_qrels(caplog):
    qrels = parse_qrels(_source(["CD010775 0 19307324 1", *QREL_LINES[3:]]))
    with caplog.at_level(logging.WARNING, logger="tarstop.ingest"):
        parse_run(_source(RUN_LINES), qrels)
    messages = [r.getMessage() for r in caplog.records]
    assert messages == [
        "run Test-Data-Sheffield-run-2 topic CD010775: 2 of 3 documents "
        "not in the qrels, treated as non-relevant"
    ]


_topic_ids = st.sampled_from(["A", "B"])
_judged_ids = ["d1", "d2", "d3", "d4"]


@settings(deadline=None)
@given(
    st.lists(
        st.tuples(_topic_ids, st.sampled_from([*_judged_ids, "new", "shared"])),
        min_size=1,
        max_size=12,
        unique=True,
    ),
    st.dictionaries(
        st.tuples(_topic_ids, st.sampled_from(_judged_ids)),
        st.integers(-2, 3),
    ),
)
def test_join_matches_reference_loop(run_pairs, judgements):
    # "shared" is judged in both topics with different labels; "new" never is.
    qrels_lines = [f"{t} 0 {d} {label}" for (t, d), label in judgements.items()]
    qrels_lines += ["A 0 shared 1", "B 0 shared 0"]
    reference: dict[str, dict[str, bool]] = {}
    for line in qrels_lines:
        topic_id, _, doc_id, label = line.split()
        reference.setdefault(topic_id, {})[doc_id] = int(label) > 0
    # Ranks rise through the file, so each topic keeps its lines' order.
    lines = [f"{t} NF {d} {rank} 0.5 tag" for rank, (t, d) in enumerate(run_pairs, 1)]
    run = parse_run(_source(lines), parse_qrels(_source(qrels_lines)))
    first_seen = list(dict.fromkeys(t for t, _ in run_pairs))
    assert [topic.topic_id for topic in run.topics] == first_seen
    for topic in run.topics:
        judged = reference[topic.topic_id]
        ids = [d for t, d in run_pairs if t == topic.topic_id]
        assert topic.relevant.tolist() == [judged.get(d, False) for d in ids]


# One line per fault that parse_run must report the same way wherever chunk
# boundaries fall; "interleaved topic" is no fault and parses.
_BLOCK_FAULTS = {
    "five fields": "T1 NF z 2 0.5",
    "seven fields": "T1 NF z 2 0.5 tag extra",
    "twelve fields": "T1 NF z 2 0.5 tag T1 NF y 3 0.5 tag",
    "three fields": "T1 NF z",
    "bad rank": "T1 NF z two 0.5 tag",
    "bad score": "T1 NF z 2 high tag",
    "rank 0": "T1 NF z 0 0.5 tag",
    "rank above int64": "T1 NF z 99999999999999999999 0.5 tag",
    "duplicate doc": "T1 NF g0 2 0.5 tag",
    "NUL in doc id": "T1 NF z\x00 2 0.5 tag",
    "interleaved topic": "T2 NF z 1 0.5 tag",
}


def _per_line_only(per_line: bool):
    """With per_line, every chunk goes through the per-line reader."""
    if not per_line:
        return contextlib.nullcontext()
    return mock.patch.object(ingest, "read_block", lambda *args: None)


def _error(exc: Exception) -> tuple:
    return type(exc), str(exc), getattr(exc, "line_no", None)


def _outcome(lines, chunk_bytes: int, per_line: bool = False):
    """The run tag and ranked ids parse_run gives, or its error's type, message and line."""
    with _chunked(chunk_bytes), _per_line_only(per_line):
        try:
            return _ranked(lines)
        except (ParseError, ValidationError) as exc:
            return _error(exc)


def _labelled(lines, qrels: dict, chunk_bytes: int, per_line: bool = False):
    """The Run parse_run gives, as tags and labels, and its warnings; or its error."""
    messages = []
    handler = logging.Handler()
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("tarstop.ingest")
    logger.addHandler(handler)
    try:
        with _chunked(chunk_bytes), _per_line_only(per_line):
            run = parse_run(_source(lines), _index(qrels))
        return (
            run.run_tag,
            [(topic.topic_id, topic.relevant.tolist()) for topic in run.topics],
            messages,
        )
    except (ParseError, ValidationError) as exc:
        return (*_error(exc), messages)
    finally:
        logger.removeHandler(handler)


def _chunk_after(lines: list[str], count: int) -> int:
    """The chunk size in bytes that ends the first chunk after ``count`` lines."""
    return max(1, sum(len(line.encode()) + 1 for line in lines[:count]))


@settings(deadline=None)
@given(
    fault=st.sampled_from(sorted(_BLOCK_FAULTS)),
    rows_before=st.integers(0, 4),
    first_of_next=st.booleans(),
    blank_before=st.integers(0, 2),
    blank_after=st.integers(0, 2),
    rows_after=st.integers(1, 3),
    short_line_last=st.booleans(),
)
def test_parse_run_block_boundaries_leave_outcome(
    fault,
    rows_before,
    first_of_next,
    blank_before,
    blank_after,
    rows_after,
    short_line_last,
):
    # The fault sits on the last line of a chunk or the first line of the
    # next, with blank lines beside it; a short last line is a later fault.
    at = rows_before + blank_before
    good = [f"T1 NF g{i} {i + 1} 0.5 tag" for i in range(rows_before + rows_after)]
    lines = [
        *good[:rows_before],
        *[""] * blank_before,
        _BLOCK_FAULTS[fault],
        *[""] * blank_after,
        *good[rows_before:],
        *["T1 NF late 9"] * short_line_last,
    ]
    data = _file(lines)
    expected = _outcome(data, DEFAULT_CHUNK_BYTES)
    if fault in ("duplicate doc", "interleaved topic"):
        parses = fault == "interleaved topic" and not short_line_last
        assert (expected[0] == "tag") == parses
    else:
        assert expected[0] is ParseError
        assert expected[2] == at + 1  # the first bad line
    before = at + (not first_of_next)  # the lines before the boundary
    assert _outcome(data, _chunk_after(lines, before)) == expected


# What the differential tests below draw from.  Each row is plain, which
# the block reader takes, or odd, which only the per-line reader does: str
# whitespace beyond space, tab and newline, non-ASCII ids, ids holding 01
# (stored as it is), ranks int() reads with a sign or an underscore,
# scores in every other form float() reads, and numbers with a minus that
# is not their first character or is all there is.
_PLAIN = {
    "separators": [" ", "  ", "\t", " \t "],
    "doc_ids": [
        *["a", "b", "d1", "z", "g0", "12345678"],
        *["123456789", "long-doc-id-01", "long-doc-id-02"],
    ],
    "ranks": st.integers(1, 9).map(str) | st.sampled_from(["007", "12"]),
    "scores": st.sampled_from(
        ["0.5", "-0.0", "0", "3", ".5", "5.", "-.5", "0.999922", "1234567.87654321"]
    )
    | st.builds("{:.{}f}".format, st.floats(-100, 100), st.integers(0, 6)),
    "labels": st.sampled_from(["0", "1", "2", "-1", "007", "-0"]),
}
_ODD = {
    "separators": ["\x0b", "\x1c", "\xa0", "\u3000"],
    "doc_ids": ["é", "ü-2", "\x01b", "long-doc-id-é"],
    "ranks": st.sampled_from(["+5", "1_0", "0", "12345678901234567", "-1", "-0"]),
    "scores": st.sampled_from(
        ["1e-05", "inf", "nan", "+1.5", "0.30000000000000004", "5-", "1-2", "--1"]
        + ["-", "-5-", ".-5", "-.", "-1.5-", "1.2.3"]
    )
    | st.floats(-100, 100).map(repr),
    "labels": st.sampled_from(["+1", "1_0", "12345678901234567", "1-", "--1", "-", "-1-"]),
}


def _row(draw, odd: bool, fields: list) -> str:
    """A line of the fields, odd in one field or separator when odd is set.

    Each field is a value or the _PLAIN/_ODD key to draw it from.
    """
    styles = [_PLAIN] * (2 * len(fields))
    if odd:
        styles[draw(st.integers(0, len(styles) - 1))] = _ODD
    line = ""
    for i, field in enumerate(fields):
        line += draw(st.sampled_from(styles[2 * i]["separators"]))
        if field in _PLAIN:
            pick = styles[2 * i + 1][field]
            field = draw(st.sampled_from(pick) if isinstance(pick, list) else pick)
        line += field
    return line if draw(st.booleans()) else line.lstrip()


@st.composite
def _run_lines(draw):
    lines = []
    for kind in draw(st.lists(st.sampled_from("ppppoobf"), min_size=1, max_size=10)):
        if kind == "b":
            lines.append(draw(st.sampled_from(["", " ", "\t", "\x0b"])))
        elif kind == "f":
            lines.append(draw(st.sampled_from(sorted(_BLOCK_FAULTS.values()))))
        else:
            topic, tag = draw(st.sampled_from(_TOPIC_IDS)), draw(st.sampled_from(_TAGS))
            fields = [topic, "Q0", "doc_ids", "ranks", "scores", tag]
            lines.append(_row(draw, kind == "o", fields))
    return lines


_TOPIC_IDS = ["T1", "T2", "topic-number-3"]
_TAGS = ["tag", "other-tag"]
_DOC_IDS = _PLAIN["doc_ids"] + _ODD["doc_ids"]
_qrels_of = st.dictionaries(
    st.sampled_from(_TOPIC_IDS),
    st.dictionaries(st.sampled_from(_DOC_IDS), st.integers(-1, 2)),
    min_size=2,
)


@settings(max_examples=150, deadline=None)
@given(
    lines=_run_lines(),
    qrels=_qrels_of,
    chunk_bytes=st.integers(1, 80),
    line_end=st.sampled_from(["\n", "\r\n", "\r"]),
    last_end=st.booleans(),
)
def test_block_reader_matches_per_line_reader(lines, qrels, chunk_bytes, line_end, last_end):
    data = _file(lines, line_end, last_end)
    ranked = _outcome(data, chunk_bytes, per_line=True)
    labelled = _labelled(data, qrels, chunk_bytes, per_line=True)
    assert (_outcome(data, chunk_bytes), _labelled(data, qrels, chunk_bytes)) == (
        ranked,
        labelled,
    )
    if labelled[0] in _TAGS:  # parsed: check the labels by dict lookups
        assert labelled[1] == [
            (topic_id, [qrels[topic_id].get(doc_id, 0) > 0 for doc_id in ids])
            for topic_id, ids in ranked[1]
        ]


# Qrels lines that reading must refuse; the last is not UTF-8.
_QRELS_FAULTS = [
    "T1 0 a",
    "T1 0 a 1 T1 0 b 1",
    "T1 0",
    "T1 0 a 1 extra",
    "T1 0 a 1.0",
    "T1 0 a one",
    "T1 0 a -",
    "T1 0 a\x00 1",
    "T1 0 b\udcff 1",
]


@st.composite
def _qrels_lines(draw):
    lines = []
    for kind in draw(st.lists(st.sampled_from("ppppoobf"), min_size=1, max_size=12)):
        if kind == "b":
            lines.append(draw(st.sampled_from(["", " ", "\t", "\x0b"])))
        elif kind == "f":
            lines.append(draw(st.sampled_from(_QRELS_FAULTS)))
        else:
            fields = [draw(st.sampled_from(_TOPIC_IDS)), "0", "doc_ids", "labels"]
            lines.append(_row(draw, kind == "o", fields))
    return [line + "\n" for line in lines]


def _reference_qrels(lines: list[str]):
    """{topic: {doc: relevant}} read line by line into a dict of labels, or the error."""
    qrels: dict[str, dict[str, int]] = {}
    try:
        for line_no, line in enumerate(lines, start=1):
            ingest._require_utf8(line, line_no)
            parts = line.split()
            if len(parts) != 4:
                if not parts:
                    continue
                raise ParseError(f"expected 4 fields, got {len(parts)}: {line!r}", line_no)
            try:
                label = int(parts[3])
            except ValueError as exc:
                raise ParseError(f"bad label: {exc}", line_no) from exc
            if "\0" in parts[2]:
                raise ParseError(f"doc id holds a NUL byte: {parts[2]!r}", line_no)
            if qrels.setdefault(parts[0], {}).setdefault(parts[2], label) != label:
                raise ValidationError(
                    f"conflicting labels for topic {parts[0]!r} doc {parts[2]!r}"
                )
    except (ParseError, ValidationError) as exc:
        return _error(exc)
    return {t: {d: label > 0 for d, label in labels.items()} for t, labels in qrels.items()}


def _qrels_outcome(lines, chunk_bytes: int, per_line: bool = False):
    """{topic: {doc: relevant}} of the index parse_qrels gives, or its error."""
    with _chunked(chunk_bytes), _per_line_only(per_line):
        try:
            return _relevance(parse_qrels(_source(lines)))
        except (ParseError, ValidationError) as exc:
            return _error(exc)


@settings(max_examples=200, deadline=None)
@given(
    lines=_qrels_lines(),
    chunk_bytes=st.integers(1, 80),
    line_end=st.sampled_from(["\n", "\r\n", "\r"]),
)
def test_qrels_block_reader_matches_per_line_reader(lines, chunk_bytes, line_end):
    expected = _reference_qrels(lines)
    data = _file(lines, line_end)
    assert _qrels_outcome(data, chunk_bytes, per_line=True) == expected
    assert _qrels_outcome(data, chunk_bytes) == expected


def test_qrels_label_past_int64_is_a_parse_error():
    with pytest.raises(ParseError, match="line 2: label too large: 9223372036854775808"):
        parse_qrels(_source(["T1 0 a 1", "T1 0 b 9223372036854775808"]))
    index = parse_qrels(_source(["T1 0 a -9223372036854775807", "T1 0 b 9223372036854775807"]))
    assert _relevance(index) == {"T1": {"a": False, "b": True}}


def test_qrels_conflict_before_a_bad_line_is_reported():
    # Line by line, the conflict on line 2 is met before the bad line 3.
    lines = ["T1 0 a 1", "T1 0 a 0", "T1 0 b x", "T2 0 c 1", "T2 0 c 2"]
    with pytest.raises(ValidationError, match="topic 'T1' doc 'a'"):
        parse_qrels(_source(lines))
    with pytest.raises(ParseError, match="line 2: bad label"):
        parse_qrels(_source([lines[0], *lines[2:]]))
    # Of two conflicts, the one whose other label comes first.
    with pytest.raises(ValidationError, match="topic 'T2' doc 'c'"):
        parse_qrels(_source([lines[3], lines[0], lines[4], lines[1]]))


# Run and qrels files with each line end a text file reads, and a fault:
# rank gaps and an unjudged document (two warnings), or a short line 3.
_RUN_FILE = ["T1 NF a 1 0.9 tag", "T1 NF long-document-id-of-forty-bytes-000 3 0.5 tag"]
_QRELS_FILE = ["T1 0 a 1", "T1 0 b 0", "T1 0 long-document-id-of-forty-bytes-001 1"]


@pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("last_end", [True, False])
@pytest.mark.parametrize("short_line", [False, True])
def test_line_ends_read_as_a_text_file_reads_them(line_end, last_end, short_line):
    run_lines = [*_RUN_FILE, "T1 NF b 4"] if short_line else _RUN_FILE
    qrels_lines = [*_QRELS_FILE, "T1 0 c"] if short_line else _QRELS_FILE
    run, qrels = _file(run_lines, line_end, last_end), _file(qrels_lines, line_end, last_end)
    short_line_text = "T1 NF b 4" + "\n" * last_end  # as a text file reads it
    expected_run = (
        (ParseError, f"line 3: expected 6 fields, got 4: {short_line_text!r}", 3, [])
        if short_line
        else (
            "tag",
            [("T1", [True, False])],
            [
                "run tag topic T1: non-contiguous ranks repaired by re-ranking",
                "run tag topic T1: 1 of 2 documents not in the qrels, treated as non-relevant",
            ],
        )
    )
    expected_qrels = _reference_qrels(
        _file(qrels_lines, "\n", last_end).decode().splitlines(keepends=True)
    )
    if short_line:
        assert expected_qrels[2] == 4
    judged = {"T1": {"a": 1, "b": 0}}
    # Every chunk size up to past the longest line: chunk boundaries fall
    # between \r and \n, and inside the long ids.
    for chunk_bytes in range(1, 64):
        assert _labelled(run, judged, chunk_bytes) == expected_run
        assert _qrels_outcome(qrels, chunk_bytes) == expected_qrels


@pytest.mark.parametrize(
    "line, simple",
    [
        ("T1 NF a 1 0.5 tag", True),
        ("  T1\tNF   a\t 007 .5 tag", True),
        ("T1 NF a 3 5. tag", True),
        ("T1 NF long-document-id 2 -0.25 tag", True),
        ("T1 NF a 1 1234567.87654321 tag", True),
        ("T1 NF a 1 -0 tag", True),
        ("T1 NF a +5 0.5 tag", False),
        ("T1 NF a 1_0 0.5 tag", False),
        ("T1 NF a 0 0.5 tag", False),
        ("T1 NF a 12345678901234567 0.5 tag", False),
        ("T1 NF a 1 1e-05 tag", False),
        ("T1 NF a 1 inf tag", False),
        ("T1 NF a 1 1-2 tag", False),
        ("T1 NF a 1 - tag", False),
        ("T1 NF a 1 -5- tag", False),
        ("T1 NF a 1 .-5 tag", False),
        ("T1 NF a -1 0.5 tag", False),
        ("T1 NF a-b 1 -2 tag", True),
        ("T1 NF a 1 0.30000000000000004 tag", False),
        ("T1 NF a 1 9007199254740.99 tag", True),
        ("T1 NF a 1 9007199254740.993 tag", False),
        ("T1 NF a\x00 1 0.5 tag", False),
        ("T1 NF a 1 0.5 tag\x0b", False),
        ("T1\x1cNF a 1 0.5 tag", False),
        ("T1 NF a 1 0.5 tag\x7f", False),
        ("T1 NF é 1 0.5 tag", False),
        ("T1\xa0NF a 1 0.5 tag", False),
        ("T1 NF a 1 0.5 tag\r\n", True),
        ("T1 NF a 1 0.5", False),
    ],
)
def test_which_blocks_the_block_reader_takes(monkeypatch, line, simple):
    # tarstop.blockreader's docstring says what makes a chunk simple.  A
    # file's \r\n is read as \n before the block reader sees the chunk.
    qrels = _unjudged([line])
    calls = []
    split = ingest._split_block
    monkeypatch.setattr(ingest, "_split_block", lambda *a: calls.append(a) or split(*a))
    with contextlib.suppress(ParseError):
        parse_run(_source([line]), qrels)
    assert (not calls) == simple


@pytest.mark.parametrize(
    "line, simple",
    [
        ("T1 0 a 1", True),
        ("T1\t0  long-document-id -12", True),
        ("T1 0 a 007", True),
        ("T1 0 a +1", False),
        ("T1 0 a 1_0", False),
        ("T1 0 a 1.0", False),
        ("T1 0 a 1-", False),
        ("T1 0 a -0", True),
        ("T1 0 a -", False),
        ("T1 0 a -1-", False),
        ("T1 0 a 12345678901234567", False),
        ("T1 0 é 1", False),
        ("T1 0 a", False),
    ],
)
def test_which_qrels_blocks_the_block_reader_takes(monkeypatch, line, simple):
    calls = []
    split = ingest._split_block
    monkeypatch.setattr(ingest, "_split_block", lambda *a: calls.append(a) or split(*a))
    with contextlib.suppress(ParseError):
        parse_qrels(_source([line]))
    assert (not calls) == simple


def test_qrels_index_pickles():
    # A pool that spawns its workers hands them the index pickled.
    copy = pickle.loads(pickle.dumps(QRELS))
    assert _relevance(copy) == _relevance(QRELS)
    assert _labelled(RUN_LINES, LABELS, 40) == (
        "Test-Data-Sheffield-run-2",
        [(t.topic_id, t.relevant.tolist()) for t in parse_run(_source(RUN_LINES), copy).topics],
        [],
    )


def test_one_index_builds_each_topic_once(monkeypatch):
    # parse_qrels builds every topic's sorted ids; labelling runs reads them
    # and builds nothing more.
    index = parse_qrels(_source(QREL_LINES))
    entries = dict(index._topics)
    built = []
    monkeypatch.setattr(ingest, "_index", lambda *args: built.append(args))
    monkeypatch.setattr(ingest, "QrelsIndex", lambda *args: built.append(args))
    for lines in (RUN_LINES, RUN_LINES[::-1]):
        parse_run(_source(lines), index)
    assert not built
    assert index._topics.keys() == entries.keys()
    assert all(index._topics[t] is entry for t, entry in entries.items())


@pytest.mark.parametrize(
    "doc_ids, judged",
    [
        # Long ids against qrels of long and short ids.
        pytest.param(
            [f"long-document-{i}" for i in range(4)],
            ["long-document-1", "long-doc", "long-document-3"],
            id="long-run",
        ),
        # Short ids against qrels whose topic holds one long id.
        pytest.param(
            ["d0", "d1", "long-doc", "d3"],
            ["d1", "long-document-2", "d3"],
            id="short-run",
        ),
    ],
)
def test_long_ids_label_by_their_bytes(doc_ids, judged):
    # "long-doc" is the first 8 bytes of a longer id, which it must not match.
    lines = [f"T1 NF {doc_id} {rank} 0.5 tag" for rank, doc_id in enumerate(doc_ids, 1)]
    qrels = parse_qrels(_source([f"T1 0 {doc_id} 1" for doc_id in judged]))
    relevant = parse_run(_source(lines), qrels).topics[0].relevant
    assert relevant.tolist() == [False, True, False, True]
    qrels = parse_qrels(_source([f"T1 0 {doc_id} 1" for doc_id in judged[:2]]))
    relevant = parse_run(_source(lines), qrels).topics[0].relevant
    assert relevant.tolist() == [False, True, False, False]


def test_ids_holding_nul_or_01_keep_their_bytes():
    # Tied ranks and scores: the ids order as strings, 01 first.
    lines = [f"T1 NF {doc_id} 1 0.5 tag" for doc_id in ["a\x01", "a", "\x01\x01", "\x01"]]
    qrels = _index({"T1": {"a\x01": 1, "\x01": 1, "a": 0}})
    relevant = parse_run(_source(lines), qrels).topics[0].relevant
    assert relevant.tolist() == [True, False, False, True]
    with pytest.raises(ValidationError, match=r"duplicate doc_id 'a\\x01'"):
        parse_run(_source([*lines, lines[0]]), qrels)
    # A NUL would read back as padding, so an id holding one is refused.
    with pytest.raises(ParseError, match=r"^line 2: doc id holds a NUL byte: 'a\\x00'$"):
        parse_run(_source([lines[1], "T1 NF a\x00 2 0.5 tag"]), qrels)


@pytest.mark.parametrize(
    "parse, good, bad",
    [
        (lambda source: parse_run(source, EMPTY), "T1 NF a 1 0.5 tag", "T1 NF \x00b 2 0.5 tag"),
        (parse_qrels, "T1 0 a 1", "T1 0 \x00b 1"),
    ],
    ids=["run", "qrels"],
)
def test_nul_in_a_doc_id_is_a_parse_error(parse, good, bad):
    # The error names the NUL's line wherever the chunks are cut.
    data = f"{good}\n{bad}\n".encode()
    for chunk_bytes in range(1, len(data) + 1):
        with _chunked(chunk_bytes), pytest.raises(ParseError) as raised:
            parse(io.BytesIO(data))
        assert str(raised.value) == "line 2: doc id holds a NUL byte: '\\x00b'"


def test_parse_run_memory_is_bounded(monkeypatch):
    # Until every topic is labelled, parse_run holds a doc id (one 8-byte
    # word here), a rank and a score per row (24 bytes), beside one chunk
    # of lines at work.  On a CLEF-sized run (120,000 rows) that peaks
    # under 40 bytes a row beyond the Run returned; holding each row's
    # doc-id string needs over 100.  The qrels index is built first, as a
    # worker is handed it, and so are the file's bytes.
    monkeypatch.setattr(ingest, "_CHUNK_BYTES", DEFAULT_CHUNK_BYTES)
    lines = [
        f"T{t:02d} NF {10_000_000 + 10_000 * t + r} {r} {1 / r:.6f} run-tag"
        for t in range(30)
        for r in range(1, 4001)
    ]
    qrels = _unjudged(lines)
    parse_run(_source(lines), qrels)
    source = _source(lines)
    tracemalloc.start()
    try:
        run = parse_run(source, qrels)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(topic.size for topic in run.topics) == len(lines)
    assert peak - kept < 40 * len(lines)


def test_parse_qrels_memory_is_bounded(monkeypatch):
    # The index keeps a doc id (one 8-byte word here) and a relevance flag
    # per judgement (9 bytes); reading a file of 120,000 judgements into it
    # peaks under 36 bytes a judgement, the index included.  A dict of the
    # labels held about 86.
    monkeypatch.setattr(ingest, "_CHUNK_BYTES", DEFAULT_CHUNK_BYTES)
    data = "".join(
        f"T{t:02d} 0 {10_000_000 + 10_000 * t + r} {int(r % 7 == 0)}\n"
        for t in range(30)
        for r in range(1, 4001)
    ).encode()
    tracemalloc.start()
    try:
        index = parse_qrels(io.BytesIO(data))
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(len(entry[0]) for entry in index._topics.values()) == 120_000
    assert kept < 12 * 120_000
    assert peak < 36 * 120_000
