import contextlib
import logging
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
from tarstop.ingest import (
    CLEF2017_STATS,
    QrelsIndex,
    parse_qrels,
    parse_run,
    validate_dataset,
)

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

QRELS = parse_qrels(QREL_LINES)

DEFAULT_BLOCK_LINES = ingest._BLOCK_LINES


@pytest.fixture(autouse=True)
def _small_blocks(monkeypatch):
    """Blocks of two lines, so that multi-line runs cross block boundaries."""
    monkeypatch.setattr(ingest, "_BLOCK_LINES", 2)


def _unjudged(lines) -> dict[str, dict[str, int]]:
    """Qrels judging every (topic, doc) of the well-formed lines non-relevant."""
    qrels: dict[str, dict[str, int]] = {}
    for fields in map(str.split, lines):
        if len(fields) == 6:
            qrels.setdefault(fields[0], {})[fields[2]] = 0
    return qrels


def _ranked(lines):
    """The run tag and each topic's doc ids in the order parse_run ranks them.

    Topics keep labels alone, so each doc id gets a parse of its own whose
    qrels mark only it relevant: its rank is the one relevant position.
    """
    unjudged = _unjudged(lines)
    run = parse_run(lines, unjudged)
    ranked = []
    for index, topic in enumerate(run.topics):
        ids = [None] * topic.size
        for doc_id in unjudged[topic.topic_id]:
            qrels = {**unjudged, topic.topic_id: {**unjudged[topic.topic_id], doc_id: 1}}
            (rank,) = np.flatnonzero(parse_run(lines, qrels).topics[index].relevant)
            ids[rank] = doc_id
        ranked.append((topic.topic_id, tuple(ids)))
    return run.run_tag, tuple(ranked)


def test_parse_run_single_record():
    run = parse_run([RUN_LINES[0]], QRELS)
    assert run.run_tag == "Test-Data-Sheffield-run-2"
    topic = run.topics[0]
    assert topic.topic_id == "CD010775"
    assert topic.relevant.tolist() == [True]


def test_parse_run_empty_input():
    with pytest.raises(ParseError):
        parse_run([], QRELS)


def test_parse_run_interleaved_topics():
    interleaved = [RUN_LINES[0], RUN_LINES[3], RUN_LINES[1], RUN_LINES[4], RUN_LINES[2]]
    assert _ranked(interleaved) == (
        "Test-Data-Sheffield-run-2",
        (
            ("CD010775", ("19307324", "10503898", "18850670")),
            ("CD008122", ("11111111", "22222222")),
        ),
    )
    by_id = {t.topic_id: t for t in parse_run(interleaved, QRELS).topics}
    assert by_id["CD010775"].relevant.tolist() == [True, False, True]
    assert by_id["CD008122"].relevant.tolist() == [True, False]


def test_parse_run_malformed_line_reports_number():
    with pytest.raises(ParseError, match="line 2"):
        parse_run([RUN_LINES[0], "too few fields"], QRELS)


def test_parse_run_duplicate_doc():
    with pytest.raises(
        ValidationError, match="topic 'CD010775' has duplicate doc_id '19307324'"
    ):
        parse_run([RUN_LINES[0], RUN_LINES[0].replace(" 1 ", " 2 ")], QRELS)


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
    run = parse_run(RUN_LINES, QRELS)
    assert built == [topic.topic_id for topic in run.topics] == ["CD010775", "CD008122"]


def test_parse_run_reports_duplicate_before_missing_qrels_topic():
    # T1 is missing from the qrels and T2, a later topic, repeats a doc id.
    lines = ["T1 NF a 1 0.9 tag", "T2 NF b 1 0.9 tag", "T2 NF b 2 0.5 tag"]
    qrels = parse_qrels(["T2 0 b 1"])
    with pytest.raises(ValidationError, match="topic 'T2' has duplicate doc_id 'b'"):
        parse_run(lines, qrels)
    with pytest.raises(ValidationError, match="topic 'T1' missing from qrels"):
        parse_run(lines[:2], qrels)
    # A parse error beats both.
    with pytest.raises(ParseError, match="line 4: expected 6 fields"):
        parse_run([*lines, "T2 NF c 3"], qrels)


def test_parse_qrels_labels():
    assert parse_qrels(QREL_LINES) == {
        "CD010775": {"18850670": 1, "10503898": 0, "19307324": 1},
        "CD008122": {"11111111": 1, "22222222": 0},
    }


def test_parse_qrels_repeated_label_keeps_one_row():
    assert parse_qrels(["T1 0 a 2", "T1 0 b 0", "T1 0 a 2"]) == {
        "T1": {"a": 2, "b": 0}
    }


def test_parse_qrels_conflicting_duplicate():
    # In the second pair both labels mean relevant, but the integers differ.
    for second in ("T1 0 a 0", "T1 0 a 2"):
        with pytest.raises(
            ValidationError, match="conflicting labels for topic 'T1' doc 'a'"
        ):
            parse_qrels(["T1 0 a 1", second])


def test_parse_qrels_malformed():
    with pytest.raises(ParseError, match="line 1"):
        parse_qrels(["only three fields x"])


# The join of a run with the qrels: parse_run labels each ranked document.


def test_join_sets_flags():
    topic = parse_run(RUN_LINES, QRELS).topics[0]
    # 19307324, 10503898 and 18850670 in rank order.
    assert topic.topic_id == "CD010775"
    assert topic.relevant.tolist() == [True, False, True]


def test_join_missing_doc_is_nonrelevant():
    lines = ["T1 NF known 1 0.9 tag", "T1 NF unknown 2 0.5 tag"]
    topic = parse_run(lines, parse_qrels(["T1 0 known 1"])).topics[0]
    assert topic.relevant.tolist() == [True, False]


def test_join_missing_topic_errors():
    with pytest.raises(ValidationError, match="topic 'CD008122' missing from qrels"):
        parse_run(RUN_LINES, parse_qrels(["CD010775 0 19307324 1"]))


def test_join_preserves_order():
    tag, ranked = _ranked(RUN_LINES)
    run = parse_run(RUN_LINES, QRELS)
    assert run.run_tag == tag
    for (topic_id, ids), topic in zip(ranked, run.topics, strict=True):
        assert topic.topic_id == topic_id
        assert topic.relevant.tolist() == [QRELS[topic_id][d] > 0 for d in ids]


def test_run_round_trip():
    ids = ["b", "a", "c"]
    labels = [True, False, True]
    lines = serialize_run("tag", {"T1": ids, "T2": ids[::-1]})
    qrels = parse_qrels(serialize_qrels({"T1": (ids, labels), "T2": (ids, labels)}))
    assert _ranked(lines) == ("tag", (("T1", tuple(ids)), ("T2", tuple(ids[::-1]))))
    run = parse_run(lines, qrels)
    assert [t.relevant.tolist() for t in run.topics] == [labels, labels[::-1]]


def test_validate_synthetic_dataset_warns():
    summary = validate_dataset(parse_run(RUN_LINES, QRELS))
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
        parse_run(lines, {})


def test_parse_run_counts_leading_blank_lines():
    with pytest.raises(ParseError, match="line 3: bad rank/score"):
        parse_run(["", "  ", "T1 NF a x 0.9 tag"], {})


def test_parse_run_reports_first_bad_line():
    # A bad rank on line 2 comes before a short line 3.
    with pytest.raises(ParseError, match="line 2: bad rank/score"):
        parse_run(["T1 NF a 1 0.9 tag", "T1 NF b x 0.8 tag", "T1 NF c 3"], {})


def _warns(caplog, lines) -> bool:
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="tarstop.ingest"):
        parse_run(lines, _unjudged(lines))
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
    topic = parse_run(RUN_LINES, QRELS).topics[0]
    assert type(rel_at(topic, 2)) is int
    assert type(topic.total_relevant) is int
    assert not topic.cumrel.flags.writeable
    assert not topic.relevant.flags.writeable
    with pytest.raises(ValueError):
        topic.cumrel[1] = 5


def test_join_logs_documents_missing_from_qrels(caplog):
    qrels = parse_qrels(["CD010775 0 19307324 1", *QREL_LINES[3:]])
    with caplog.at_level(logging.WARNING, logger="tarstop.ingest"):
        parse_run(RUN_LINES, qrels)
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
    run = parse_run(
        [f"{t} NF {d} {rank} 0.5 tag" for rank, (t, d) in enumerate(run_pairs, 1)],
        parse_qrels(qrels_lines),
    )
    first_seen = list(dict.fromkeys(t for t, _ in run_pairs))
    assert [topic.topic_id for topic in run.topics] == first_seen
    for topic in run.topics:
        judged = reference[topic.topic_id]
        ids = [d for t, d in run_pairs if t == topic.topic_id]
        assert topic.relevant.tolist() == [judged.get(d, False) for d in ids]


# One line per fault that parse_run must report the same way wherever block
# boundaries fall; "interleaved topic" is no fault and parses.
_BLOCK_FAULTS = {
    "five fields": "T1 NF z 2 0.5",
    "seven fields": "T1 NF z 2 0.5 tag extra",
    "bad rank": "T1 NF z two 0.5 tag",
    "bad score": "T1 NF z 2 high tag",
    "rank 0": "T1 NF z 0 0.5 tag",
    "rank above int64": "T1 NF z 99999999999999999999 0.5 tag",
    "duplicate doc": "T1 NF g0 2 0.5 tag",
    "interleaved topic": "T2 NF z 1 0.5 tag",
}


def _per_line_only(per_line: bool):
    """With per_line, every block goes through the per-line reader."""
    if not per_line:
        return contextlib.nullcontext()
    return mock.patch.object(ingest, "read_block", lambda block: None)


def _outcome(lines: list[str], block_lines: int, per_line: bool = False):
    """The run tag and ranked ids parse_run gives, or its error's type, message and line."""
    blocks = mock.patch.object(ingest, "_BLOCK_LINES", block_lines)
    with blocks, _per_line_only(per_line):
        try:
            return _ranked(lines)
        except (ParseError, ValidationError) as exc:
            return type(exc), str(exc), getattr(exc, "line_no", None)


def _labelled(lines: list[str], qrels, block_lines: int, per_line: bool = False):
    """The Run parse_run gives, as tags and labels, and its warnings; or its error."""
    messages = []
    handler = logging.Handler()
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("tarstop.ingest")
    logger.addHandler(handler)
    try:
        with mock.patch.object(ingest, "_BLOCK_LINES", block_lines), _per_line_only(
            per_line
        ):
            run = parse_run(lines, qrels)
        return (
            run.run_tag,
            [(topic.topic_id, topic.relevant.tolist()) for topic in run.topics],
            messages,
        )
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None), messages
    finally:
        logger.removeHandler(handler)


@settings(deadline=None)
@given(
    fault=st.sampled_from(sorted(_BLOCK_FAULTS)),
    block_lines=st.integers(1, 4),
    full_blocks=st.integers(1, 2),
    first_of_next=st.booleans(),
    blank_before=st.integers(0, 2),
    blank_after=st.integers(0, 2),
    rows_after=st.integers(1, 3),
    short_line_last=st.booleans(),
)
def test_parse_run_block_boundaries_leave_outcome(
    fault,
    block_lines,
    full_blocks,
    first_of_next,
    blank_before,
    blank_after,
    rows_after,
    short_line_last,
):
    # The fault sits on the last line of a block or the first line of the
    # next, with blank lines beside it; a short last line is a later fault.
    at = block_lines * full_blocks - 1 + first_of_next
    blank_before = min(blank_before, at)
    row = at - blank_before
    good = [f"T1 NF g{i} {i + 1} 0.5 tag" for i in range(row + rows_after)]
    lines = [
        *good[:row],
        *[""] * blank_before,
        _BLOCK_FAULTS[fault],
        *[""] * blank_after,
        *good[row:],
        *["T1 NF late 9"] * short_line_last,
    ]
    expected = _outcome(lines, DEFAULT_BLOCK_LINES)
    if fault in ("duplicate doc", "interleaved topic"):
        parses = fault == "interleaved topic" and not short_line_last
        assert (expected[0] == "tag") == parses
    else:
        assert expected[0] is ParseError
        assert expected[2] == at + 1  # the first bad line
    assert _outcome(lines, block_lines) == expected


# What the differential test below draws from.  Each row is plain, which
# the block reader takes, or odd, which only the per-line reader does: str
# whitespace beyond space, tab and newline, non-ASCII ids, ids holding NUL
# and 01 (stored escaped), ranks int() reads with a sign or an underscore,
# and scores in every other form float() reads.
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
}
_ODD = {
    "separators": ["\x0b", "\x1c", "\xa0", "\u3000"],
    "doc_ids": ["é", "ü-2", "a\x00", "\x01b"],
    "ranks": st.sampled_from(["+5", "1_0", "0", "12345678901234567"]),
    "scores": st.sampled_from(["1e-05", "inf", "nan", "+1.5", "0.30000000000000004"])
    | st.floats(-100, 100).map(repr),
}


@st.composite
def _run_lines(draw):
    lines = []
    for kind in draw(st.lists(st.sampled_from("ppppoobf"), min_size=1, max_size=10)):
        if kind == "b":
            lines.append(draw(st.sampled_from(["", " ", "\t", "\x0b"])))
        elif kind == "f":
            lines.append(draw(st.sampled_from(sorted(_BLOCK_FAULTS.values()))))
        else:
            # An odd row is odd in one field or separator, drawn as plain or odd.
            styles = [_PLAIN] * 9
            if kind == "o":
                styles[draw(st.integers(0, 8))] = _ODD
            separator = [
                draw(st.sampled_from(style["separators"])) for style in styles[:6]
            ]
            fields = [
                draw(st.sampled_from(_TOPIC_IDS)),
                "Q0",
                draw(st.sampled_from(styles[6]["doc_ids"])),
                draw(styles[7]["ranks"]),
                draw(styles[8]["scores"]),
                draw(st.sampled_from(["tag", "other-tag"])),
            ]
            line = "".join(s + f for s, f in zip(separator, fields))
            lines.append(line if draw(st.booleans()) else line.lstrip())
    if draw(st.booleans()):  # as a file hands them over
        lines = [line + "\n" for line in lines]
    return lines


_TOPIC_IDS = ["T1", "T2", "topic-number-3"]
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
    block_lines=st.integers(1, 4),
    collide=st.booleans(),
)
def test_block_reader_matches_per_line_reader(lines, qrels, block_lines, collide):
    # With collide, every id longer than 8 bytes hashes to one key.
    collisions = mock.patch.object(
        ingest, "_hash", lambda words: np.zeros(len(words), dtype=np.uint64)
    )
    with collisions if collide else contextlib.nullcontext():
        ranked = _outcome(lines, block_lines, per_line=True)
        labelled = _labelled(lines, qrels, block_lines, per_line=True)
        assert (_outcome(lines, block_lines), _labelled(lines, qrels, block_lines)) == (
            ranked,
            labelled,
        )
    if labelled[0] in ("tag", "other-tag"):  # parsed: check the labels by dict lookups
        assert labelled[1] == [
            (topic_id, [qrels[topic_id].get(doc_id, 0) > 0 for doc_id in ids])
            for topic_id, ids in ranked[1]
        ]


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
        ("T1 NF a 1 0.30000000000000004 tag", False),
        ("T1 NF a 1 9007199254740.99 tag", True),
        ("T1 NF a 1 9007199254740.993 tag", False),
        ("T1 NF a\x00 1 0.5 tag", False),
        ("T1 NF a 1 0.5 tag\x0b", False),
        ("T1\x1cNF a 1 0.5 tag", False),
        ("T1 NF a 1 0.5 tag\x7f", False),
        ("T1 NF é 1 0.5 tag", False),
        ("T1\xa0NF a 1 0.5 tag", False),
        ("T1 NF a 1 0.5 tag\r\n", False),
        ("T1 NF a 1 0.5", False),
    ],
)
def test_which_blocks_the_block_reader_takes(monkeypatch, line, simple):
    # tarstop.blockreader's docstring says what makes a block simple.
    calls = []
    split = ingest._split_block
    monkeypatch.setattr(ingest, "_split_block", lambda *a: calls.append(a) or split(*a))
    with contextlib.suppress(ParseError):
        parse_run([line], _unjudged([line]))
    assert (not calls) == simple


def test_one_index_builds_each_topic_once(monkeypatch):
    built = []
    id_words = ingest._id_words
    monkeypatch.setattr(
        ingest, "_id_words", lambda ids: built.append(ids) or id_words(ids)
    )
    index = QrelsIndex(QRELS)
    for lines in (RUN_LINES, RUN_LINES[::-1]):
        parse_run(lines, index)
    assert sorted(map(sorted, built)) == sorted(map(sorted, map(list, QRELS.values())))


@pytest.mark.parametrize("collide", [False, True])
def test_long_ids_label_by_their_bytes(monkeypatch, collide):
    # With collide, every id longer than 8 bytes hashes to one key.
    if collide:
        monkeypatch.setattr(
            ingest, "_hash", lambda words: np.zeros(len(words), np.uint64)
        )
    lines = [f"T1 NF long-document-{i} {i + 1} 0.5 tag" for i in range(4)]
    qrels = parse_qrels(["T1 0 long-document-1 1", "T1 0 d 1"])
    relevant = parse_run(lines, qrels).topics[0].relevant
    assert relevant.tolist() == [False, True, False, False]
    qrels = parse_qrels(["T1 0 long-document-1 1", "T1 0 long-document-3 2"])
    relevant = parse_run(lines, qrels).topics[0].relevant
    assert relevant.tolist() == [False, True, False, True]


def test_ids_holding_nul_or_01_keep_their_bytes():
    # Tied ranks and scores: the ids order as strings, NUL first.
    lines = [f"T1 NF {doc_id} 1 0.5 tag" for doc_id in ["a\x00", "a", "\x01", "\x00"]]
    qrels = {"T1": {"a\x00": 1, "\x00": 1, "a": 0}}
    relevant = parse_run(lines, qrels).topics[0].relevant
    assert relevant.tolist() == [True, False, False, True]
    with pytest.raises(ValidationError, match=r"duplicate doc_id 'a\\x00'"):
        parse_run([*lines, lines[0]], qrels)


def test_parse_run_memory_is_bounded(monkeypatch):
    # Until every topic is labelled, parse_run holds a doc-id key, a rank
    # and a score per row (24 bytes), beside one block of lines at work.
    # On a CLEF-sized run (120,000 rows) that peaks under 40 bytes a row
    # beyond the Run returned; holding each row's doc-id string needs over
    # 100.  The qrels' keys are built first, as a worker builds them once.
    monkeypatch.setattr(ingest, "_BLOCK_LINES", DEFAULT_BLOCK_LINES)
    lines = [
        f"T{t:02d} NF {10_000_000 + 10_000 * t + r} {r} {1 / r:.6f} run-tag"
        for t in range(30)
        for r in range(1, 4001)
    ]
    qrels = QrelsIndex(_unjudged(lines))
    parse_run(lines, qrels)
    tracemalloc.start()
    try:
        run = parse_run(lines, qrels)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(topic.size for topic in run.topics) == len(lines)
    assert peak - kept < 40 * len(lines)
