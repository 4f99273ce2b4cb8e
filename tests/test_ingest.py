import logging

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tarstop.core import rel_at
from tarstop.errors import ParseError, ValidationError
from tarstop.ingest import (
    join,
    parse_qrels,
    parse_run,
    serialize_qrels,
    serialize_run,
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


def test_parse_run_single_record():
    run = parse_run([RUN_LINES[0]])
    assert run.run_tag == "Test-Data-Sheffield-run-2"
    topic = run.topics[0]
    assert topic.topic_id == "CD010775"
    assert topic.doc_ids == ("19307324",)
    assert not topic.relevant.any()


def test_parse_run_empty_input():
    with pytest.raises(ParseError):
        parse_run([])


def test_parse_run_interleaved_topics():
    interleaved = [RUN_LINES[0], RUN_LINES[3], RUN_LINES[1], RUN_LINES[4], RUN_LINES[2]]
    run = parse_run(interleaved)
    assert len(run.topics) == 2
    by_id = {t.topic_id: t for t in run.topics}
    assert by_id["CD010775"].doc_ids == ("19307324", "10503898", "18850670")
    assert by_id["CD008122"].doc_ids == ("11111111", "22222222")


def test_parse_run_malformed_line_reports_number():
    with pytest.raises(ParseError, match="line 2"):
        parse_run([RUN_LINES[0], "too few fields"])


def test_parse_run_duplicate_doc():
    with pytest.raises(ValidationError):
        parse_run([RUN_LINES[0], RUN_LINES[0].replace(" 1 ", " 2 ")])


def test_parse_run_repairs_rank_gaps():
    gapped = [
        "T1 NF a 2 0.9 tag",
        "T1 NF b 10 0.5 tag",
        "T1 NF c 30 0.1 tag",
    ]
    run = parse_run(gapped)
    assert run.topics[0].doc_ids == ("a", "b", "c")


def test_parse_run_rank_ties_by_score():
    tied = ["T1 NF low 1 0.2 tag", "T1 NF high 1 0.9 tag"]
    run = parse_run(tied)
    assert run.topics[0].doc_ids == ("high", "low")


def test_parse_qrels_labels():
    qrels = parse_qrels(QREL_LINES)
    assert qrels["CD010775"]["18850670"] is True
    assert qrels["CD010775"]["10503898"] is False


def test_parse_qrels_conflicting_duplicate():
    with pytest.raises(ValidationError):
        parse_qrels(["T1 0 a 1", "T1 0 a 0"])


def test_parse_qrels_malformed():
    with pytest.raises(ParseError, match="line 1"):
        parse_qrels(["only three fields x"])


def test_join_sets_flags():
    run = parse_run(RUN_LINES)
    joined = join(run, parse_qrels(QREL_LINES))
    topic = {t.topic_id: t for t in joined.topics}["CD010775"]
    assert dict(zip(topic.doc_ids, topic.relevant.tolist())) == {
        "19307324": True,
        "10503898": False,
        "18850670": True,
    }


def test_join_missing_doc_is_nonrelevant():
    run = parse_run(["T1 NF known 1 0.9 tag", "T1 NF unknown 2 0.5 tag"])
    joined = join(run, {"T1": {"known": True}})
    topic = joined.topics[0]
    assert dict(zip(topic.doc_ids, topic.relevant.tolist())) == {
        "known": True,
        "unknown": False,
    }


def test_join_missing_topic_errors():
    run = parse_run(RUN_LINES)
    with pytest.raises(ValidationError):
        join(run, {"CD010775": {}})


def test_join_preserves_order():
    run = parse_run(RUN_LINES)
    joined = join(run, parse_qrels(QREL_LINES))
    for before, after in zip(run.topics, joined.topics):
        assert after.doc_ids is before.doc_ids  # shared, not copied


def test_run_round_trip():
    joined = join(parse_run(RUN_LINES), parse_qrels(QREL_LINES))
    reparsed = join(
        parse_run(serialize_run(joined)), parse_qrels(serialize_qrels(joined.topics))
    )
    assert reparsed == joined


def test_validate_synthetic_dataset_warns():
    runs = [parse_run(RUN_LINES)]
    summary = validate_dataset(runs, parse_qrels(QREL_LINES))
    assert summary.topic_count == 2
    assert summary.total_docs == 5
    assert all(status == "warn" for _, status in summary.checks)


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
    with pytest.raises(ParseError, match=f"line 5: {message}"):
        parse_run(lines)


def test_parse_run_counts_leading_blank_lines():
    with pytest.raises(ParseError, match="line 3: bad rank/score"):
        parse_run(["", "  ", "T1 NF a x 0.9 tag"])


def test_parse_run_reports_first_bad_line():
    # A bad rank on line 2 comes before a short line 3.
    with pytest.raises(ParseError, match="line 2: bad rank/score"):
        parse_run(["T1 NF a 1 0.9 tag", "T1 NF b x 0.8 tag", "T1 NF c 3"])


def _warns(caplog, lines) -> bool:
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="tarstop.ingest"):
        parse_run(lines)
    return "non-contiguous ranks" in caplog.text


def test_parse_run_non_contiguous_warning(caplog):
    assert _warns(caplog, ["T1 NF a 1 0.9 tag", "T1 NF b 3 0.5 tag"])
    assert _warns(
        caplog, ["T1 NF a 1 0.9 tag", "T1 NF b 1 0.5 tag", "T1 NF c 3 0.1 tag"]
    )
    shuffled = ["T1 NF c 3 0.1 tag", "T1 NF a 1 0.9 tag", "T1 NF b 2 0.5 tag"]
    assert not _warns(caplog, shuffled)
    assert parse_run(shuffled).topics[0].doc_ids == ("a", "b", "c")


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


@given(_rows)
def test_parse_run_orders_by_rank_score_doc(rows):
    lines = [f"{t} NF {d} {r} {s!r} tag" for t, d, r, s in rows]
    run = parse_run(lines)
    for topic in run.topics:
        expected = sorted(
            (row for row in rows if row[0] == topic.topic_id),
            key=lambda row: (row[2], -row[3], row[1]),
        )
        assert topic.doc_ids == tuple(row[1] for row in expected)
    first_seen = list(dict.fromkeys(row[0] for row in rows))
    assert [t.topic_id for t in run.topics] == first_seen


def test_topic_counts_are_python_ints():
    topic = join(parse_run(RUN_LINES), parse_qrels(QREL_LINES)).topics[0]
    assert type(rel_at(topic, 2)) is int
    assert type(topic.total_relevant) is int
    assert not topic.cumrel.flags.writeable
    assert not topic.relevant.flags.writeable
    with pytest.raises(ValueError):
        topic.cumrel[1] = 5


def test_join_logs_documents_missing_from_qrels(caplog):
    run = parse_run(RUN_LINES)
    qrels = parse_qrels(QREL_LINES)
    qrels["CD010775"] = {"19307324": True}
    with caplog.at_level(logging.WARNING, logger="tarstop.ingest"):
        join(run, qrels)
    messages = [r.getMessage() for r in caplog.records]
    assert messages == [
        "run Test-Data-Sheffield-run-2 topic CD010775: 2 of 3 documents "
        "not in the qrels, treated as non-relevant"
    ]
