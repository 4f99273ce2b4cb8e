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
    judged = parse_qrels(QREL_LINES)["CD010775"]
    assert judged.doc_ids.tolist() == ["18850670", "10503898", "19307324"]
    assert judged.relevant.tolist() == [True, False, True]
    assert judged.row == {"18850670": 0, "10503898": 1, "19307324": 2}
    assert judged.relevant[judged.row["18850670"]]
    assert not judged.relevant[judged.row["10503898"]]
    assert not judged.doc_ids.flags.writeable
    assert not judged.relevant.flags.writeable


def test_parse_qrels_repeated_label_keeps_one_row():
    judged = parse_qrels(["T1 0 a 2", "T1 0 b 0", "T1 0 a 2"])["T1"]
    assert judged.doc_ids.tolist() == ["a", "b"]
    assert judged.relevant.tolist() == [True, False]


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
    joined = join(run, parse_qrels(["T1 0 known 1"]))
    topic = joined.topics[0]
    assert dict(zip(topic.doc_ids, topic.relevant.tolist())) == {
        "known": True,
        "unknown": False,
    }
    assert topic.doc_ids[1] is run.topics[0].doc_ids[1]  # the run's own string


def test_join_missing_topic_errors():
    run = parse_run(RUN_LINES)
    with pytest.raises(ValidationError):
        join(run, parse_qrels(["CD010775 0 19307324 1"]))


def test_join_preserves_order():
    run = parse_run(RUN_LINES)
    joined = join(run, parse_qrels(QREL_LINES))
    for before, after in zip(run.topics, joined.topics):
        assert after.topic_id == before.topic_id
        assert after.doc_ids == before.doc_ids


def test_joined_runs_share_the_qrels_id_strings():
    qrels = parse_qrels(QREL_LINES)
    first_run = parse_run(RUN_LINES)
    first = join(first_run, qrels)
    second = {t.topic_id: t for t in join(parse_run(RUN_LINES[::-1]), qrels).topics}
    for topic, parsed in zip(first.topics, first_run.topics):
        judged = qrels[topic.topic_id]
        other = second[topic.topic_id]
        assert other.doc_ids == topic.doc_ids
        for doc_id, parsed_id, other_id in zip(
            topic.doc_ids, parsed.doc_ids, other.doc_ids
        ):
            own = judged.doc_ids[judged.row[doc_id]]
            assert parsed_id is not own  # parse_run made its own string
            assert doc_id is own
            assert other_id is own


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
    qrels = parse_qrels(["CD010775 0 19307324 1", *QREL_LINES[3:]])
    with caplog.at_level(logging.WARNING, logger="tarstop.ingest"):
        join(run, qrels)
    messages = [r.getMessage() for r in caplog.records]
    assert messages == [
        "run Test-Data-Sheffield-run-2 topic CD010775: 2 of 3 documents "
        "not in the qrels, treated as non-relevant"
    ]


_topic_ids = st.sampled_from(["A", "B"])
# Ids of two or more characters, which CPython does not cache, so that `is`
# tells the qrels' strings from the run's.
_judged_ids = ["d1", "d2", "d3", "d4"]


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
    run = parse_run(
        [f"{t} NF {d} {rank} 0.5 tag" for rank, (t, d) in enumerate(run_pairs, 1)]
    )
    qrels = parse_qrels(qrels_lines)
    joined = join(run, qrels)
    for before, after in zip(run.topics, joined.topics):
        judged = reference[before.topic_id]
        assert after.topic_id == before.topic_id
        assert after.doc_ids == before.doc_ids
        assert after.relevant.tolist() == [
            judged.get(doc_id, False) for doc_id in before.doc_ids
        ]
        table = qrels[before.topic_id]
        for doc_id, own in zip(after.doc_ids, before.doc_ids):
            if doc_id in judged:
                assert doc_id is table.doc_ids[table.row[doc_id]]
            else:
                assert doc_id is own
