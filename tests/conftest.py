import pytest

from tarstop.core import Topic


def make_topic(topic_id: str, relevant_ranks: set[int], n: int) -> Topic:
    """Topic of size n with relevance at the given 1-based ranks."""
    return Topic(topic_id, [i in relevant_ranks for i in range(1, n + 1)])


def doc_ids(n: int) -> list[str]:
    """Doc ids d0000001..dn, the ids test data files are written with."""
    return [f"d{i:07d}" for i in range(1, n + 1)]


def serialize_run(run_tag: str, ranked: dict[str, list[str]]) -> list[str]:
    """Run-file lines of {topic_id: doc ids in rank order} (score 1/rank, flag NF)."""
    return [
        f"{topic_id} NF {doc_id} {rank} {1.0 / rank:.6f} {run_tag}"
        for topic_id, ids in ranked.items()
        for rank, doc_id in enumerate(ids, start=1)
    ]


def serialize_qrels(judged: dict[str, tuple[list[str], list[bool]]]) -> list[str]:
    """Qrels lines of {topic_id: (doc ids, their relevance labels)}."""
    return [
        f"{topic_id} 0 {doc_id} {int(rel)}"
        for topic_id, (ids, labels) in judged.items()
        for doc_id, rel in zip(ids, labels)
    ]


@pytest.fixture
def small_topic():
    return make_topic("small", {1, 3}, 5)
