import pytest

from tarstop.core import Topic


def make_topic(topic_id: str, relevant_ranks: set[int], n: int) -> Topic:
    """Topic of size n with relevance at the given 1-based ranks."""
    ranks = range(1, n + 1)
    return Topic(
        topic_id=topic_id,
        doc_ids=tuple(f"doc{i}" for i in ranks),
        relevant=[i in relevant_ranks for i in ranks],
    )


@pytest.fixture
def small_topic():
    return make_topic("small", {1, 3}, 5)
