"""Domain types: topics, runs and stopping outcomes."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from tarstop.errors import ValidationError


@dataclass(frozen=True, eq=False)
class Topic:
    """The binary relevance labels of one ranked document list.

    ``relevant[i]`` is the label of the document at rank ``i + 1``.
    ``cumrel[r]`` counts the relevant documents at ranks 1..r, so it has
    ``size + 1`` entries and starts at 0.  Both arrays are read-only.
    """

    topic_id: str
    relevant: np.ndarray
    cumrel: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        relevant = np.array(self.relevant, dtype=bool)
        if not len(relevant):
            raise ValidationError(f"topic {self.topic_id!r} has no documents")
        cumrel = np.zeros(len(relevant) + 1, dtype=np.int32)
        np.cumsum(relevant, dtype=np.int32, out=cumrel[1:])
        relevant.flags.writeable = False
        cumrel.flags.writeable = False
        object.__setattr__(self, "relevant", relevant)
        object.__setattr__(self, "cumrel", cumrel)

    @property
    def size(self) -> int:
        return len(self.relevant)

    @property
    def total_relevant(self) -> int:
        return int(self.cumrel[-1])


@dataclass(frozen=True)
class Run:
    """A named collection of topics (one shared-task submission)."""

    run_tag: str
    topics: tuple[Topic, ...]

    def __post_init__(self):
        ids = [t.topic_id for t in self.topics]
        if len(ids) != len(set(ids)):
            raise ValidationError(f"run {self.run_tag!r} has duplicate topic_ids")


@dataclass(frozen=True)
class StopOutcome:
    """A stopping rule's decision on one topic.

    ``stop_rank`` is the last examined ranked position.  ``extra_examined``
    counts examined documents outside the ranked prefix (random samples past
    the stopping rank).  ``predicted`` is False when the rule fell back to
    examining everything.

    The relevant documents found are ``topic.cumrel[stop_rank]``.  pp, km and
    or examine a prefix.  tm's extra samples all lie past its deepest sampled
    relevant rank, which is its stop rank, so none of them is relevant.
    """

    stop_rank: int
    extra_examined: int = 0
    predicted: bool = True

    @property
    def effort(self) -> int:
        return self.stop_rank + self.extra_examined


def rel_at(topic: Topic, rank: int) -> int:
    """Count of relevant documents at ranks 1..rank (0 for the empty prefix)."""
    if not 0 <= rank <= topic.size:
        raise ValueError(f"rank {rank} out of range 0..{topic.size}")
    return int(topic.cumrel[rank])
