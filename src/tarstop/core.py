"""Domain types: topics, runs, stopping outcomes, and method parameters."""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class MethodParams:
    """Tunable parameters shared by the stopping methods.

    Defaults follow the evaluated configuration: target recall 0.7 at 0.95
    confidence, an initial sample of 30% of the topic extended in 5% batches,
    at least 20 relevant documents required in the initial sample, a 0.7
    fit-accuracy multiplier, a 10-document target set, and a knee slope-ratio
    parameter of 150.
    """

    target_recall: float = 0.7
    confidence: float = 0.95
    alpha_frac: float = 0.3
    beta_frac: float = 0.05
    gamma: int = 20
    delta: float = 0.7
    target_count: int = 10
    epsilon: int = 150

    def __post_init__(self):
        if not 0 < self.target_recall <= 1:
            raise ValidationError("target_recall must be in (0, 1]")
        if not 0 < self.confidence < 1:
            raise ValidationError("confidence must be in (0, 1)")
        if not 0 < self.beta_frac <= self.alpha_frac <= 1:
            raise ValidationError("need 0 < beta_frac <= alpha_frac <= 1")
        if self.gamma < 1:
            raise ValidationError("gamma must be >= 1")
        if not 0 < self.delta <= 1:
            raise ValidationError("delta must be in (0, 1]")
        if self.target_count < 1:
            raise ValidationError("target_count must be >= 1")
        if self.epsilon < 0:
            raise ValidationError("epsilon must be >= 0")

    def batch_width(self, n: int) -> int:
        """Ranks per batch on a topic of n documents."""
        return max(1, math.ceil(self.beta_frac * n))


def rel_at(topic: Topic, rank: int) -> int:
    """Count of relevant documents at ranks 1..rank (0 for the empty prefix)."""
    if not 0 <= rank <= topic.size:
        raise ValueError(f"rank {rank} out of range 0..{topic.size}")
    return int(topic.cumrel[rank])
