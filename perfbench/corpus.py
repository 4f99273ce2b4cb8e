"""Seeded CLEF-2017-shaped corpus: 30 topics, 33 runs and their qrels.

Topic sizes are log-normal around a median of 2,070 documents, clipped to
64..12,807; relevant counts grow sub-linearly with size, with a median of
38, a fraction near 1.8% and a range of 2..217 (CLEF 2017: 38, 1.6%,
2..460).  These 30 shapes are the same for every seed and sum to 99,918
documents per run (the collection has 117,562; the narrower spread keeps a
run under a minute).  The seed decides which topic gets which shape, which
documents are relevant and how each run ranks them.  Every run ranks every
document of every topic: a relevant document scores N(mu, 1), a
non-relevant one N(0, 1), and mu falls across the 33 runs so that mean AURC
runs from about 0.93 down to 0.5, inside the published stratification
bands.

The corpus keeps its own labels and rankings, which the output checker uses
to recompute what the program should report.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from pathlib import Path
from statistics import NormalDist

import numpy as np

N_TOPICS = 30
N_RUNS = 33
SIZE_MEDIAN = 2070
SIZE_SIGMA = 1.1
SIZE_MIN, SIZE_MAX = 64, 12_807
REL_MIN, REL_MAX = 2, 460
REL_FRACTION_MEDIAN = 0.0175  # 38 relevant in the median topic
REL_SIZE_EXPONENT = -0.2  # larger topics are sparser, as in CLEF 2017
REL_SIGMA = 0.7
SHAPE_SEED = 2018

# Target mean AURC of the best and worst runs, and of the fifth best and
# fifth worst; the stratify sanity bands are [0.91, 0.94] and [0.46, 0.62].
AURC_TOP = (0.932, 0.918)
AURC_BOTTOM = (0.585, 0.50)
AURC_TOLERANCE = 0.002


@dataclass(frozen=True)
class Corpus:
    """Topics, labels and per-run rankings of one seeded corpus.

    ``labels[t]`` holds topic t's relevance flags by document index;
    ``rankings[r][t]`` the document indices of run r's ranking of topic t,
    best first.
    """

    topic_ids: tuple[str, ...]
    labels: tuple[np.ndarray, ...]
    run_tags: tuple[str, ...]
    rankings: tuple[tuple[np.ndarray, ...], ...]

    def doc_id(self, topic: int, index: np.ndarray) -> np.ndarray:
        return index + (20_000_000 + 20_000 * topic)

    @property
    def total_docs(self) -> int:
        return sum(len(lab) for lab in self.labels)

    def ranked_labels(self, run: int, topic: int) -> np.ndarray:
        """Relevance flags in run ``run``'s rank order for topic ``topic``."""
        return self.labels[topic][self.rankings[run][topic]]


def _aurc_schedule(n_runs: int) -> np.ndarray:
    """Target mean AURC per run, best first."""
    top = np.linspace(AURC_TOP[0], AURC_TOP[1], 5)
    bottom = np.linspace(AURC_BOTTOM[0], AURC_BOTTOM[1], 5)
    middle = np.linspace(AURC_TOP[1], AURC_BOTTOM[0], n_runs - 8)[1:-1]
    return np.concatenate([top, middle, bottom])


def _calibrated_ranking(
    labels: list[np.ndarray], target: float, rng: np.random.Generator
) -> tuple[np.ndarray, ...]:
    """One run's rankings, with the score shift tuned to a target mean AURC.

    For R << n, AURC is close to the ranking's AUC, which for two unit
    normals shifted by mu is Phi(mu / sqrt 2); that gives the first guess.
    The noise is then held fixed and mu is refined by secant steps until
    the run's realised mean AURC is within AURC_TOLERANCE of the target.
    """
    noise = [rng.standard_normal(len(lab)) for lab in labels]

    def rank(mu: float) -> tuple[tuple[np.ndarray, ...], float]:
        order = tuple(
            np.argsort(-(z + mu * lab), kind="stable").astype(np.int32)
            for z, lab in zip(noise, labels)
        )
        score = sum(aurc(lab[o]) for lab, o in zip(labels, order)) / len(labels)
        return order, score

    mu0 = math.sqrt(2) * NormalDist().inv_cdf(target)
    order, a0 = rank(mu0)
    mu1 = mu0 + 0.05
    for _ in range(8):
        if abs(a0 - target) < AURC_TOLERANCE:
            break
        order, a1 = rank(mu1)
        if abs(a1 - target) < AURC_TOLERANCE or a1 == a0:
            break
        mu0, mu1, a0 = mu1, mu1 + (target - a1) * (mu1 - mu0) / (a1 - a0), a1
    return order


def topic_shapes() -> tuple[np.ndarray, np.ndarray]:
    """(size, relevant count) of the 30 topics, the same for every seed.

    Sizes sit at the midpoints of the 30 equal-probability slices of the
    log-normal; the relevant fractions take the same normal quantiles in an
    order fixed by SHAPE_SEED.  Holding the shapes fixed keeps the input
    size, and with it the work and memory of a run, the same for every
    seed: with sizes drawn per seed, peak RSS of ``evaluate`` varied by 2.4%
    between seeds, against 0.1% with fixed shapes.
    """
    nd = NormalDist()
    z = np.array([nd.inv_cdf((i + 0.5) / N_TOPICS) for i in range(N_TOPICS)])
    sizes = np.clip(np.round(SIZE_MEDIAN * np.exp(SIZE_SIGMA * z)), SIZE_MIN, SIZE_MAX)
    sizes = sizes.astype(np.int64)
    spread = np.random.default_rng(SHAPE_SEED).permutation(z)
    fraction = (
        REL_FRACTION_MEDIAN
        * (sizes / SIZE_MEDIAN) ** REL_SIZE_EXPONENT
        * np.exp(REL_SIGMA * spread)
    )
    relevant = np.clip(np.round(sizes * fraction), REL_MIN, REL_MAX).astype(np.int64)
    return sizes, np.minimum(relevant, sizes)


def generate(seed: int) -> Corpus:
    """The corpus of one seed: which topic gets which shape, labels, rankings."""
    rng = np.random.default_rng(seed)
    sizes, relevant = topic_shapes()
    order = rng.permutation(N_TOPICS)
    sizes, relevant = sizes[order], relevant[order]

    labels = []
    for n, r in zip(sizes, relevant):
        lab = np.zeros(n, dtype=bool)
        lab[rng.choice(n, size=r, replace=False)] = True
        labels.append(lab)

    rankings = [
        _calibrated_ranking(labels, target, rng)
        for target in rng.permutation(_aurc_schedule(N_RUNS))
    ]

    return Corpus(
        topic_ids=tuple(f"CD{t + 1:06d}" for t in range(N_TOPICS)),
        labels=tuple(labels),
        run_tags=tuple(f"run{r + 1:02d}" for r in range(N_RUNS)),
        rankings=tuple(rankings),
    )


def aurc(ranked: np.ndarray) -> float:
    """Recall-curve area of a ranking over the area of the ideal ranking."""
    n, total = len(ranked), int(ranked.sum())
    area = int(np.cumsum(ranked, dtype=np.int64).sum())
    ranks = np.arange(1, n + 1, dtype=np.int64)
    optimal = int(np.minimum(ranks, total).sum())
    return (area / total) / (optimal / total)


def mean_aurcs(corpus: Corpus) -> list[float]:
    """Mean AURC over topics, per run, in run order."""
    return [
        sum(aurc(corpus.ranked_labels(r, t)) for t in range(N_TOPICS)) / N_TOPICS
        for r in range(len(corpus.run_tags))
    ]


def subset(corpus: Corpus, tags: list[str]) -> Corpus:
    """The same topics and labels with only the runs named, in corpus order."""
    wanted = set(tags)
    keep = [r for r, tag in enumerate(corpus.run_tags) if tag in wanted]
    return replace(
        corpus,
        run_tags=tuple(corpus.run_tags[r] for r in keep),
        rankings=tuple(corpus.rankings[r] for r in keep),
    )


def write(corpus: Corpus, directory: Path) -> tuple[list[Path], Path]:
    """Write 6-column run files and a 4-column qrels file; return their paths.

    Each file is synced before returning, so that writeback of the corpus
    does not run alongside the measured CLI invocations.
    """
    directory.mkdir(parents=True, exist_ok=True)
    max_n = max(len(lab) for lab in corpus.labels)
    rank_s = [str(r) for r in range(max_n + 1)]
    score_s = [f"{(max_n - r + 1) / max_n:.6f}" for r in range(max_n + 1)]

    qrels = directory / "qrels.txt"
    with qrels.open("w") as fh:
        for t, tid in enumerate(corpus.topic_ids):
            ids = corpus.doc_id(t, np.arange(len(corpus.labels[t]))).tolist()
            flags = corpus.labels[t].astype(np.int8).tolist()
            fh.write("".join(f"{tid} 0 {d} {f}\n" for d, f in zip(ids, flags)))
        fh.flush()
        os.fsync(fh.fileno())

    runs = []
    for r, tag in enumerate(corpus.run_tags):
        path = directory / f"{tag}.txt"
        with path.open("w") as fh:
            for t, tid in enumerate(corpus.topic_ids):
                ids = corpus.doc_id(t, corpus.rankings[r][t]).tolist()
                head = f"{tid} NF "
                tail = f" {tag}\n"
                fh.write(
                    "".join(
                        f"{head}{d} {rank_s[i]} {score_s[i]}{tail}"
                        for i, d in enumerate(ids, start=1)
                    )
                )
            fh.flush()
            os.fsync(fh.fileno())
        runs.append(path)
    return runs, qrels


def stats(corpus: Corpus) -> dict:
    sizes = np.array([len(lab) for lab in corpus.labels])
    relevant = np.array([int(lab.sum()) for lab in corpus.labels])
    return {
        "runs": len(corpus.run_tags),
        "total_docs": int(sizes.sum()),
        "size_min": int(sizes.min()),
        "size_median": float(np.median(sizes)),
        "size_max": int(sizes.max()),
        "relevant_min": int(relevant.min()),
        "relevant_median": float(np.median(relevant)),
        "relevant_max": int(relevant.max()),
        "relevant_fraction": round(float(relevant.sum() / sizes.sum()), 4),
    }
