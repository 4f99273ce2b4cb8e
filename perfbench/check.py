"""Output checker that recomputes the expected results apart from tarstop.

It reads only the structured outputs (``report.jsonl``, ``stratify.jsonl``,
``simulate.jsonl``) and the corpus' own labels and rankings; it imports
nothing from the program.  Recall targets are compared as exact fractions,
so a float rounding in the program cannot hide behind the same rounding
here.

An operation is one per-topic record (evaluate, stratify) or one
trial x method result (simulate).  A missing operation counts as failed; a
present but wrong one is a mismatch and makes the output incorrect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from corpus import N_TOPICS, Corpus, mean_aurcs

TARGET_RECALL = Fraction(7, 10)
ALPHA_FRAC = Fraction(3, 10)
TARGET_COUNT = 10
TOL = 1e-9

# Per-rank relevance probability of the simulate families at the CLI's
# default shapes: bimodal p1=0.3, p2=0.01, step p=0.1, both cut at rank 100.
SIM_N = 2000
SIM_CUTOFF = 100
SIM_FAMILIES = {"bimodal": (0.3, 0.01), "step": (0.1, 0.0)}


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    mismatches: list[str] = field(default_factory=list)

    def expect(self, ok: bool, message: str) -> None:
        if not ok:
            self.mismatches.append(message)

    def add(self, other: Result) -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.mismatches.extend(other.mismatches)


def read_jsonl(path: Path) -> list[dict] | None:
    if not path.is_file():
        return None
    with path.open() as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _close(a, b) -> bool:
    return isinstance(a, (int, float)) and abs(a - b) <= TOL * max(1.0, abs(b))


class Expected:
    """Per-(run, topic) cumulative relevant counts from the corpus."""

    def __init__(self, corpus: Corpus):
        self.corpus = corpus
        self.run_index = {tag: r for r, tag in enumerate(corpus.run_tags)}
        self.topic_index = {tid: t for t, tid in enumerate(corpus.topic_ids)}
        self._cumrel: dict[tuple[int, int], np.ndarray] = {}

    def cumrel(self, run: int, topic: int) -> np.ndarray:
        key = (run, topic)
        if key not in self._cumrel:
            ranked = self.corpus.ranked_labels(run, topic)
            self._cumrel[key] = np.concatenate(
                [[0], np.cumsum(ranked, dtype=np.int64)]
            )
        return self._cumrel[key]


def _check_topic(exp: Expected, rec: dict, res: Result) -> None:
    where = f"{rec.get('run')}/{rec.get('method')}/{rec.get('topic_id')}"
    cum = exp.cumrel(exp.run_index[rec["run"]], exp.topic_index[rec["topic_id"]])
    n, total = len(cum) - 1, int(cum[-1])
    method, stop = rec.get("method"), rec.get("stop_rank")
    res.expect(rec.get("n") == n, f"{where}: n {rec.get('n')} != {n}")
    if not (isinstance(stop, int) and 1 <= stop <= n):
        res.expect(False, f"{where}: stop_rank {stop} outside 1..{n}")
        return
    found = int(cum[stop])
    extra = rec.get("extra_examined")
    res.expect(
        rec.get("relevant_found") == found,
        f"{where}: relevant_found {rec.get('relevant_found')} != {found}",
    )
    res.expect(
        isinstance(extra, int) and extra >= 0 and rec.get("effort") == stop + extra,
        f"{where}: effort {rec.get('effort')} != {stop} + {extra}",
    )
    res.expect(
        _close(rec.get("recall"), found / total),
        f"{where}: recall {rec.get('recall')} != {found}/{total}",
    )
    acceptable = int(Fraction(found, total) >= TARGET_RECALL)
    res.expect(
        rec.get("acceptable") == acceptable,
        f"{where}: acceptable {rec.get('acceptable')} != {acceptable}",
    )
    predicted = rec.get("predicted")
    if predicted is False:
        res.expect(stop == n, f"{where}: predicted false but stop_rank {stop} != {n}")
    if method in ("pp", "km", "or"):
        res.expect(extra == 0, f"{where}: {method} examined {extra} extra documents")
    if method in ("pp", "km"):
        alpha = -(-ALPHA_FRAC.numerator * n // ALPHA_FRAC.denominator)
        res.expect(stop >= alpha, f"{where}: stopped at {stop} inside the initial sample {alpha}")
    if method == "tm":
        if total < TARGET_COUNT:
            res.expect(predicted is False, f"{where}: tm predicted with {total} < {TARGET_COUNT} relevant")
        elif predicted:
            res.expect(found >= TARGET_COUNT, f"{where}: tm stopped with {found} relevant")
    if method == "or":
        needed = -(-TARGET_RECALL.numerator * total // TARGET_RECALL.denominator)
        oracle = int(np.searchsorted(cum, needed, side="left"))
        res.expect(stop == oracle, f"{where}: or stop_rank {stop} != {oracle}")
        res.expect(predicted is True, f"{where}: or not predicted")


def _check_summaries(
    topics: list[dict], runs: list[dict], aggregates: list[dict],
    run_tags: list[str], methods: list[str], res: Result, label: str,
) -> None:
    """Run and aggregate records against means of the topic records."""
    by_key: dict[tuple[str, str], list[dict]] = {}
    for rec in topics:
        by_key.setdefault((rec["run"], rec["method"]), []).append(rec)
    run_recs = {(r.get("run"), r.get("method")): r for r in runs}
    res.expect(len(runs) == len(run_recs) == len(run_tags) * len(methods),
               f"{label}: {len(runs)} run records for {len(run_tags)} runs x {len(methods)} methods")
    res.expect(len(aggregates) == len(methods), f"{label}: {len(aggregates)} aggregate records")
    for method in methods:
        totals, saved, flags = [], [], []
        for tag in run_tags:
            recs = by_key.get((tag, method), [])
            rec = run_recs.get((tag, method))
            effort = sum(t["effort"] for t in recs)
            pct = 100.0 * sum(max(0.0, (t["n"] - t["effort"]) / t["n"]) for t in recs) / max(1, len(recs))
            rel = sum(t["acceptable"] for t in recs) / max(1, len(recs))
            totals.append(effort)
            saved.append(pct)
            flags.extend(t["acceptable"] for t in recs)
            where = f"{label}: run record {tag}/{method}"
            if rec is None:
                res.expect(False, f"{where} missing")
                continue
            res.expect(rec.get("topic_count") == len(recs), f"{where}: topic_count {rec.get('topic_count')}")
            res.expect(rec.get("total_effort") == effort, f"{where}: total_effort {rec.get('total_effort')} != {effort}")
            res.expect(_close(rec.get("reliability"), rel), f"{where}: reliability {rec.get('reliability')} != {rel}")
            res.expect(_close(rec.get("mean_pct_effort_saved"), pct),
                       f"{where}: mean_pct_effort_saved {rec.get('mean_pct_effort_saved')} != {pct}")
        agg = next((a for a in aggregates if a.get("method") == method), None)
        where = f"{label}: aggregate {method}"
        if agg is None:
            res.expect(False, f"{where} missing")
            continue
        res.expect(agg.get("run_count") == len(run_tags), f"{where}: run_count {agg.get('run_count')}")
        res.expect(_close(agg.get("mean_effort"), sum(totals) / len(totals)), f"{where}: mean_effort")
        res.expect(_close(agg.get("mean_pct_effort_saved"), sum(saved) / len(saved)),
                   f"{where}: mean_pct_effort_saved")
        res.expect(_close(agg.get("reliability"), sum(flags) / max(1, len(flags))), f"{where}: reliability")


def _check_topic_records(
    exp: Expected, records: list[dict], run_tags: list[str], methods: list[str],
    res: Result, label: str,
) -> list[dict]:
    """Check every per-topic record; count the expected ones that are missing."""
    topics = [r for r in records if r.get("record") == "topic"]
    seen = set()
    for rec in topics:
        key = (rec.get("run"), rec.get("method"), rec.get("topic_id"))
        if key in seen or rec.get("run") not in run_tags or rec.get("method") not in methods \
                or rec.get("topic_id") not in exp.topic_index:
            res.expect(False, f"{label}: unexpected topic record {key}")
            continue
        seen.add(key)
        _check_topic(exp, rec, res)
    expected = len(run_tags) * len(methods) * N_TOPICS
    res.attempted += expected
    res.failed += expected - len(seen)
    return topics


def check_evaluate(exp: Expected, records: list[dict] | None, methods: list[str]) -> Result:
    res = Result()
    tags = list(exp.corpus.run_tags)
    if records is None:
        res.attempted = res.failed = len(tags) * len(methods) * N_TOPICS
        return res
    topics = _check_topic_records(exp, records, tags, methods, res, "evaluate")
    _check_summaries(
        topics,
        [r for r in records if r.get("record") == "run"],
        [r for r in records if r.get("record") == "aggregate"],
        tags, methods, res, "evaluate",
    )
    return res


def stratify_groups(aurcs: dict[str, float]) -> dict[str, list[str]]:
    """Top, middle and bottom five run tags by mean AURC (ties by tag)."""
    ranked = sorted(aurcs, key=lambda tag: (-aurcs[tag], tag))
    mid = (len(ranked) + 1) // 2 - 3
    return {"top": ranked[:5], "middle": ranked[mid : mid + 5], "bottom": ranked[-5:]}


def check_stratify(exp: Expected, records: list[dict] | None, methods: list[str]) -> Result:
    res = Result()
    if records is None:
        res.attempted = res.failed = 15 * len(methods) * N_TOPICS
        return res
    aurcs = dict(zip(exp.corpus.run_tags, mean_aurcs(exp.corpus)))
    got = {r.get("run"): r.get("mean_aurc") for r in records if r.get("record") == "run_aurc"}
    res.expect(set(got) == set(aurcs), f"stratify: run_aurc records for {len(got)} runs")
    for tag, value in aurcs.items():
        res.expect(_close(got.get(tag), value), f"stratify: mean_aurc {tag} {got.get(tag)} != {value}")

    groups = stratify_groups(aurcs)
    bands = {"top": (0.91, 0.94), "bottom": (0.46, 0.62)}
    for band in (r for r in records if r.get("record") == "sanity_band"):
        name = band.get("group")
        if name not in bands:
            res.expect(False, f"stratify: unexpected band {name}")
            continue
        scores = sorted(aurcs[t] for t in groups[name])
        lo, hi = bands.pop(name)
        status = "pass" if lo <= scores[0] and scores[-1] <= hi else "warn"
        res.expect(_close(band.get("lo"), scores[0]) and _close(band.get("hi"), scores[-1]),
                   f"stratify: {name} band [{band.get('lo')}, {band.get('hi')}]")
        res.expect(band.get("status") == status, f"stratify: {name} band status {band.get('status')} != {status}")
    res.expect(not bands, f"stratify: missing sanity bands {sorted(bands)}")

    for name, tags in groups.items():
        grouped = [r for r in records if r.get("group") == name and r.get("record") != "sanity_band"]
        members = {r.get("run") for r in grouped if r.get("record") != "aggregate"}
        res.expect(members == set(tags), f"stratify: {name} group {sorted(members, key=str)} != {sorted(tags)}")
        topics = _check_topic_records(exp, grouped, tags, methods, res, f"stratify {name}")
        _check_summaries(
            topics,
            [r for r in grouped if r.get("record") == "run"],
            [r for r in grouped if r.get("record") == "aggregate"],
            tags, methods, res, f"stratify {name}",
        )
    return res


def topics_with_relevant(family: str, trials: int, seed: int) -> int:
    """Trials whose per-rank Bernoulli draws (seed + trial) hit a relevant."""
    p_head, p_tail = SIM_FAMILIES[family]
    probs = np.full(SIM_N, p_tail)
    probs[:SIM_CUTOFF] = p_head
    return sum(
        bool((np.random.default_rng(seed + t).random(SIM_N) < probs).any())
        for t in range(trials)
    )


def check_simulate(
    records: list[dict] | None, family: str, trials: int, seed: int,
    methods: list[str], topics: int,
) -> Result:
    """``topics`` is the number of trials with a relevant document."""
    res = Result(attempted=trials * len(methods))
    if records is None:
        res.failed = res.attempted
        return res
    exp = [r for r in records if r.get("record") == "experiment"]
    res.expect(len(exp) == 1, f"simulate {family}: {len(exp)} experiment records")
    if exp:
        e = exp[0]
        res.expect((e.get("family"), e.get("n"), e.get("trials"), e.get("seed")) == (family, SIM_N, trials, seed),
                   f"simulate {family}: experiment record {e}")
        cov = e.get("coverage")
        res.expect(isinstance(cov, (int, float)) and 0 <= cov <= 1, f"simulate {family}: coverage {cov}")
    rel = {r.get("method"): r for r in records if r.get("record") == "method_reliability"}
    for method in methods:
        rec = rel.get(method)
        if rec is None:
            res.failed += trials
            continue
        where = f"simulate {family}/{method}"
        value = rec.get("reliability")
        res.expect(rec.get("topics") == topics, f"{where}: topics {rec.get('topics')} != {topics}")
        res.expect(isinstance(value, (int, float)) and 0 <= value <= 1, f"{where}: reliability {value}")
        if method == "or":
            res.expect(value == 1, f"{where}: oracle reliability {value} != 1")
    return res


def self_check(kind: str, records: list[dict], check) -> str | None:
    """Corrupt a copy of good records and confirm ``check`` rejects it.

    Moves the first oracle stop rank by one (or, for simulate, lowers the
    oracle's reliability).  Returns an error message when the corrupted copy
    passes.
    """
    bad = json.loads(json.dumps(records))
    if kind == "simulate":
        target = next(r for r in bad if r.get("method") == "or")
        target["reliability"] = 0.99
    else:
        target = next(r for r in bad if r.get("record") == "topic" and r.get("method") == "or")
        target["stop_rank"] += 1 if target["stop_rank"] < target["n"] else -1
    if check(bad).mismatches:
        return None
    return f"self-check: the checker accepted a corrupted {kind} output"
