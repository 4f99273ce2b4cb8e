"""Acceptance suite: one test per criterion, printing a pass line each.

Criteria 1 and 2 require the CLEF 2017 test runs and abstract qrels on
disk; point TARSTOP_CLEF_RUNS_DIR at a directory of run files and
TARSTOP_CLEF_QRELS at the qrels file to enable them.  Everything else is
desk-scale and always runs.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import doc_ids, serialize_qrels, serialize_run
from tarstop.cli import main
from tarstop.core import MethodParams
from tarstop.ingest import parse_qrels, parse_run
from tarstop.methods import knee_stop, oracle_stop, poisson_stop, target_stop
from tarstop.metrics import acceptability, aurc
from tarstop.poisson import upper_credible_count
from tarstop.ratefit import fit_exponential
from tarstop.simulate import (
    BimodalRate,
    ExponentialRate,
    StepRate,
    UniformRate,
    bound_covers,
    gen_topic,
)
from test_poisson import credible_oracle

DEFAULTS = MethodParams()


def _passed(criterion: str):
    print(f"ACCEPTANCE PASS: {criterion}")


def _clef_runs():
    runs_dir = os.environ.get("TARSTOP_CLEF_RUNS_DIR")
    qrels_path = os.environ.get("TARSTOP_CLEF_QRELS")
    if not runs_dir or not qrels_path:
        pytest.skip(
            "CLEF 2017 dataset not available; set TARSTOP_CLEF_RUNS_DIR and "
            "TARSTOP_CLEF_QRELS to enable"
        )
    with open(qrels_path) as handle:
        qrels = parse_qrels(handle)
    runs = []
    for path in sorted(Path(runs_dir).iterdir()):
        if path.is_file():
            with open(path) as handle:
                runs.append(parse_run(handle, qrels))
    return runs


def _evaluate_method(runs, method_fn, params, seeded=False):
    per_run = []
    flags = []
    for run in runs:
        efforts, saved = 0, []
        for idx, topic in enumerate(sorted(run.topics, key=lambda t: t.topic_id)):
            if seeded:
                outcome = method_fn(topic, params, idx)
            else:
                outcome = method_fn(topic, params)
            efforts += outcome.effort
            saved.append(max(0.0, (topic.size - outcome.effort) / topic.size))
            flags.append(acceptability(outcome, topic, params.target_recall))
        per_run.append((efforts, 100.0 * sum(saved) / len(saved)))
    mean_effort = sum(e for e, _ in per_run) / len(per_run)
    mean_saved = sum(s for _, s in per_run) / len(per_run)
    reliability = sum(flags) / len(flags)
    return mean_effort, mean_saved, reliability


def test_criterion_1_clef_reliability():
    runs = _clef_runs()
    for name, fn, params, seeded in (
        ("PP", poisson_stop, DEFAULTS, False),
        ("TM", target_stop, DEFAULTS, True),
        ("KM-default", knee_stop, DEFAULTS, False),
        ("KM-tuned", knee_stop, MethodParams(epsilon=50), False),
    ):
        _, _, reliability = _evaluate_method(runs, fn, params, seeded)
        assert reliability >= 0.95, f"{name} reliability {reliability:.4f} < 0.95"
    _passed("criterion 1: all methods reliable (>= 0.95) on CLEF 2017")


def test_criterion_2_table_reproduction():
    runs = _clef_runs()
    pp_eff, pp_saved, _ = _evaluate_method(runs, poisson_stop, DEFAULTS)
    assert abs(pp_eff - 68_122) / 68_122 <= 0.10
    assert abs(pp_saved - 42.1) <= 5.0
    km_eff, _, _ = _evaluate_method(runs, knee_stop, DEFAULTS)
    assert abs(km_eff - 102_681) / 102_681 <= 0.10
    or_eff, _, _ = _evaluate_method(runs, oracle_stop, DEFAULTS)
    assert abs(or_eff - 33_760) / 33_760 <= 0.02
    _passed("criterion 2: published effort table reproduced within tolerance")


def test_criterion_3a_credible_count_matches_oracle():
    for mean in (0.1, 1.0, 5.0, 10.0, 50.0, 200.0):
        for confidence in (0.5, 0.9, 0.95, 0.99):
            assert upper_credible_count(mean, confidence) == credible_oracle(
                mean, confidence
            ), (mean, confidence)
    _passed("criterion 3a: credible counts match brute-force summation exactly")


def test_criterion_3b_exact_fit_recovery():
    for d, k in ((0.5, -0.01), (1.2, -0.003), (0.05, 0.001)):
        width = 10
        points, widths = [], []
        for i in range(8):
            x = i * width + (1 + width) / 2.0
            points.append((x, d * math.exp(k * x) * width))
            widths.append(width)
        from tarstop.ratefit import BinnedCounts

        model = fit_exponential(BinnedCounts(tuple(points), tuple(widths)))
        assert abs(model.d - d) / d <= 1e-6
        assert abs(model.k - k) / abs(k) <= 1e-6
    _passed("criterion 3b: noiseless exponential recovered to 1e-6 relative")


def test_criterion_3c_credible_bound_monte_carlo():
    rng = np.random.default_rng(77)
    for mean in (1.0, 10.0, 100.0):
        for p in (0.5, 0.9, 0.95, 0.99):
            bound = upper_credible_count(mean, p)
            draws = rng.poisson(mean, size=10_000)
            frac = float(np.mean(draws <= bound))
            se = math.sqrt(p * (1 - p) / 10_000)
            assert frac >= p - 3 * se, (mean, p, frac)
    _passed("criterion 3c: simulated Poisson counts respect the credible bound")


def test_criterion_3d_coverage_on_matched_family():
    family = ExponentialRate(0.5, -0.005)
    covered = sum(
        bound_covers(gen_topic(2000, family, seed=7 + trial), DEFAULTS)
        for trial in range(1000)
    )
    coverage = covered / 1000
    assert coverage >= 0.90, coverage
    _passed(f"criterion 3d: coverage {coverage:.3f} >= 0.90 over 1,000 trials")


def _synthetic_pool(count: int, n: int = 600):
    families = [
        ExponentialRate(0.5, -0.01),
        ExponentialRate(0.2, -0.002),
        UniformRate(0.08),
        StepRate(0.4, 120),
        BimodalRate(0.3, 0.02, 100),
    ]
    topics = []
    seed = 0
    while len(topics) < count:
        family = families[seed % len(families)]
        topic = gen_topic(n, family, seed=10_000 + seed)
        seed += 1
        if topic.total_relevant >= 1:
            topics.append(topic)
    return topics


def test_criterion_4_oracle_minimality():
    topics = _synthetic_pool(500)
    for topic in topics:
        oracle_rank = oracle_stop(topic, DEFAULTS).stop_rank
        for method in (poisson_stop, knee_stop, oracle_stop):
            outcome = method(topic, DEFAULTS)
            acceptable = acceptability(outcome, topic, DEFAULTS.target_recall)
            assert acceptable == (1 if outcome.stop_rank >= oracle_rank else 0)
            if acceptable:
                assert oracle_rank <= outcome.effort
    _passed("criterion 4: oracle minimality holds on 500 synthetic topics")


def test_criterion_5_target_reliability():
    family = ExponentialRate(0.4, -0.004)
    acceptable = 0
    trials = 0
    seed = 0
    while trials < 1000:
        topic = gen_topic(800, family, seed=50_000 + seed)
        seed += 1
        if topic.total_relevant < 10:
            continue
        outcome = target_stop(topic, DEFAULTS, seed=trials)
        acceptable += acceptability(outcome, topic, DEFAULTS.target_recall)
        trials += 1
    reliability = acceptable / trials
    assert reliability >= 0.95, reliability
    _passed(f"criterion 5: target-method reliability {reliability:.3f} >= 0.95")


def test_criterion_6_metric_unit_checks():
    from conftest import make_topic
    from tarstop.core import StopOutcome

    assert aurc(make_topic("perfect", {1, 2, 3}, 10)) == 1.0
    assert aurc(make_topic("t", {3, 4}, 4)) == pytest.approx(1.5 / 3.5, abs=1e-9)
    assert aurc(make_topic("t", {2}, 2)) == pytest.approx(0.5, abs=1e-9)
    topic = make_topic("t", set(range(1, 11)), 20)
    boundary = StopOutcome("t", 7, 0, 7, True)
    assert acceptability(boundary, topic, 0.7) == 1
    _passed("criterion 6: metric unit checks exact")


def test_criterion_7_structured_output_determinism(tmp_path):
    ids = doc_ids(300)
    labels = {
        f"T{s}": gen_topic(300, ExponentialRate(0.5, -0.01), seed=s).relevant
        for s in range(2)
    }
    run_path = tmp_path / "run.txt"
    run_path.write_text(
        "\n".join(serialize_run("det-run", {t: ids for t in labels})) + "\n"
    )
    qrels_path = tmp_path / "qrels.txt"
    judged = {topic_id: (ids, rel) for topic_id, rel in labels.items()}
    qrels_path.write_text("\n".join(serialize_qrels(judged)) + "\n")

    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert (
            main(
                [
                    "evaluate",
                    "--runs",
                    str(run_path),
                    "--qrels",
                    str(qrels_path),
                    "--seed",
                    "5",
                    "--out-dir",
                    str(out),
                ]
            )
            == 0
        )
        outs.append((out / "report.jsonl").read_bytes())
    assert outs[0] == outs[1]

    sims = []
    for name in ("sa", "sb"):
        out = tmp_path / name
        assert (
            main(
                [
                    "simulate",
                    "--family",
                    "uniform",
                    "--p",
                    "0.2",
                    "--n",
                    "200",
                    "--trials",
                    "3",
                    "--seed",
                    "9",
                    "--out-dir",
                    str(out),
                ]
            )
            == 0
        )
        sims.append((out / "simulate.jsonl").read_bytes())
    assert sims[0] == sims[1]
    _passed("criterion 7: evaluate and simulate outputs byte-identical per seed")
