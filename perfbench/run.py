"""Benchmark of the tarstop CLI on a seeded CLEF-2017-shaped corpus.

    python3 perfbench/run.py --workload clef-evaluate --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Run from anywhere inside a source checkout; the package is taken from
``src/``.  With ``--trace 0`` every CLI invocation runs as its own process,
timed from spawn to exit and accounted with ``os.wait4``, and the end-to-end
metrics are printed.  With ``--trace 1`` each round is run once untraced and
once through ``tracer.py``, and the per-layer metrics are printed instead.
Every output is checked against the corpus (see ``check.py``).  The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; progress and detail go to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
import corpus as corpus_mod

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"

METHODS = ["pp", "tm", "km", "or"]
STRATIFY_METHODS = ["or"]
SIM_TRIALS = 100  # the fewest for which simulate runs the coverage experiment
EVALUATE_STRIDE = 4  # clef-evaluate reads every fourth run by mean AURC: 9 of 33
SETUP_SPAWNS = 3
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
# Per-layer counts that must repeat exactly from one traced round to the next.
EXACT_COUNTS = ("core.topic_builds", "ratefit.fits", "ratefit.fit_failed",
                "poisson.credible_scan_terms", "metrics.aurc_calls",
                "simulate.gen_topic_calls")


@dataclass
class Invocation:
    """One CLI call: its arguments, its structured output and how to check it."""

    args: list[str]
    output: Path
    kind: str  # evaluate | stratify | simulate
    family: str = ""
    seed: int = 0


@dataclass
class Proc:
    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


@dataclass
class Round:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    result: check.Result = field(default_factory=check.Result)
    digests: dict[str, str] = field(default_factory=dict)
    traces: list[dict] = field(default_factory=list)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    # One CLI invocation at a time on a small machine: no BLAS thread pools.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(argv: list[str], log_path: Path, deadline: float) -> Proc:
    """Run a child to its end; time it and read its own rusage via wait4.

    RUSAGE_CHILDREN keeps a high-water maxrss over every child reaped so
    far, so each child is reaped and accounted on its own.
    """
    with log_path.open("wb") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                proc.returncode)


def workload_corpus(corpus, workload: str):
    """The runs a CLEF workload reads, chosen by their mean AURC.

    ``clef-evaluate`` takes every fourth run from best to worst, so the
    9 runs span the whole quality range.  ``clef-stratify`` takes the full
    corpus' top, middle and bottom five, the fewest runs ``stratify``
    accepts, which it then splits into the same three groups.
    """
    aurcs = dict(zip(corpus.run_tags, corpus_mod.mean_aurcs(corpus)))
    if workload == "clef-evaluate":
        ranked = sorted(aurcs, key=lambda tag: (-aurcs[tag], tag))
        tags = ranked[::EVALUATE_STRIDE]
    else:
        tags = [t for group in check.stratify_groups(aurcs).values() for t in group]
    return corpus_mod.subset(corpus, tags)


def invocations(workload: str, seed: int, files, out: Path) -> list[Invocation]:
    if workload == "synthetic-misspecified":
        sim_seed = seed * 1000
        return [
            Invocation(["simulate", "--family", family, "--trials", str(SIM_TRIALS),
                        "--seed", str(sim_seed), "--out-dir", str(out / family)],
                       out / family / "simulate.jsonl", "simulate", family, sim_seed)
            for family in ("bimodal", "step")
        ]
    runs, qrels = files
    inputs = [a for p in runs for a in ("--runs", str(p))] + ["--qrels", str(qrels)]
    if workload == "clef-evaluate":
        return [Invocation(["evaluate", *inputs, "--methods", ",".join(METHODS),
                            "--seed", str(seed), "--out-dir", str(out)],
                           out / "report.jsonl", "evaluate")]
    return [Invocation(["stratify", *inputs, "--methods", ",".join(STRATIFY_METHODS),
                        "--seed", str(seed), "--out-dir", str(out)],
                       out / "stratify.jsonl", "stratify")]


class Checker:
    """Checks one invocation's structured output; self-checks once per kind."""

    def __init__(self, corpus):
        self.expected = check.Expected(corpus) if corpus is not None else None
        self.self_checked: set[str] = set()

    def check_records(self, inv: Invocation, records: list[dict] | None) -> check.Result:
        if inv.kind == "evaluate":
            return check.check_evaluate(self.expected, records, METHODS)
        if inv.kind == "stratify":
            return check.check_stratify(self.expected, records, STRATIFY_METHODS)
        topics = check.topics_with_relevant(inv.family, SIM_TRIALS, inv.seed)
        return check.check_simulate(records, inv.family, SIM_TRIALS, inv.seed, METHODS, topics)

    def __call__(self, inv: Invocation) -> check.Result:
        records = check.read_jsonl(inv.output)
        result = self.check_records(inv, records)
        if records and not result.mismatches and inv.kind not in self.self_checked:
            self.self_checked.add(inv.kind)
            problem = check.self_check(inv.kind, records, lambda bad: self.check_records(inv, bad))
            result.expect(problem is None, problem or "")
            if problem is None:
                log(f"self-check: a corrupted {inv.kind} output was rejected")
        return result


def run_round(invs: list[Invocation], checker: Checker, work: Path, deadline: float,
              traced: bool) -> Round:
    rnd = Round()
    for i, inv in enumerate(invs):
        shutil.rmtree(inv.output.parent, ignore_errors=True)
        inv.output.parent.mkdir(parents=True)
        spans = work / f"spans-{i}.json"
        spans.unlink(missing_ok=True)
        if traced:
            argv = [sys.executable, str(HERE / "tracer.py"), str(spans), *inv.args]
        else:
            argv = [sys.executable, "-m", "tarstop.cli", *inv.args]
        proc = spawn(argv, work / f"cli-{i}.log", deadline)
        rnd.wall_s += proc.wall_s
        rnd.cpu_s += proc.cpu_s
        rnd.rss_mb = max(rnd.rss_mb, proc.rss_mb)
        if proc.code != 0:
            log(f"{inv.args[0]} exited with {proc.code}; see its log:\n"
                + (work / f"cli-{i}.log").read_text(errors="replace")[-2000:])
            inv.output.unlink(missing_ok=True)
        result = checker(inv)
        rnd.result.add(result)
        if inv.output.is_file():
            rnd.digests[f"{inv.family or inv.kind}:{inv.output.name}"] = \
                hashlib.sha256(inv.output.read_bytes()).hexdigest()
        if traced and spans.is_file():
            rnd.traces.append(json.loads(spans.read_text()))
    return rnd


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def tail(values: list[float]) -> tuple[float, str]:
    """Highest of p90/p95/p99/p99.9 with at least ten samples beyond it.

    Below forty samples there is no tail and the median stands in for it.
    """
    if len(values) < 40:
        return statistics.median(values), "p50"
    p = max(q for q in (90, 95, 99, 99.9) if len(values) * (1 - q / 100) >= 10)
    return percentile(values, p), f"p{p:g}"


def layer_metrics(traces: list[dict], lines_per_run: int) -> tuple[dict[str, float], dict]:
    """Per-layer metrics of one traced round, from its invocations' spans.

    ``_s`` metrics are self times (span minus its traced children);
    ``_ms_`` percentiles and ``lines_per_s`` use whole spans.
    """
    count: dict[str, int] = {}
    self_s: dict[str, float] = {}
    durs: dict[str, list[float]] = {}
    values: dict[str, list] = {}
    errors: dict[str, int] = {}
    pp_fits = 0
    accounted = 0.0
    for trace in traces:
        spans = trace["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, value, error in spans:
            if parent is not None:
                child[parent] += end - start
        for i, (name, start, end, parent, value, error) in enumerate(spans):
            dur = end - start
            count[name] = count.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child[i]
            durs.setdefault(name, []).append(dur)
            values.setdefault(name, []).append(value)
            if error:
                errors[f"{name}:{error}"] = errors.get(f"{name}:{error}", 0) + 1
            if name == "ratefit.fit_exponential":
                up = parent
                while up is not None and spans[up][0] != "methods.pp":
                    up = spans[up][3]
                pp_fits += up is not None
            if name == "cli":
                accounted += dur
        accounted += trace["import_s"]

    def n(name):
        return count.get(name, 0)

    def s(name):
        return self_s.get(name, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    def p50_ms(name):
        return 1000.0 * statistics.median(durs[name]) if durs.get(name) else 0.0

    pp_ms = [1000.0 * d for d in durs.get("methods.pp", [])]
    pp_tail, tail_label = tail(pp_ms) if pp_ms else (0.0, "none")
    gates = [v for v in values.get("ratefit.delta_gate", []) if v is not None]
    scans = [v for v in values.get("poisson.upper_credible_count", []) if v is not None]
    predicted = [v for v in values.get("methods.pp", []) if v is not None]
    metrics = {
        "ingest.parse_run_s": s("ingest.parse_run"),
        "ingest.parse_run_lines_per_s": ratio(n("ingest.parse_run") * lines_per_run,
                                              sum(durs.get("ingest.parse_run", []))),
        "ingest.parse_qrels_s": s("ingest.parse_qrels"),
        "ingest.join_s": s("ingest.join"),
        "core.topic_build_s": s("core.topic_build"),
        "core.topic_builds": n("core.topic_build"),
        "ratefit.fits": n("ratefit.fit_exponential"),
        "ratefit.fit_failed": errors.get("ratefit.fit_exponential:FitError", 0),
        "ratefit.fit_exponential_s": s("ratefit.fit_exponential"),
        "ratefit.fit_ms_p50": p50_ms("ratefit.fit_exponential"),
        "ratefit.bin_prefix_s": s("ratefit.bin_prefix"),
        "ratefit.delta_gate_s": s("ratefit.delta_gate"),
        "ratefit.delta_gate_pass_ratio": ratio(sum(gates), len(gates)),
        "poisson.credible_calls": n("poisson.upper_credible_count"),
        "poisson.upper_credible_count_s": s("poisson.upper_credible_count"),
        "poisson.credible_scan_terms": sum(r + 1 for r in scans),
        "methods.pp_s": s("methods.pp"),
        "methods.tm_s": s("methods.tm"),
        "methods.km_s": s("methods.km"),
        "methods.or_s": s("methods.or"),
        "methods.pp_decision_ms_p50": statistics.median(pp_ms) if pp_ms else 0.0,
        "methods.pp_decision_ms_tail": pp_tail,
        "methods.pp_fits_per_decision": ratio(pp_fits, len(pp_ms)),
        "methods.pp_predicted_ratio": ratio(sum(predicted), len(predicted)),
        "metrics.aurc_s": s("metrics.aurc"),
        "metrics.aurc_calls": n("metrics.aurc"),
        "metrics.build_report_s": s("metrics.build_report"),
        "simulate.gen_topic_s": s("simulate.gen_topic"),
        "simulate.gen_topic_calls": n("simulate.gen_topic"),
        "simulate.coverage_experiment_s": s("simulate.coverage_experiment"),
        "cli.import_s": statistics.median(t["import_s"] for t in traces) if traces else 0.0,
        "cli.self_s": s("cli"),
    }
    detail = {
        "accounted_s": accounted,
        "pp_decisions": len(pp_ms),
        "pp_tail_percentile": tail_label,
        "errors": errors,
        "missing": sorted({m for t in traces for m in t["missing"]}),
        "layer_self_s": _by_layer(self_s),
    }
    return metrics, detail


def _by_layer(self_s: dict[str, float]) -> dict[str, float]:
    layers: dict[str, float] = {}
    for name, value in self_s.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + value
    return layers


def measure_setup(work: Path, deadline: float) -> float:
    """Median wall time of a cold ``tarstop --help`` process."""
    walls = []
    for i in range(SETUP_SPAWNS):
        proc = spawn([sys.executable, "-m", "tarstop.cli", "--help"],
                     work / f"help-{i}.log", deadline)
        if proc.code != 0:
            raise RuntimeError("tarstop --help failed:\n"
                               + (work / f"help-{i}.log").read_text(errors="replace"))
        walls.append(proc.wall_s)
    return statistics.median(walls)


def run_workload(workload: str, seed: int, seconds: int, traced: bool, spec: dict) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    base = seed % 2**32
    work = HERE / ".work" / f"{workload}-{base}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_s = None if traced else measure_setup(work, deadline)
        corpus, files = None, None
        if workload != "synthetic-misspecified":
            corpus = workload_corpus(corpus_mod.generate(base), workload)
            files = corpus_mod.write(corpus, work / "corpus")
            log(f"corpus seed {base}: {corpus_mod.stats(corpus)}")
        invs = invocations(workload, base, files, work / "out")
        checker = Checker(corpus)

        plain: list[Round] = []
        traced_rounds: list[Round] = []
        start = time.perf_counter()
        while True:
            plain.append(run_round(invs, checker, work, deadline, traced=False))
            if traced:
                traced_rounds.append(run_round(invs, checker, work, deadline, traced=True))
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(plain) > seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is still using it
            pass

    result = check.Result()
    for rnd in plain + traced_rounds:
        result.add(rnd.result)
    digests = {}
    for rnd in plain + traced_rounds:
        for key, value in rnd.digests.items():
            result.expect(digests.setdefault(key, value) == value,
                          f"{key}: output bytes differ between rounds")
    for key, value in sorted(digests.items()):
        log(f"sha256 {key} {value}")

    median = statistics.median
    if not traced:
        metrics = {
            "setup_s": setup_s,
            "wall_s": median([r.wall_s for r in plain]),
            "cpu_s": median([r.cpu_s for r in plain]),
            "peak_rss_mb": median([r.rss_mb for r in plain]),
        }
        names = spec["end_to_end"]
    else:
        lines = corpus.total_docs if corpus is not None else 0
        per_round = [layer_metrics(r.traces, lines) for r in traced_rounds]
        metrics = {k: median([m[k] for m, _ in per_round]) for k in per_round[0][0]}
        for k in EXACT_COUNTS:
            result.expect(len({m[k] for m, _ in per_round}) == 1,
                          f"{k} differs between traced rounds")
        traced_wall = median([r.wall_s for r in traced_rounds])
        plain_wall = median([r.wall_s for r in plain])
        accounted = median([d["accounted_s"] for _, d in per_round])
        metrics["trace.overhead_s"] = traced_wall - plain_wall
        metrics["trace.accounted_share"] = accounted / traced_wall
        detail = per_round[0][1]
        log(f"traced wall {traced_wall:.3f} s, untraced wall {plain_wall:.3f} s; "
            f"import plus traced spans account for {accounted:.3f} s "
            f"({100 * accounted / traced_wall:.1f}%)")
        log("layer self time (s): " + ", ".join(
            f"{k} {v:.3f}" for k, v in sorted(detail["layer_self_s"].items())))
        log(f"pp decisions: {detail['pp_decisions']}, tail is {detail['pp_tail_percentile']}; "
            f"errors raised: {detail['errors']}")
        if detail["missing"]:
            log(f"not found in the program, reported as 0: {detail['missing']}")
        names = spec["per_layer"]

    units = {m["name"]: m["unit"] for m in names}
    for name in units:
        result.expect(name in metrics, f"metric {name} was not measured")
    for problem in result.mismatches[:20]:
        log(f"MISMATCH {problem}")
    rounds = len(plain)
    log(f"{workload}: {rounds} round(s), {result.attempted} operations attempted, "
        f"{result.failed} failed, {len(result.mismatches)} mismatches")
    return {
        "correct": not result.mismatches,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads(SPEC.read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tarstop" / "cli.py").is_file():
        log(f"no tarstop sources under {SRC}; run from a source checkout")
        return 2

    if args.workload == "all":
        todo = [(w, traced) for w in workloads for traced in (False, True)]
    else:
        todo = [(args.workload, bool(args.trace))]
    results = []
    for workload, traced in todo:
        result = run_workload(workload, args.seed, args.seconds, traced, spec)
        for name, m in result["metrics"].items():
            print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
        print(f"{workload} trace={int(traced)}: attempted {result['attempted']}, "
              f"failed {result['failed']}, correct {result['correct']}")
        results.append((workload, result))
    if len(results) == 1:
        print(json.dumps(results[0][1]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {f"{w}/{k}": v for w, r in results for k, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
