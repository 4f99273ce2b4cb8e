"""Command-line front end.

Subcommands evaluate stopping methods over run/qrels files, stratify runs
by ranking quality, emit plot data, run synthetic-validation experiments,
and validate datasets.  Structured outputs are line-delimited JSON with
sorted keys so identical inputs produce identical bytes.

Exit codes: 0 success, 1 usage, 2 parse/validation, 3 computation error.
"""

from __future__ import annotations

import json
import logging
import math
import os
import sys
import zlib
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import click
import numpy as np

from tarstop.config import resolve_params
from tarstop.core import MethodParams, Run, Topic
from tarstop.errors import ComputationError, ParseError, ValidationError
from tarstop.ingest import Qrels, parse_qrels, parse_run, validate_dataset
from tarstop.methods import knee_stop, oracle_stop, poisson_stop, target_stop
from tarstop.metrics import (
    acceptability,
    mean_aurc,
    pct_effort_saved,
    recall_of,
    reliability,
    stratify_runs,
)
from tarstop.plots import render_svg
from tarstop.poisson import _MAX_EXP_ARG
from tarstop.ratefit import bin_prefix, fit_exponential
from tarstop.simulate import bound_covers, gen_topic, make_rate_family

# name -> rule(topic, params, seed).  Key order is the order in which
# simulate.jsonl lists the methods.
METHODS = {
    "pp": lambda topic, params, seed: poisson_stop(topic, params),
    "tm": lambda topic, params, seed: target_stop(topic, params, seed),
    "km": lambda topic, params, seed: knee_stop(topic, params),
    "or": lambda topic, params, seed: oracle_stop(topic, params),
}
METHOD_NAMES = tuple(METHODS)


def _topic_seed(base: int, run_tag: str, topic_id: str) -> int:
    """Stable per-(run, topic) seed for the randomized target method."""
    return base * 1_000_003 + zlib.crc32(f"{run_tag}:{topic_id}".encode())


def _dump_jsonl(records: list[dict], path: Path) -> None:
    with path.open("w", newline="\n") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def _topic_records(
    run: Run, method: str, params: MethodParams, seed: int
) -> list[dict]:
    """One method's topic records on a run, in topic_id order."""
    records = []
    for topic in sorted(run.topics, key=lambda t: t.topic_id):
        outcome = METHODS[method](
            topic, params, _topic_seed(seed, run.run_tag, topic.topic_id)
        )
        records.append(
            {
                "record": "topic",
                "run": run.run_tag,
                "method": method,
                "topic_id": topic.topic_id,
                "n": topic.size,
                "stop_rank": outcome.stop_rank,
                "extra_examined": outcome.extra_examined,
                "effort": outcome.effort,
                "relevant_found": outcome.relevant_found,
                "recall": round(recall_of(outcome, topic), 10),
                "acceptable": acceptability(outcome, topic, params.target_recall),
                "predicted": outcome.predicted,
            }
        )
    return records


def _summary(topics: list[dict]) -> dict:
    """Unrounded run-record figures of one method's topic records on a run."""
    return {
        "total_effort": sum(t["effort"] for t in topics),
        "reliability": reliability([t["acceptable"] for t in topics]),
        "mean_pct_effort_saved": pct_effort_saved(
            [(t["effort"], t["n"]) for t in topics]
        ),
    }


@dataclass(frozen=True)
class _RunResult:
    """What a pool worker sends back for one run file.

    ``records`` maps each requested method to its topic records on the run;
    ``gain`` is set when a gain curve was asked for.
    """

    run_tag: str
    mean_aurc: float
    records: dict[str, list[dict]]
    gain: tuple[list, list] | None = None


def _assess_run(
    run: Run,
    methods: list[str],
    params: MethodParams,
    seed: int,
    gain_topic: str | None = None,
) -> _RunResult:
    """A worker's task: assess one labelled run with the given methods.

    The gain curve of ``gain_topic`` is drawn when a topic is named.
    """
    gain = None
    if gain_topic is not None:
        topic = next((t for t in run.topics if t.topic_id == gain_topic), None)
        if topic is None:
            raise ValidationError(
                f"topic {gain_topic!r} not found in {run.run_tag!r}"
            )
        gain = _gain_curve(topic, params)
    return _RunResult(
        run_tag=run.run_tag,
        mean_aurc=mean_aurc(run),
        records={m: _topic_records(run, m, params, seed) for m in methods},
        gain=gain,
    )


def _gain_curve(topic: Topic, params: MethodParams) -> tuple[list, list]:
    """(observed, estimated) cumulative gain of a topic at ranks 0..n.

    The estimate integrates the rate fitted over the whole ranking.
    """
    n = topic.size
    batch = max(1, math.ceil(params.beta_frac * n))
    model = fit_exponential(bin_prefix(topic, n, batch))
    arg = model.k * np.arange(1, n + 1, dtype=float)
    if arg[-1] > _MAX_EXP_ARG:
        rank = int(np.argmax(arg > _MAX_EXP_ARG)) + 1
        raise ComputationError(f"exp overflow evaluating rate at x={rank}")
    # Summed rank by rank, in the order a running total would add them.
    predicted = np.cumsum(model.d * np.exp(arg)).tolist()
    actual = list(zip(range(n + 1), topic.cumrel.astype(float).tolist()))
    return actual, [(0, 0.0), *zip(range(1, n + 1), predicted)]


def _evaluate_records(
    results: list[_RunResult], methods: list[str]
) -> tuple[list[dict], list[dict]]:
    """(jsonl records, aggregate rows) for a set of assessed runs.

    Each run's topic records are followed by its run record; one aggregate
    row per method closes the list.
    """
    records: list[dict] = []
    summaries: dict[str, list[dict]] = {m: [] for m in methods}
    for result in sorted(results, key=lambda r: r.run_tag):
        for method in methods:
            topics = result.records[method]
            summary = _summary(topics)
            summaries[method].append(summary)
            records += topics
            records.append(
                {
                    "record": "run",
                    "run": result.run_tag,
                    "method": method,
                    "topic_count": len(topics),
                    **{key: round(value, 10) for key, value in summary.items()},
                }
            )
    aggregates = []
    for method, runs in summaries.items():
        flags = [t["acceptable"] for r in results for t in r.records[method]]
        aggregates.append(
            {
                "record": "aggregate",
                "method": method,
                "run_count": len(runs),
                "mean_effort": round(
                    sum(r["total_effort"] for r in runs) / len(runs), 10
                ),
                "mean_pct_effort_saved": round(
                    sum(r["mean_pct_effort_saved"] for r in runs) / len(runs), 10
                ),
                "reliability": round(reliability(flags), 10),
            }
        )
    return records + aggregates, aggregates


def _aggregate_table(aggregates: list[dict], title: str) -> str:
    lines = [
        title,
        f"{'Method':<10} {'Mean Eff.':>12} {'Mean % Eff. Saved':>19} {'Reliability':>12}",
    ]
    for agg in aggregates:
        lines.append(
            f"{agg['method']:<10} {agg['mean_effort']:>12,.1f} "
            f"{agg['mean_pct_effort_saved']:>18.1f}% {agg['reliability']:>12.4f}"
        )
    return "\n".join(lines) + "\n"


# The per-run pipeline.  Each run file is parsed, labelled and assessed in a
# pool worker; the qrels are parsed once in the parent and handed to every
# worker.  Records logged in a worker come back with its result and are
# emitted in the parent, in --runs order.


class _KeptRecords(logging.Handler):
    """Keeps a worker's log records, formatted, until its task returns."""

    def __init__(self):
        super().__init__()
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        record.msg, record.args = record.getMessage(), None
        self.records.append(record)


# Set in each pool worker by _init_worker.
_worker_qrels: Qrels = {}
_worker_log: _KeptRecords | None = None


def _init_worker(qrels: Qrels) -> None:
    global _worker_qrels, _worker_log
    _worker_qrels, _worker_log = qrels, _KeptRecords()
    logger = logging.getLogger("tarstop")
    logger.handlers, logger.propagate = [_worker_log], False


def _run_worker(
    path: str, task: Callable[[Run], _RunResult]
) -> tuple[_RunResult, list[logging.LogRecord]]:
    _worker_log.records = []
    with open(path) as handle:
        run = parse_run(handle, _worker_qrels)
    for topic in run.topics:
        if topic.total_relevant < 1:
            raise ValidationError(
                f"run {run.run_tag!r} topic {topic.topic_id!r} has no "
                "relevant documents in the qrels; recall is undefined"
            )
    return task(run), _worker_log.records


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_runs(
    qrels_path: str, jobs: list[tuple[str, Callable[[Run], _RunResult]]]
) -> list[_RunResult]:
    """Run each (run file, task) job on a process pool; results in job order.

    The first job to fail, in job order, decides the error raised.  A
    worker that dies ends the command with a ComputationError naming the
    first run file left unfinished.  The workers are reaped before this
    returns.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with open(qrels_path) as handle:
        qrels = parse_qrels(handle)
    context = None
    if "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(
        max_workers=min(len(jobs), _cpu_count()),
        mp_context=context,
        initializer=_init_worker,
        initargs=(qrels,),
    )
    try:
        futures = [pool.submit(_run_worker, path, task) for path, task in jobs]
        results = []
        for (path, _), future in zip(jobs, futures):
            try:
                result, records = future.result()
            except BrokenProcessPool:
                raise ComputationError(
                    f"a worker process died before run file {path} was done"
                ) from None
            for record in records:
                logging.getLogger(record.name).handle(record)
            if any(r.run_tag == result.run_tag for r in results):
                raise ValidationError(
                    f"run tag {result.run_tag!r} is given more than once"
                )
            results.append(result)
        return results
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _parse_methods(spec: str) -> list[str]:
    methods = [m.strip() for m in spec.split(",") if m.strip()]
    bad = [m for m in methods if m not in METHOD_NAMES]
    if bad:
        raise click.UsageError(
            f"unknown methods {bad}; choose from {','.join(METHOD_NAMES)}"
        )
    if not methods:
        raise click.UsageError("no methods selected")
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise click.UsageError(f"methods {repeated} are given more than once")
    return methods


def _options(*options):
    """One decorator applying the given click options in the order given."""

    def decorate(func):
        for option in reversed(options):
            func = option(func)
        return func

    return decorate


_params_options = _options(
    click.option("--recall", "target_recall", type=float, default=None),
    click.option("--confidence", type=float, default=None),
    click.option("--alpha", "alpha_frac", type=float, default=None),
    click.option("--beta", "beta_frac", type=float, default=None),
    click.option("--gamma", type=int, default=None),
    click.option("--delta", type=float, default=None),
    click.option("--epsilon", type=int, default=None),
    click.option("--target-count", type=int, default=None),
    click.option("--config", "config_path", type=click.Path(exists=True), default=None),
)

# Inputs and outputs of the commands that read run files through _map_runs.
_run_file_options = _options(
    click.option("--runs", "run_paths", multiple=True, required=True, type=click.Path(exists=True)),
    click.option("--qrels", "qrels_path", required=True, type=click.Path(exists=True)),
    click.option("--seed", type=int, default=0, show_default=True),
    click.option("--out-dir", type=click.Path(), default=".", show_default=True),
)

_methods_option = click.option("--methods", default="pp,tm,km,or", show_default=True)


@click.group()
def cli():
    """Stopping-criteria evaluation for ranked document review."""


@cli.command()
@_run_file_options
@_methods_option
@_params_options
def evaluate(run_paths, qrels_path, methods, seed, out_dir, config_path, **flags):
    """Evaluate stopping methods over run files, writing report.txt/.jsonl."""
    params = resolve_params(config_path, **flags)
    method_list = _parse_methods(methods)
    task = partial(_assess_run, methods=method_list, params=params, seed=seed)
    results = _map_runs(qrels_path, [(path, task) for path in run_paths])
    records, aggregates = _evaluate_records(results, method_list)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _dump_jsonl(records, out / "report.jsonl")
    table = _aggregate_table(aggregates, f"All {len(results)} runs")
    (out / "report.txt").write_text(table)
    click.echo(table, nl=False)


@cli.command()
@_run_file_options
@_methods_option
@_params_options
def stratify(run_paths, qrels_path, methods, seed, out_dir, config_path, **flags):
    """Rank runs by mean AURC and report top/middle/bottom five groups."""
    params = resolve_params(config_path, **flags)
    method_list = _parse_methods(methods)
    if len(run_paths) < 15:
        raise click.UsageError("stratification needs at least 15 runs")
    task = partial(_assess_run, methods=method_list, params=params, seed=seed)
    results = _map_runs(qrels_path, [(path, task) for path in run_paths])
    scored = [(result, result.mean_aurc) for result in results]
    top, middle, bottom = stratify_runs(scored)

    records: list[dict] = []
    for result, score in sorted(scored, key=lambda pair: pair[0].run_tag):
        records.append(
            {
                "record": "run_aurc",
                "run": result.run_tag,
                "mean_aurc": round(score, 10),
            }
        )
    bands = []
    for name, group, lo, hi in (
        ("top", top, 0.91, 0.94),
        ("bottom", bottom, 0.46, 0.62),
    ):
        scores = sorted(score for _, score in group)
        bands.append(
            {
                "record": "sanity_band",
                "group": name,
                "lo": round(scores[0], 10),
                "hi": round(scores[-1], 10),
                "status": "pass" if lo <= scores[0] and scores[-1] <= hi else "warn",
            }
        )
    records.extend(bands)

    tables = []
    for group_name, group in (("top", top), ("middle", middle), ("bottom", bottom)):
        group_records, aggregates = _evaluate_records(
            [result for result, _ in group], method_list
        )
        for record in group_records:
            record["group"] = group_name
            records.append(record)
        tables.append(_aggregate_table(aggregates, f"{group_name.capitalize()} 5 runs"))

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _dump_jsonl(records, out / "stratify.jsonl")
    text = "\n".join(
        [
            "AURC sanity bands: "
            + ", ".join(f"{b['group']} [{b['lo']:.3f}, {b['hi']:.3f}] {b['status']}" for b in bands),
            "",
        ]
        + tables
    )
    (out / "stratify.txt").write_text(text)
    click.echo(text, nl=False)


@cli.command("plot-data")
@_run_file_options
@click.option("--topic", "topic_id", required=True)
@_params_options
def plot_data(run_paths, qrels_path, topic_id, seed, out_dir, config_path, **flags):
    """Emit gain-curve and effort-vs-AURC CSV/SVG plot data."""
    params = resolve_params(config_path, **flags)
    task = partial(_assess_run, methods=["or", "pp"], params=params, seed=seed)
    # The gain curve is drawn for the topic in the first run file.
    jobs = [(run_paths[0], partial(task, gain_topic=topic_id))]
    jobs += [(path, task) for path in run_paths[1:]]
    results = _map_runs(qrels_path, jobs)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    actual, predicted = results[0].gain
    with (out / f"gain_{topic_id}.csv").open("w", newline="\n") as handle:
        handle.write("rank,relevant_found,rate_estimate\n")
        for (rank, a), (_, p) in zip(actual, predicted):
            handle.write(f"{rank},{a:.6f},{p:.6f}\n")
    render_svg(
        {"observed": actual, "estimated": predicted},
        out / f"gain_{topic_id}.svg",
        x_label="rank",
        y_label="relevant found",
    )

    # Per-run effort vs. AURC for the oracle and Poisson methods.
    rows = [
        (
            result.run_tag,
            result.mean_aurc,
            _summary(result.records["or"])["total_effort"],
            _summary(result.records["pp"])["total_effort"],
        )
        for result in sorted(results, key=lambda r: r.run_tag)
    ]
    with (out / "effort_vs_aurc.csv").open("w", newline="\n") as handle:
        handle.write("run,mean_aurc,oracle_effort,poisson_effort\n")
        for tag, score, or_eff, pp_eff in rows:
            handle.write(f"{tag},{score:.6f},{or_eff},{pp_eff}\n")
    render_svg(
        {
            "oracle": [(score, or_eff) for _, score, or_eff, _ in rows],
            "poisson": [(score, pp_eff) for _, score, _, pp_eff in rows],
        },
        out / "effort_vs_aurc.svg",
        x_label="mean AURC",
        y_label="effort",
    )
    click.echo(f"wrote plot data for topic {topic_id} to {out}")


@cli.command()
@click.option("--family", required=True, type=click.Choice(["exponential", "uniform", "step", "bimodal"]))
@click.option("--d", type=click.FloatRange(min=0, min_open=True), default=0.5, show_default=True)
@click.option("--k", type=float, default=-0.005, show_default=True)
@click.option("--p", type=click.FloatRange(0, 1), default=0.1, show_default=True)
@click.option("--p1", type=click.FloatRange(0, 1), default=0.3, show_default=True)
@click.option("--p2", type=click.FloatRange(0, 1), default=0.01, show_default=True)
@click.option("--cutoff", type=click.IntRange(min=0), default=100, show_default=True)
@click.option("--n", "n_docs", type=click.IntRange(min=1), default=2000, show_default=True)
@click.option("--trials", type=click.IntRange(min=1), required=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--out-dir", type=click.Path(), default=".", show_default=True)
@_params_options
def simulate(
    family, d, k, p, p1, p2, cutoff, n_docs, trials, seed, out_dir, config_path, **flags
):
    """Run coverage and method-reliability experiments on synthetic topics.

    Coverage of the credible bound is reported from 100 trials up.
    """
    params = resolve_params(config_path, **flags)
    try:
        rate = make_rate_family(
            family, {"d": d, "k": k, "p": p, "p1": p1, "p2": p2, "cutoff": cutoff}
        )
    except ValueError as exc:
        raise click.BadParameter(str(exc)) from None

    # Each trial topic is drawn once and shared by coverage and the methods.
    covered = 0
    acceptable = {m: [] for m in METHOD_NAMES}
    for trial in range(trials):
        topic = gen_topic(n_docs, rate, seed=seed + trial)
        if trials >= 100:
            covered += bound_covers(topic, params)
        if topic.total_relevant == 0:
            continue
        for method, rule in METHODS.items():
            outcome = rule(topic, params, seed + trial)
            acceptable[method].append(
                acceptability(outcome, topic, params.target_recall)
            )
    coverage = covered / trials if trials >= 100 else None

    records = [
        {
            "record": "experiment",
            "family": family,
            "n": n_docs,
            "trials": trials,
            "seed": seed,
            "coverage": None if coverage is None else round(coverage, 10),
        }
    ]
    for method, hits in acceptable.items():
        records.append(
            {
                "record": "method_reliability",
                "method": method,
                "topics": len(hits),
                "reliability": round(reliability(hits), 10) if hits else None,
            }
        )

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _dump_jsonl(records, out / "simulate.jsonl")
    lines = [f"family={family} n={n_docs} trials={trials} seed={seed}"]
    if coverage is not None:
        lines.append(f"credible-bound coverage: {coverage:.4f}")
    for record in records[1:]:
        rel = record["reliability"]
        lines.append(
            f"{record['method']} reliability: "
            + (f"{rel:.4f} over {record['topics']} topics" if rel is not None else "n/a")
        )
    text = "\n".join(lines) + "\n"
    (out / "simulate.txt").write_text(text)
    click.echo(text, nl=False)


@cli.command()
@click.option("--runs", "run_paths", multiple=True, required=True, type=click.Path(exists=True))
@click.option("--qrels", "qrels_path", required=True, type=click.Path(exists=True))
@click.option("--out-dir", type=click.Path(), default=".", show_default=True)
def validate(run_paths, qrels_path, out_dir):
    """Check ingested data against the known collection statistics.

    Every run file is labelled from the qrels and must hold the topics of
    the first, whose figures are summarized.
    """
    with open(qrels_path) as handle:
        qrels = parse_qrels(handle)
    first = first_ids = None
    for path in run_paths:
        with open(path) as handle:
            run = parse_run(handle, qrels)
        topic_ids = {t.topic_id for t in run.topics}
        if first is None:
            first, first_ids = run, topic_ids
        elif topic_ids != first_ids:
            raise ValidationError(
                f"run {run.run_tag!r} ({path}) differs from run {first.run_tag!r} "
                f"in its topics: missing {sorted(first_ids - topic_ids)}, "
                f"extra {sorted(topic_ids - first_ids)}"
            )
    summary = validate_dataset(first)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "validation.json").write_text(
        json.dumps(summary.as_dict(), sort_keys=True, indent=2) + "\n"
    )
    for name, status in summary.checks:
        click.echo(f"{status:>4}  {name}")


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.ClickException as exc:
        exc.show()
        return 1
    except (ParseError, ValidationError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 2
    except ComputationError as exc:
        click.echo(f"computation error: {exc}", err=True)
        return 3


if __name__ == "__main__":
    sys.exit(main())
