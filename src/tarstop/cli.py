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
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import click

from tarstop.config import resolve_params
from tarstop.core import MethodParams, Run, Topic
from tarstop.errors import ComputationError, ParseError, ValidationError
from tarstop.ingest import Qrels, parse_qrels, parse_run, validate_dataset
from tarstop.methods import RULES
from tarstop.metrics import (
    build_report,
    build_stratify_report,
    mean_aurc,
    topic_records,
)
from tarstop.plots import render_svg
from tarstop.ratefit import fit_topic, predicted_gain
from tarstop.simulate import FAMILIES, coverage_experiment


def _write(out_dir: Path, files: dict[str, str | list[dict]]) -> None:
    """Write text or records (sorted-key JSON lines) into out_dir with LF line ends."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        if not isinstance(content, str):
            content = "".join(json.dumps(r, sort_keys=True) + "\n" for r in content)
        (out_dir / name).write_text(content, newline="\n")


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
        records={m: topic_records(run, m, params, seed) for m in methods},
        gain=gain,
    )


def _gain_curve(topic: Topic, params: MethodParams) -> tuple[list, list]:
    """(observed, estimated) cumulative gain of a topic at ranks 0..n.

    The estimate is the running sum of the rate fitted over the whole
    ranking.
    """
    n = topic.size
    predicted = predicted_gain(fit_topic(topic, params), n)
    actual = list(zip(range(n + 1), topic.cumrel.astype(float).tolist()))
    return actual, [(0, 0.0), *zip(range(1, n + 1), predicted)]


def _aggregate_table(records: list[dict], title: str) -> str:
    """The aggregate records of a report as a text table."""
    aggregates = [r for r in records if r["record"] == "aggregate"]
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
    bad = [m for m in methods if m not in RULES]
    if bad:
        raise click.UsageError(f"unknown methods {bad}; choose from {','.join(RULES)}")
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


def _finite(ctx, param, value: float) -> float:
    """Refuse NaN and +-inf, which a FloatRange lets through."""
    if not math.isfinite(value):
        raise click.BadParameter(f"{value} is not a finite number.", ctx, param)
    return value


def _file_name_part(ctx, param, value: str) -> str:
    """Refuse a value that would put a path separator into an output file name."""
    if any(sep and sep in value for sep in (os.sep, os.altsep)):
        raise click.BadParameter(f"{value!r} contains a path separator.", ctx, param)
    return value


def _out_dir(ctx, param, value: str) -> Path:
    """Refuse an --out-dir that mkdir could not make or write in.

    Runs as the arguments are parsed, before any input is read, and makes
    nothing, so a command that fails later leaves no directory behind.  The
    nearest existing ancestor must be a directory this process may write in.
    """
    path = Path(value)
    nearest = next(p for p in (path, *path.parents) if os.path.lexists(p))
    if not nearest.is_dir():
        raise click.BadParameter(f"{str(nearest)!r} is not a directory.", ctx, param)
    if not os.access(nearest, os.W_OK | os.X_OK):
        raise click.BadParameter(f"{str(nearest)!r} is not writable.", ctx, param)
    return path


_out_dir_option = click.option(
    "--out-dir",
    type=click.Path(file_okay=False),
    callback=_out_dir,
    default=".",
    show_default=True,
)

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
    _out_dir_option,
)

_methods_option = click.option("--methods", default=",".join(RULES), show_default=True)


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
    records = build_report({r.run_tag: r.records for r in results})
    table = _aggregate_table(records, f"All {len(results)} runs")
    _write(out_dir, {"report.jsonl": records, "report.txt": table})
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
    records = build_stratify_report(
        {r.run_tag: r.mean_aurc for r in results},
        {r.run_tag: r.records for r in results},
    )
    bands = ", ".join(
        f"{r['group']} [{r['lo']:.3f}, {r['hi']:.3f}] {r['status']}"
        for r in records
        if r["record"] == "sanity_band"
    )
    tables = [
        _aggregate_table(
            [r for r in records if r.get("group") == group],
            f"{group.capitalize()} 5 runs",
        )
        for group in ("top", "middle", "bottom")
    ]
    text = "\n".join([f"AURC sanity bands: {bands}", "", *tables])
    _write(out_dir, {"stratify.jsonl": records, "stratify.txt": text})
    click.echo(text, nl=False)


@cli.command("plot-data")
@_run_file_options
@click.option("--topic", "topic_id", required=True, callback=_file_name_part)
@_params_options
def plot_data(run_paths, qrels_path, topic_id, seed, out_dir, config_path, **flags):
    """Emit gain-curve and effort-vs-AURC CSV/SVG plot data."""
    params = resolve_params(config_path, **flags)
    task = partial(_assess_run, methods=["or", "pp"], params=params, seed=seed)
    # The gain curve is drawn for the topic in the first run file.
    jobs = [(run_paths[0], partial(task, gain_topic=topic_id))]
    jobs += [(path, task) for path in run_paths[1:]]
    results = _map_runs(qrels_path, jobs)

    actual, predicted = results[0].gain
    gain_csv = "rank,relevant_found,rate_estimate\n" + "".join(
        f"{rank},{a:.6f},{p:.6f}\n" for (rank, a), (_, p) in zip(actual, predicted)
    )

    # Per-run effort vs. AURC for the oracle and Poisson methods.
    effort = {
        (r["run"], r["method"]): r["total_effort"]
        for r in build_report({r.run_tag: r.records for r in results})
        if r["record"] == "run"
    }
    rows = sorted(
        (r.run_tag, r.mean_aurc, effort[r.run_tag, "or"], effort[r.run_tag, "pp"])
        for r in results
    )
    effort_csv = "run,mean_aurc,oracle_effort,poisson_effort\n" + "".join(
        f"{tag},{score:.6f},{or_eff},{pp_eff}\n" for tag, score, or_eff, pp_eff in rows
    )
    series = {
        "oracle": [(score, or_eff) for _, score, or_eff, _ in rows],
        "poisson": [(score, pp_eff) for _, score, _, pp_eff in rows],
    }
    _write(
        out_dir,
        {
            f"gain_{topic_id}.csv": gain_csv,
            f"gain_{topic_id}.svg": render_svg(
                {"observed": actual, "estimated": predicted}, "rank", "relevant found"
            ),
            "effort_vs_aurc.csv": effort_csv,
            "effort_vs_aurc.svg": render_svg(series, "mean AURC", "effort"),
        },
    )
    click.echo(f"wrote plot data for topic {topic_id} to {out_dir}")


@cli.command()
@click.option("--family", required=True, type=click.Choice(list(FAMILIES)))
# Finite floats in range, so every rate FAMILIES builds from them is valid.
@click.option("--d", type=click.FloatRange(min=0, min_open=True), callback=_finite, default=0.5, show_default=True)
@click.option("--k", type=float, callback=_finite, default=-0.005, show_default=True)
@click.option("--p", type=click.FloatRange(0, 1), callback=_finite, default=0.1, show_default=True)
@click.option("--p1", type=click.FloatRange(0, 1), callback=_finite, default=0.3, show_default=True)
@click.option("--p2", type=click.FloatRange(0, 1), callback=_finite, default=0.01, show_default=True)
@click.option("--cutoff", type=click.IntRange(min=0), default=100, show_default=True)
@click.option("--n", "n_docs", type=click.IntRange(min=1), default=2000, show_default=True)
@click.option("--trials", type=click.IntRange(min=1), required=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@_out_dir_option
@_params_options
def simulate(
    family, d, k, p, p1, p2, cutoff, n_docs, trials, seed, out_dir, config_path, **flags
):
    """Run coverage and method-reliability experiments on synthetic topics.

    Coverage of the credible bound is reported from 100 trials up.
    """
    params = resolve_params(config_path, **flags)
    rate = FAMILIES[family]({"d": d, "k": k, "p": p, "p1": p1, "p2": p2, "cutoff": cutoff})
    records = coverage_experiment(family, rate, n_docs, trials, seed, params)
    coverage = records[0]["coverage"]

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
    _write(out_dir, {"simulate.jsonl": records, "simulate.txt": text})
    click.echo(text, nl=False)


@cli.command()
@click.option("--runs", "run_paths", multiple=True, required=True, type=click.Path(exists=True))
@click.option("--qrels", "qrels_path", required=True, type=click.Path(exists=True))
@_out_dir_option
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
    text = json.dumps(summary, sort_keys=True, indent=2) + "\n"
    _write(out_dir, {"validation.json": text})
    for name, status in summary["checks"]:
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
