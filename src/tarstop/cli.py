"""Command-line front end.

Subcommands evaluate stopping methods over run/qrels files, stratify runs
by ranking quality, emit plot data, run synthetic-validation experiments,
and validate datasets.  Structured outputs are line-delimited JSON with
sorted keys so identical inputs produce identical bytes.

Exit codes: 0 success, 1 usage, 2 parse/validation, 3 computation error.
"""

from __future__ import annotations

import json
import math
import sys
import zlib
from pathlib import Path

import click

from tarstop.config import resolve_params
from tarstop.core import MethodParams, Run, StopOutcome, Topic
from tarstop.errors import ComputationError, ParseError, ValidationError
from tarstop.ingest import join, parse_qrels, parse_run, validate_dataset
from tarstop.methods import knee_stop, oracle_stop, poisson_stop, target_stop
from tarstop.metrics import (
    MethodReport,
    acceptability,
    build_report,
    mean_aurc,
    recall_of,
    stratify_runs,
)
from tarstop.plots import render_svg
from tarstop.poisson import lambda_at
from tarstop.ratefit import bin_prefix, fit_exponential
from tarstop.simulate import gen_topic, coverage_experiment, make_rate_family

METHOD_NAMES = ("pp", "tm", "km", "or")


def _topic_seed(base: int, run_tag: str, topic_id: str) -> int:
    """Stable per-(run, topic) seed for the randomized target method."""
    return base * 1_000_003 + zlib.crc32(f"{run_tag}:{topic_id}".encode())


def run_method(
    name: str, topic: Topic, params: MethodParams, seed: int
) -> StopOutcome:
    if name == "pp":
        return poisson_stop(topic, params)
    if name == "tm":
        return target_stop(topic, params, seed)
    if name == "km":
        return knee_stop(topic, params)
    if name == "or":
        return oracle_stop(topic, params)
    raise ValueError(f"unknown method {name!r}")


def evaluate_run(
    run: Run, method: str, params: MethodParams, seed: int
) -> tuple[MethodReport, list[tuple[StopOutcome, Topic]]]:
    outcomes = []
    for topic in sorted(run.topics, key=lambda t: t.topic_id):
        outcome = run_method(
            method, topic, params, _topic_seed(seed, run.run_tag, topic.topic_id)
        )
        outcomes.append((outcome, topic))
    return build_report(method, outcomes, params.target_recall), outcomes


def _dump_jsonl(records: list[dict], path: Path) -> None:
    with path.open("w", newline="\n") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def _evaluate_records(
    runs: list[Run], methods: list[str], params: MethodParams, seed: int
) -> tuple[list[dict], list[dict]]:
    """(jsonl records, aggregate rows) for a set of runs and methods."""
    records: list[dict] = []
    aggregates: list[dict] = []
    per_method: dict[str, list[MethodReport]] = {m: [] for m in methods}
    for run in sorted(runs, key=lambda r: r.run_tag):
        for method in methods:
            report, outcomes = evaluate_run(run, method, params, seed)
            per_method[method].append(report)
            for outcome, topic in outcomes:
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
                        "acceptable": acceptability(
                            outcome, topic, params.target_recall
                        ),
                        "predicted": outcome.predicted,
                    }
                )
            records.append(
                {
                    "record": "run",
                    "run": run.run_tag,
                    "method": method,
                    "topic_count": len(report.per_topic),
                    "total_effort": report.total_effort,
                    "reliability": round(report.reliability, 10),
                    "mean_pct_effort_saved": round(report.mean_pct_effort_saved, 10),
                }
            )
    for method in methods:
        reports = per_method[method]
        topic_flags = [t.acceptable for r in reports for t in r.per_topic]
        aggregate = {
            "record": "aggregate",
            "method": method,
            "run_count": len(reports),
            "mean_effort": round(
                sum(r.total_effort for r in reports) / len(reports), 10
            ),
            "mean_pct_effort_saved": round(
                sum(r.mean_pct_effort_saved for r in reports) / len(reports), 10
            ),
            "reliability": round(
                sum(1 for a in topic_flags if a) / len(topic_flags), 10
            ),
        }
        aggregates.append(aggregate)
        records.append(aggregate)
    return records, aggregates


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


def _load_runs(run_paths, qrels_path) -> list[Run]:
    with open(qrels_path) as handle:
        qrels = parse_qrels(handle)
    runs = []
    for path in run_paths:
        with open(path) as handle:
            run = join(parse_run(handle), qrels)
        for topic in run.topics:
            if topic.total_relevant < 1:
                raise ValidationError(
                    f"run {run.run_tag!r} topic {topic.topic_id!r} has no "
                    "relevant documents in the qrels; recall is undefined"
                )
        runs.append(run)
    return runs


def _parse_methods(spec: str) -> list[str]:
    methods = [m.strip() for m in spec.split(",") if m.strip()]
    bad = [m for m in methods if m not in METHOD_NAMES]
    if bad:
        raise click.UsageError(
            f"unknown methods {bad}; choose from {','.join(METHOD_NAMES)}"
        )
    if not methods:
        raise click.UsageError("no methods selected")
    return methods


def _params_options(func):
    options = [
        click.option("--recall", "target_recall", type=float, default=None),
        click.option("--confidence", type=float, default=None),
        click.option("--alpha", "alpha_frac", type=float, default=None),
        click.option("--beta", "beta_frac", type=float, default=None),
        click.option("--gamma", type=int, default=None),
        click.option("--delta", type=float, default=None),
        click.option("--epsilon", type=int, default=None),
        click.option("--target-count", type=int, default=None),
        click.option("--config", "config_path", type=click.Path(exists=True), default=None),
    ]
    for option in reversed(options):
        func = option(func)
    return func


@click.group()
def cli():
    """Stopping-criteria evaluation for ranked document review."""


@cli.command()
@click.option("--runs", "run_paths", multiple=True, required=True, type=click.Path(exists=True))
@click.option("--qrels", "qrels_path", required=True, type=click.Path(exists=True))
@click.option("--methods", default="pp,tm,km,or", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out-dir", type=click.Path(), default=".", show_default=True)
@_params_options
def evaluate(run_paths, qrels_path, methods, seed, out_dir, config_path, **flags):
    """Evaluate stopping methods over run files, writing report.txt/.jsonl."""
    params = resolve_params(config_path, **flags)
    method_list = _parse_methods(methods)
    runs = _load_runs(run_paths, qrels_path)
    records, aggregates = _evaluate_records(runs, method_list, params, seed)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _dump_jsonl(records, out / "report.jsonl")
    table = _aggregate_table(aggregates, f"All {len(runs)} runs")
    (out / "report.txt").write_text(table)
    click.echo(table, nl=False)


@cli.command()
@click.option("--runs", "run_paths", multiple=True, required=True, type=click.Path(exists=True))
@click.option("--qrels", "qrels_path", required=True, type=click.Path(exists=True))
@click.option("--methods", default="pp,tm,km,or", show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out-dir", type=click.Path(), default=".", show_default=True)
@_params_options
def stratify(run_paths, qrels_path, methods, seed, out_dir, config_path, **flags):
    """Rank runs by mean AURC and report top/middle/bottom five groups."""
    params = resolve_params(config_path, **flags)
    method_list = _parse_methods(methods)
    runs = _load_runs(run_paths, qrels_path)
    if len(runs) < 15:
        raise click.UsageError("stratification needs at least 15 runs")
    scored = [(run, mean_aurc(run)) for run in runs]
    top, middle, bottom = stratify_runs(scored)

    records: list[dict] = []
    for run, score in sorted(scored, key=lambda pair: pair[0].run_tag):
        records.append(
            {
                "record": "run_aurc",
                "run": run.run_tag,
                "mean_aurc": round(score, 10),
            }
        )
    top_scores = sorted(score for _, score in top)
    bottom_scores = sorted(score for _, score in bottom)
    bands = [
        {
            "record": "sanity_band",
            "group": "top",
            "lo": round(top_scores[0], 10),
            "hi": round(top_scores[-1], 10),
            "status": "pass"
            if 0.91 <= top_scores[0] and top_scores[-1] <= 0.94
            else "warn",
        },
        {
            "record": "sanity_band",
            "group": "bottom",
            "lo": round(bottom_scores[0], 10),
            "hi": round(bottom_scores[-1], 10),
            "status": "pass"
            if 0.46 <= bottom_scores[0] and bottom_scores[-1] <= 0.62
            else "warn",
        },
    ]
    records.extend(bands)

    tables = []
    for group_name, group in (("top", top), ("middle", middle), ("bottom", bottom)):
        group_records, aggregates = _evaluate_records(
            [run for run, _ in group], method_list, params, seed
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
@click.option("--runs", "run_paths", multiple=True, required=True, type=click.Path(exists=True))
@click.option("--qrels", "qrels_path", required=True, type=click.Path(exists=True))
@click.option("--topic", "topic_id", required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out-dir", type=click.Path(), default=".", show_default=True)
@_params_options
def plot_data(run_paths, qrels_path, topic_id, seed, out_dir, config_path, **flags):
    """Emit gain-curve and effort-vs-AURC CSV/SVG plot data."""
    params = resolve_params(config_path, **flags)
    runs = _load_runs(run_paths, qrels_path)
    topic = next(
        (t for t in runs[0].topics if t.topic_id == topic_id), None
    )
    if topic is None:
        raise ValidationError(f"topic {topic_id!r} not found in {runs[0].run_tag!r}")

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    # Gain curve vs. the rate fitted over the whole ranking.
    batch = max(1, math.ceil(params.beta_frac * topic.size))
    model = fit_exponential(bin_prefix(topic, topic.size, batch))
    actual = [(0, 0.0)]
    predicted = [(0, 0.0)]
    cum = 0.0
    for rank, found in enumerate(topic.cumrel[1:].tolist(), start=1):
        cum += lambda_at(model, rank)
        predicted.append((rank, cum))
        actual.append((rank, float(found)))
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
    rows = []
    for run in sorted(runs, key=lambda r: r.run_tag):
        score = mean_aurc(run)
        or_report, _ = evaluate_run(run, "or", params, seed)
        pp_report, _ = evaluate_run(run, "pp", params, seed)
        rows.append((run.run_tag, score, or_report.total_effort, pp_report.total_effort))
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
@click.option("--d", type=float, default=0.5, show_default=True)
@click.option("--k", type=float, default=-0.005, show_default=True)
@click.option("--p", type=float, default=0.1, show_default=True)
@click.option("--p1", type=float, default=0.3, show_default=True)
@click.option("--p2", type=float, default=0.01, show_default=True)
@click.option("--cutoff", type=int, default=100, show_default=True)
@click.option("--n", "n_docs", type=int, default=2000, show_default=True)
@click.option("--trials", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out-dir", type=click.Path(), default=".", show_default=True)
@_params_options
def simulate(
    family, d, k, p, p1, p2, cutoff, n_docs, trials, seed, out_dir, config_path, **flags
):
    """Run coverage and method-reliability experiments on synthetic topics."""
    if trials < 1:
        raise click.UsageError("--trials must be >= 1")
    params = resolve_params(config_path, **flags)
    rate = make_rate_family(
        family, {"d": d, "k": k, "p": p, "p1": p1, "p2": p2, "cutoff": cutoff}
    )

    counts = {m: {"acceptable": 0, "total": 0} for m in METHOD_NAMES}

    def run_methods(trial: int, topic: Topic) -> None:
        if topic.total_relevant == 0:
            return
        for method in METHOD_NAMES:
            outcome = run_method(method, topic, params, seed + trial)
            counts[method]["total"] += 1
            counts[method]["acceptable"] += acceptability(
                outcome, topic, params.target_recall
            )

    # Each trial topic is drawn once and shared by coverage and the methods.
    if trials >= 100:
        coverage = coverage_experiment(
            rate, n_docs, trials, params, seed=seed, on_topic=run_methods
        )
    else:
        coverage = None
        for trial in range(trials):
            run_methods(trial, gen_topic(n_docs, rate, seed=seed + trial))

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
    for method in METHOD_NAMES:
        total = counts[method]["total"]
        records.append(
            {
                "record": "method_reliability",
                "method": method,
                "topics": total,
                "reliability": round(counts[method]["acceptable"] / total, 10)
                if total
                else None,
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
    """Check ingested data against the known collection statistics."""
    with open(qrels_path) as handle:
        qrels = parse_qrels(handle)
    runs = []
    for path in run_paths:
        with open(path) as handle:
            runs.append(parse_run(handle))
    summary = validate_dataset(runs, qrels)
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
    except click.UsageError as exc:
        exc.show()
        return 1
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
