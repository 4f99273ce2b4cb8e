"""Command-line front end.

Subcommands evaluate stopping methods over run/qrels files, stratify runs
by ranking quality, emit plot data, run synthetic-validation experiments,
and validate datasets.  Structured outputs are line-delimited JSON with
sorted keys so identical inputs produce identical bytes.

Exit codes: 0 success, 1 usage, 2 parse/validation, 3 computation error.
"""

from __future__ import annotations

import importlib.util
import math
import os
import sys
from contextlib import closing
from functools import partial
from pathlib import Path
from types import ModuleType
from typing import TYPE_CHECKING, Callable, Iterator

from tarstop.errors import ComputationError, ParseError, ValidationError

if TYPE_CHECKING:
    from tarstop.config import MethodParams
    from tarstop.core import Run, Topic
    from tarstop.ingest import QrelsIndex


def _lazy_module(name: str) -> ModuleType:
    """tarstop.<name>, registered as an import would but run on its first attribute read.

    A module already imported is returned as it is.
    """
    full_name = f"tarstop.{name}"
    if full_name not in sys.modules:
        spec = importlib.util.find_spec(full_name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[full_name] = module
        spec.loader.exec_module(module)
        setattr(sys.modules["tarstop"], name, module)
    return sys.modules[full_name]


# The engine: every tarstop module but errors, and numpy with them.  Each is
# in sys.modules once the CLI is imported, as the names below are, but runs
# only when a command first uses it: a command's --help and a usage error run
# config alone, whose fields the option tables read, and the group's --help
# none.  _map_runs runs them all before the pool forks: a module first run
# in a task would be run again in every worker.
_ENGINE = tuple(
    _lazy_module(name)
    for name in (
        "blockreader", "config", "core", "ingest", "methods",
        "metrics", "plots", "poisson", "ratefit", "simulate",
    )
)

from tarstop import config, core, ingest, metrics, plots, ratefit

# The names of methods.RULES and simulate.FAMILIES, which the option tables
# need without loading numpy.
_METHOD_NAMES = ("pp", "tm", "km", "or")
_FAMILY_NAMES = ("exponential", "uniform", "step", "bimodal")


def _write(out_dir: Path, files: dict[str, str | list[dict]]) -> None:
    """Write text or records (sorted-key JSON lines) into out_dir with LF line ends."""
    import json

    out_dir.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        if not isinstance(content, str):
            content = "".join(json.dumps(r, sort_keys=True) + "\n" for r in content)
        (out_dir / name).write_text(content, newline="\n")


def _gain_curve(topic: Topic, params: MethodParams) -> tuple[list, list]:
    """(observed, estimated) cumulative gain of a topic at ranks 0..n.

    The estimate is the running sum of the rate fitted over the whole
    ranking.
    """
    n = topic.size
    predicted = ratefit.predicted_gain(ratefit.fit_topic(topic, params), n)
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


# The per-run pipeline.  Each command hands _map_runs its run files and one
# task, and a pool worker parses and labels each file and runs the task on
# its Run.  The qrels are indexed once in the parent and handed to every
# worker, which a forked worker inherits without a copy.  Files are read as
# bytes, so as UTF-8 whatever the locale.  Each result, or error, comes back
# with the records logged in its worker, which are emitted in the parent, in
# --runs order.  logging is imported on this path alone; ingest has loaded it
# in the parent before the pool forks.

# Set in each pool worker: the qrels by _init_worker, and the records
# logged by the task running by _run_worker.
_worker_qrels: QrelsIndex | None = None
_worker_log: list | None = None


def _init_worker(qrels: QrelsIndex) -> None:
    import logging

    class KeptRecords(logging.Handler):
        """Keeps the worker's log records, formatted, until its task returns."""

        def emit(self, record: logging.LogRecord) -> None:
            record.msg, record.args = record.getMessage(), None
            _worker_log.append(record)

    global _worker_qrels
    _worker_qrels = qrels
    logger = logging.getLogger("tarstop")
    logger.handlers, logger.propagate = [KeptRecords()], False


def _run_worker(path: str, task: Callable[[Run], object]) -> tuple[str, object, list]:
    global _worker_log
    _worker_log = []
    try:
        with open(path, "rb") as handle:
            run = ingest.parse_run(handle, _worker_qrels)
        return run.run_tag, task(run), _worker_log
    except Exception as exc:
        exc.records = _worker_log  # pickled with the exception's __dict__
        raise


def _emit(records: list) -> None:
    import logging

    for record in records:
        logging.getLogger(record.name).handle(record)


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_runs(
    qrels_path: str, run_paths: list[str], task: Callable[[Run], object]
) -> Iterator[tuple[str, object]]:
    """Run task on each run file on a process pool; yield (run tag, result).

    Results come in run_paths order, each after the records logged in its
    worker, and the first file to fail, in that order, decides the error
    raised, after its records.  A worker that dies ends the command with a
    ComputationError naming the first run file left unfinished.  The
    workers are reaped once the last result is taken or the iterator is
    closed.
    """
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    with open(qrels_path, "rb") as handle:
        qrels = ingest.parse_qrels(handle)
    for module in _ENGINE:
        vars(module)  # the first attribute read runs a module not yet run
    context = None
    if "fork" in multiprocessing.get_all_start_methods():
        context = multiprocessing.get_context("fork")
    pool = ProcessPoolExecutor(
        max_workers=min(len(run_paths), _cpu_count()),
        mp_context=context,
        initializer=_init_worker,
        initargs=(qrels,),
    )
    try:
        futures = [pool.submit(_run_worker, path, task) for path in run_paths]
        seen = set()
        for path, future in zip(run_paths, futures):
            try:
                run_tag, result, records = future.result()
            except BrokenProcessPool:
                raise ComputationError(
                    f"a worker process died before run file {path} was done"
                ) from None
            except Exception as exc:
                _emit(getattr(exc, "records", []))
                raise
            _emit(records)
            if run_tag in seen:
                raise ValidationError(f"run tag {run_tag!r} is given more than once")
            seen.add(run_tag)
            yield run_tag, result
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _require_recall(run: Run) -> None:
    """Refuse a run with a topic that has no relevant document: a task's first step."""
    for topic in run.topics:
        if topic.total_relevant < 1:
            raise ValidationError(
                f"run {run.run_tag!r} topic {topic.topic_id!r} has no "
                "relevant documents in the qrels; recall is undefined"
            )


def _evaluate_task(run: Run, methods: list[str], params: MethodParams, seed: int) -> dict:
    """evaluate's task: each method's topic records on the run."""
    _require_recall(run)
    return {m: metrics.topic_records(run, m, params, seed) for m in methods}


def _stratify_task(run: Run, methods: list[str], params: MethodParams, seed: int) -> tuple:
    """stratify's task: the run's mean AURC, and each method's topic records on it."""
    _require_recall(run)
    return metrics.mean_aurc(run), {m: metrics.topic_records(run, m, params, seed) for m in methods}


def _plot_data_task(run: Run, topic_id: str, params: MethodParams, seed: int) -> tuple:
    """plot-data's task: stratify's for or and pp, and topic_id's labels or None."""
    result = _stratify_task(run, ["or", "pp"], params, seed)
    topic = next((t for t in run.topics if t.topic_id == topic_id), None)
    return (*result, None if topic is None else topic.relevant)


def _validate_task(run: Run) -> tuple[set[str], dict]:
    """validate's task: the run's topic ids and its dataset summary."""
    return {t.topic_id for t in run.topics}, ingest.validate_dataset(run)


class _UsageError(Exception):
    """A command line that cannot run: main prints it under the usage line, exit 1."""


def _parse_methods(spec: str) -> list[str]:
    """The methods named in spec."""
    from tarstop.methods import RULES

    methods = [m.strip() for m in spec.split(",") if m.strip()]
    bad = [m for m in methods if m not in RULES]
    if bad:
        raise _UsageError(f"unknown methods {bad}; choose from {','.join(RULES)}")
    if not methods:
        raise _UsageError("no methods selected")
    repeated = sorted({m for m in methods if methods.count(m) > 1})
    if repeated:
        raise _UsageError(f"methods {repeated} are given more than once")
    return methods


# Checks run on an option's value once it is converted.  Each returns the
# value to use, or raises ValueError saying why the value is refused.


def _finite(value: float) -> float:
    """Refuse NaN and +-inf, for an option whose range cannot refuse +-inf."""
    if not math.isfinite(value):
        raise ValueError(f"{value} is not a finite number.")
    return value


def _file_name_part(value: str) -> str:
    """Refuse a value that would put a path separator into an output file name."""
    if any(sep and sep in value for sep in (os.sep, os.altsep)):
        raise ValueError(f"{value!r} contains a path separator.")
    return value


def _input_file(value: str) -> str:
    """Refuse a path that is not a readable regular file: an input the command reads."""
    if not os.path.exists(value):
        raise ValueError(f"Path {value!r} does not exist.")
    if not os.path.isfile(value):
        raise ValueError(f"Path {value!r} is not a file.")
    if not os.access(value, os.R_OK):
        raise ValueError(f"Path {value!r} is not readable.")
    return value


def _out_dir(value: str) -> Path:
    """Refuse an --out-dir that mkdir could not make or write in.

    Runs as the arguments are parsed, before any input is read, and makes
    nothing, so a command that fails later leaves no directory behind.  The
    nearest existing ancestor must be a directory this process may write in.
    """
    path = Path(value)
    nearest = next(p for p in (path, *path.parents) if os.path.lexists(p))
    if not nearest.is_dir():
        raise ValueError(f"{str(nearest)!r} is not a directory.")
    if not os.access(nearest, os.W_OK | os.X_OK):
        raise ValueError(f"{str(nearest)!r} is not writable.")
    return path


_KIND_NAMES = {str: "TEXT", int: "INTEGER", float: "FLOAT"}


class _Option:
    """One long option of a command: how its text becomes a command argument.

    The text is converted by kind (str, int or float); it must be one of
    choices, if given, and lie in bounds, a range such as 0<x<=1, if given;
    then check, if given, makes the value.  A repeatable option gives the
    tuple of its values in the order given; another, given twice, takes its
    last.  An option not given takes its default, converted and checked as
    the text of it would be, or None.  dest is the command's parameter, by
    default the flag's name with "_" for "-".  doc is its line in --help.
    """

    __slots__ = (
        "flag", "dest", "kind", "choices", "bounds", "check", "metavar", "default",
        "required", "repeat", "doc",
    )

    def __init__(
        self, flag, kind=str, *, dest=None, choices=None, bounds=None, check=None,
        metavar=None, default=None, required=False, repeat=False, doc=None,
    ):
        self.flag, self.kind, self.choices = flag, kind, choices
        self.dest = dest or flag[2:].replace("-", "_")
        self.bounds, self.check = bounds, check
        self.metavar = metavar or (f"[{'|'.join(choices)}]" if choices else _KIND_NAMES[kind])
        self.default, self.required, self.repeat, self.doc = default, required, repeat, doc

    def convert(self, text: str):
        """The value text gives; ValueError says why it gives none."""
        try:
            value = self.kind(text)
        except ValueError:
            kind = _KIND_NAMES[self.kind].lower()
            raise ValueError(
                f"{text!r} is not a valid {kind}{' range' if self.bounds else ''}."
            ) from None
        if self.choices and value not in self.choices:
            raise ValueError(
                f"{text!r} is not one of {', '.join(map(repr, self.choices))}."
            )
        if self.bounds and not config.in_range(value, self.bounds):
            raise ValueError(f"{value} is not in the range {self.bounds}.")
        return self.check(value) if self.check else value

    def help_line(self) -> str:
        notes = [f"default: {self.default}"] if self.default is not None else []
        notes += filter(None, [self.bounds, "required" if self.required else None])
        notes_text = f"[{'; '.join(notes)}]" if notes else ""
        return "  ".join(filter(None, [f"  {self.flag} {self.metavar}", self.doc, notes_text]))


def _parse(options: tuple[_Option, ...], args: list[str]) -> dict | None:
    """The keyword arguments of a command given args, or None if they ask for --help.

    Errors in the form of args come first, then --help, then each option's
    value in the order the options are first given, then each option left
    out, in table order: missing if required, else its default checked;
    then an argument that is no option's.
    """
    by_flag = {option.flag: option for option in options}
    given: dict[_Option, list[str]] = {}
    extra: list[str] = []
    asks_help = False
    rest = iter(args)
    for arg in rest:
        if arg == "--":
            extra += rest
        elif arg[:1] != "-" or arg == "-":
            extra.append(arg)
        else:
            flag, eq, text = arg.partition("=")
            if flag == "--help":
                if eq:
                    raise _UsageError("Option '--help' does not take a value.")
                asks_help = True
                continue
            if flag not in by_flag:
                raise _UsageError(f"No such option '{flag}'.")
            if not eq:
                text = next(rest, None)
                if text is None:
                    raise _UsageError(f"Option '{flag}' requires an argument.")
            given.setdefault(by_flag[flag], []).append(text)
    if asks_help:
        return None
    values = {}
    for option in (*given, *(o for o in options if o not in given)):
        texts = given.get(option)
        if texts is None:
            if option.required:
                raise _UsageError(f"Missing option '{option.flag}'.")
            if option.default is None:
                values[option.dest] = None
                continue
            texts = [str(option.default)]  # so --out-dir's "." is checked, as a Path
        try:
            converted = [option.convert(t) for t in (texts if option.repeat else texts[-1:])]
        except ValueError as exc:
            raise _UsageError(f"Invalid value for '{option.flag}': {exc}") from None
        values[option.dest] = tuple(converted) if option.repeat else converted[0]
    if extra:
        s = "s" if len(extra) > 1 else ""
        raise _UsageError(f"Got unexpected extra argument{s} ({' '.join(extra)})")
    return values


def _help(name: str, options: tuple[_Option, ...]) -> str:
    """The --help of the command name: its docstring and a line per option."""
    doc = _COMMANDS[name].__doc__.strip().splitlines()
    lines = [f"Usage: tarstop {name} [OPTIONS]", "", *(f"  {line.strip()}".rstrip() for line in doc)]
    lines += ["", "Options:", *(option.help_line() for option in options)]
    return "\n".join(lines) + "\n  --help  Show this message and exit.\n"


def _group_help() -> str:
    """tarstop's --help: each command with the first line of its docstring."""
    lines = [
        "Usage: tarstop [OPTIONS] COMMAND [ARGS]...",
        "",
        "  Stopping-criteria evaluation for ranked document review.",
        "",
        "Options:",
        "  --help  Show this message and exit.",
        "",
        "Commands:",
    ]
    for name, func in _COMMANDS.items():
        lines.append(f"  {name:<9}  {func.__doc__.splitlines()[0]}")
    return "\n".join(lines) + "\n"


def evaluate(run_paths, qrels_path, methods, seed, out_dir, config_path, **flags):
    """Evaluate stopping methods over run files, writing report.txt/.jsonl."""
    params = config.resolve_params(config_path, **flags)
    method_list = _parse_methods(methods)
    task = partial(_evaluate_task, methods=method_list, params=params, seed=seed)
    runs = dict(_map_runs(qrels_path, run_paths, task))
    records = metrics.build_report(runs)
    table = _aggregate_table(records, f"All {len(runs)} runs")
    _write(out_dir, {"report.jsonl": records, "report.txt": table})
    sys.stdout.write(table)


def stratify(run_paths, qrels_path, methods, seed, out_dir, config_path, **flags):
    """Rank runs by mean AURC and report top/middle/bottom five groups."""
    params = config.resolve_params(config_path, **flags)
    method_list = _parse_methods(methods)
    if len(run_paths) < 15:
        raise _UsageError("stratification needs at least 15 runs")
    task = partial(_stratify_task, methods=method_list, params=params, seed=seed)
    results = list(_map_runs(qrels_path, run_paths, task))
    records = metrics.build_stratify_report(
        {tag: score for tag, (score, _) in results},
        {tag: runs for tag, (_, runs) in results},
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
    sys.stdout.write(text)


def plot_data(run_paths, qrels_path, topic_id, seed, out_dir, config_path, **flags):
    """Emit gain-curve and effort-vs-AURC CSV/SVG plot data."""
    params = config.resolve_params(config_path, **flags)
    task = partial(_plot_data_task, topic_id=topic_id, params=params, seed=seed)
    # The gain curve is drawn for the topic in the first run file before the
    # next result is taken, so the first file's errors come first.
    with closing(_map_runs(qrels_path, run_paths, task)) as results:
        first = next(results)
        first_tag, (_, _, labels) = first
        if labels is None:
            raise ValidationError(f"topic {topic_id!r} not found in {first_tag!r}")
        # Rebuilt, as unpickled arrays come back writeable and a Topic's are not.
        actual, predicted = _gain_curve(core.Topic(topic_id, labels), params)
        # Per-run effort vs. AURC for the oracle and Poisson methods.
        rows = sorted(
            (tag, score, *[sum(t["effort"] for t in runs[m]) for m in ("or", "pp")])
            for tag, (score, runs, _) in (first, *results)
        )
    gain_csv = "rank,relevant_found,rate_estimate\n" + "".join(
        f"{rank},{a:.6f},{p:.6f}\n" for (rank, a), (_, p) in zip(actual, predicted)
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
            f"gain_{topic_id}.svg": plots.render_svg(
                {"observed": actual, "estimated": predicted}, "rank", "relevant found"
            ),
            "effort_vs_aurc.csv": effort_csv,
            "effort_vs_aurc.svg": plots.render_svg(series, "mean AURC", "effort"),
        },
    )
    print(f"wrote plot data for topic {topic_id} to {out_dir}")


def simulate(
    family, d, k, p, p1, p2, cutoff, n_docs, trials, seed, out_dir, config_path, **flags
):
    """Run coverage and method-reliability experiments on synthetic topics.

    Coverage of the credible bound is reported from 100 trials up.
    """
    from tarstop.simulate import FAMILIES, coverage_experiment

    params = config.resolve_params(config_path, **flags)
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
    sys.stdout.write(text)


def validate(run_paths, qrels_path, out_dir):
    """Check ingested data against the known collection statistics.

    Every run file is labelled from the qrels and must hold the topics of
    the first, whose figures are summarized.
    """
    import json

    # Each file is checked as its result comes, so the first bad one in
    # --runs order decides the error; closing the results stops the pool.
    with closing(_map_runs(qrels_path, run_paths, _validate_task)) as results:
        first_tag, (first_ids, summary) = next(results)
        for path, (run_tag, (topic_ids, _)) in zip(run_paths[1:], results):
            if topic_ids != first_ids:
                raise ValidationError(
                    f"run {run_tag!r} ({path}) differs from run {first_tag!r} "
                    f"in its topics: missing {sorted(first_ids - topic_ids)}, "
                    f"extra {sorted(topic_ids - first_ids)}"
                )
    text = json.dumps(summary, sort_keys=True, indent=2) + "\n"
    _write(out_dir, {"validation.json": text})
    for name, status in summary["checks"]:
        print(f"{status:>4}  {name}")


# Each command's function, named as the command with "_" for "-".
_COMMANDS = {f.__name__.replace("_", "-"): f for f in (evaluate, stratify, plot_data, simulate, validate)}


def _options(name: str) -> tuple[_Option, ...]:
    """The options of the command name, in the order its --help lists them.

    Built only once a command is named: MethodParams' fields load dataclasses.
    """
    from dataclasses import fields

    runs = _Option("--runs", dest="run_paths", check=_input_file, metavar="PATH", required=True, repeat=True)
    qrels = _Option("--qrels", dest="qrels_path", check=_input_file, metavar="PATH", required=True)
    out_dir = _Option("--out-dir", check=_out_dir, metavar="DIRECTORY", default=".")
    run_files = (runs, qrels, _Option("--seed", int, default=0), out_dir)
    methods = _Option("--methods", default=",".join(_METHOD_NAMES))
    # One override per MethodParams field; None leaves it to the config file or its default.
    params = (
        *(_Option(kind=f.type, dest=f.name, **f.metadata) for f in fields(config.MethodParams)),
        _Option("--config", dest="config_path", check=_input_file, metavar="PATH",
                doc="A file of 'key = value' lines; flags win over it."),
    )
    return {
        "evaluate": (*run_files, methods, *params),
        "stratify": (*run_files, methods, *params),
        "plot-data": (
            *run_files,
            _Option("--topic", dest="topic_id", check=_file_name_part, required=True),
            *params,
        ),
        "simulate": (
            _Option("--family", choices=_FAMILY_NAMES, required=True),
            # Finite floats in range, so every rate FAMILIES builds from them is valid.
            _Option("--d", float, bounds="x>0", check=_finite, default=0.5),
            _Option("--k", float, check=_finite, default=-0.005),
            _Option("--p", float, bounds="0<=x<=1", default=0.1),
            _Option("--p1", float, bounds="0<=x<=1", default=0.3),
            _Option("--p2", float, bounds="0<=x<=1", default=0.01),
            _Option("--cutoff", int, bounds="x>=0", default=100),
            _Option("--n", int, dest="n_docs", bounds="x>=1", default=2000),
            _Option("--trials", int, bounds="x>=1", required=True),
            _Option("--seed", int, bounds="x>=0", default=0),
            out_dir,
            *params,
        ),
        "validate": (runs, qrels, out_dir),
    }[name]


def _run(args: list[str]) -> int:
    """Run the command args name, and return its exit code.

    A usage error raises _UsageError, and a package error raises as it is.
    """
    if not args:
        sys.stderr.write(_group_help())
        return 1
    name = args[0]
    if name == "--help":
        sys.stdout.write(_group_help())
        return 0
    if name[:1] == "-" and name.strip("-"):
        flag = name.partition("=")[0]
        if flag == "--help":
            raise _UsageError("Option '--help' does not take a value.")
        raise _UsageError(f"No such option '{flag}'.")
    if name not in _COMMANDS:
        raise _UsageError(f"No such command '{name}'.")
    options = _options(name)
    values = _parse(options, args[1:])
    if values is None:
        sys.stdout.write(_help(name, options))
    else:
        _COMMANDS[name](**values)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else list(argv)
    try:
        return _run(args)
    except _UsageError as exc:
        prog = f"tarstop {args[0]}" if args[0] in _COMMANDS else "tarstop"
        usage = "[OPTIONS]" if args[0] in _COMMANDS else "[OPTIONS] COMMAND [ARGS]..."
        sys.stderr.write(
            f"Usage: {prog} {usage}\nTry '{prog} --help' for help.\n\nError: {exc}\n"
        )
        return 1
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ComputationError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
