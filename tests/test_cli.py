import json
import math
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import tarstop.cli
import tarstop.ratefit
import tarstop.simulate
from conftest import doc_ids, serialize_qrels, serialize_run
from tarstop.cli import main
from tarstop.config import parse_config, resolve_params
from tarstop.core import MethodParams
from tarstop.errors import (
    ComputationError,
    FitError,
    InsufficientDataError,
    NoSignalError,
    ParseError,
    TarstopError,
    ValidationError,
)
from tarstop.methods import RULES
from tarstop.ratefit import RateModel, bin_prefix, fit_exponential
from tarstop.simulate import ExponentialRate, gen_topic
from test_golden import _write_dataset


@pytest.fixture
def dataset(tmp_path):
    """Two synthetic run files over three topics, plus matching qrels."""
    ids = doc_ids(400)
    labels = {
        f"T{i}": gen_topic(400, ExponentialRate(0.5, -0.008), seed=100 + i).relevant
        for i in range(3)
    }
    # Give the topics shared ids but run-specific orderings.
    rankings = {
        "run-a": {topic_id: ids for topic_id in labels},
        "run-b": {topic_id: ids[::-1] for topic_id in labels},
    }
    paths = {}
    for run_tag, ranked in rankings.items():
        p = tmp_path / f"{run_tag}.txt"
        p.write_text("\n".join(serialize_run(run_tag, ranked)) + "\n")
        paths[run_tag] = p
    qrels = tmp_path / "qrels.txt"
    judged = {topic_id: (ids, rel) for topic_id, rel in labels.items()}
    qrels.write_text("\n".join(serialize_qrels(judged)) + "\n")
    return paths, qrels


def _evaluate_args(paths, qrels, out_dir, extra=()):
    args = ["evaluate"]
    for p in paths.values():
        args += ["--runs", str(p)]
    args += ["--qrels", str(qrels), "--seed", "11", "--out-dir", str(out_dir)]
    return args + list(extra)


def test_evaluate_writes_reports(dataset, tmp_path):
    paths, qrels = dataset
    out = tmp_path / "out"
    assert main(_evaluate_args(paths, qrels, out)) == 0
    table = (out / "report.txt").read_text()
    assert "Mean Eff." in table
    records = [
        json.loads(line) for line in (out / "report.jsonl").read_text().splitlines()
    ]
    kinds = {r["record"] for r in records}
    assert kinds == {"topic", "run", "aggregate"}
    aggregates = {r["method"]: r for r in records if r["record"] == "aggregate"}
    assert set(aggregates) == {"pp", "tm", "km", "or"}
    # oracle effort is minimal among prefix methods
    assert aggregates["or"]["mean_effort"] <= aggregates["pp"]["mean_effort"]


def test_evaluate_deterministic_bytes(dataset, tmp_path):
    paths, qrels = dataset
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(_evaluate_args(paths, qrels, out1)) == 0
    assert main(_evaluate_args(paths, qrels, out2)) == 0
    assert (out1 / "report.jsonl").read_bytes() == (out2 / "report.jsonl").read_bytes()


def test_evaluate_table_agrees_with_jsonl(dataset, tmp_path):
    paths, qrels = dataset
    out = tmp_path / "out"
    main(_evaluate_args(paths, qrels, out, extra=["--methods", "or"]))
    record = next(
        json.loads(line)
        for line in (out / "report.jsonl").read_text().splitlines()
        if json.loads(line)["record"] == "aggregate"
    )
    table = (out / "report.txt").read_text()
    assert f"{record['mean_effort']:,.1f}" in table


def test_evaluate_unknown_method_usage_error(dataset, tmp_path):
    paths, qrels = dataset
    assert main(_evaluate_args(paths, qrels, tmp_path, ["--methods", "xx"])) == 1


def test_evaluate_repeated_method_usage_error(dataset, tmp_path, capsys):
    paths, qrels = dataset
    out = tmp_path / "out"
    assert main(_evaluate_args(paths, qrels, out, ["--methods", "or,pp,or"])) == 1
    assert "['or']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["evaluate", "stratify", "plot-data"])
def test_repeated_run_tag_is_validation_error(command, dataset, tmp_path, capsys):
    paths, qrels = dataset
    # run-b's lines under run-a's tag: a second file with a tag already given.
    renamed = tmp_path / "renamed.txt"
    renamed.write_text(paths["run-b"].read_text().replace("run-b", "run-a"))
    for second in (paths["run-a"], renamed):
        runs = [paths["run-a"], paths["run-b"], second] + [paths["run-b"]] * 12
        args = [command, "--qrels", str(qrels), "--out-dir", str(tmp_path / "out")]
        for path in runs:
            args += ["--runs", str(path)]
        if command == "plot-data":
            args += ["--topic", "T0"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err == "error: run tag 'run-a' is given more than once\n"
        assert not (tmp_path / "out").exists()


def test_evaluate_parse_error_exit_code(dataset, tmp_path):
    _, qrels = dataset
    bad = tmp_path / "bad.txt"
    bad.write_text("not a run file\n")
    args = [
        "evaluate",
        "--runs",
        str(bad),
        "--qrels",
        str(qrels),
        "--out-dir",
        str(tmp_path),
    ]
    assert main(args) == 2


def test_evaluate_topic_without_relevant_is_validation_error(tmp_path, capsys):
    run = tmp_path / "run.txt"
    run.write_text("".join(f"T1 NF d{i} {i} 0.5 zero-run\n" for i in (1, 2, 3)))
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("".join(f"T1 0 d{i} 0\n" for i in (1, 2, 3)))
    args = ["evaluate", "--runs", str(run), "--qrels", str(qrels)]
    args += ["--methods", "tm", "--out-dir", str(tmp_path / "out")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "'zero-run'" in err and "'T1'" in err


def test_first_bad_run_file_in_runs_order_decides_error(dataset, tmp_path, capsys):
    _, qrels = dataset
    # The late failure takes its worker longer to find than the early one.
    late = tmp_path / "late.txt"
    late.write_text(
        "".join(f"T0 NF d{i} {i} 0.5 bad\n" for i in range(1, 30_001))
        + "T0 NF d0\n"
    )
    early = tmp_path / "early.txt"
    early.write_text("T0 NF d1 x 0.5 bad\n")
    for first, second, line in [
        (late, early, "line 30001:"),
        (early, late, "line 1:"),
    ]:
        args = ["evaluate", "--runs", str(first), "--runs", str(second)]
        args += ["--qrels", str(qrels), "--out-dir", str(tmp_path / "out")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {line}") and err.count("error:") == 1


def test_parse_error_keeps_line_number_when_pickled():
    copy = pickle.loads(pickle.dumps(ParseError("bad rank", 7)))
    assert (copy.line_no, str(copy)) == (7, "line 7: bad rank")
    assert str(ParseError("empty run file")) == "empty run file"


def test_dead_worker_is_computation_error(dataset, tmp_path, monkeypatch, capsys):
    paths, qrels = dataset

    def dying(handle, qrels):
        os._exit(1)

    # Pool workers are forked, so they inherit the patched parse_run.
    monkeypatch.setattr(tarstop.cli, "parse_run", dying)
    assert main(_evaluate_args(paths, qrels, tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err.startswith("computation error: a worker process died")
    assert str(paths["run-a"]) in err and "Traceback" not in err
    assert not multiprocessing.active_children()


def test_worker_warnings_reach_stderr(dataset, tmp_path, capfd):
    paths, qrels = dataset
    # Each run gets a document the qrels do not judge.
    for tag, path in paths.items():
        path.write_text(path.read_text() + f"T1 NF unjudged-{tag} 401 0.0 {tag}\n")
    src = str(Path(tarstop.cli.__file__).resolve().parents[1])
    command = [sys.executable, "-m", "tarstop.cli"]
    command += _evaluate_args(paths, qrels, tmp_path / "out", ["--methods", "or"])
    subprocess.run(command, env={**os.environ, "PYTHONPATH": src}, check=True)
    warnings = [
        line
        for line in capfd.readouterr().err.splitlines()
        if "not in the qrels" in line
    ]
    assert warnings == [
        f"run {tag} topic T1: 1 of 401 documents not in the qrels, "
        "treated as non-relevant"
        for tag in paths
    ]


def test_simulate_deterministic_and_usage(tmp_path):
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    args = [
        "simulate",
        "--family",
        "exponential",
        "--n",
        "400",
        "--trials",
        "5",
        "--seed",
        "3",
    ]
    assert main(args + ["--out-dir", str(out1)]) == 0
    assert main(args + ["--out-dir", str(out2)]) == 0
    assert (out1 / "simulate.jsonl").read_bytes() == (out2 / "simulate.jsonl").read_bytes()
    assert main(args[:-2] + ["--trials", "0", "--out-dir", str(tmp_path)]) == 1


@pytest.mark.parametrize(
    "family, option, value",
    [
        ("uniform", "--p", "2"),
        ("exponential", "--n", "0"),
        ("step", "--cutoff", "-1"),
        ("exponential", "--d", "0"),
        ("exponential", "--k", "inf"),
        # Non-finite rate options, for a family that uses the option and
        # for one that ignores it.
        ("exponential", "--d", "nan"),
        ("exponential", "--d", "inf"),
        ("uniform", "--d", "inf"),
        ("exponential", "--k", "nan"),
        ("exponential", "--k", "-inf"),
        ("step", "--k", "nan"),
        ("uniform", "--p", "nan"),
        ("exponential", "--p", "nan"),
        ("bimodal", "--p1", "nan"),
        ("uniform", "--p1", "nan"),
        ("bimodal", "--p2", "nan"),
        ("step", "--p2", "nan"),
    ],
)
def test_simulate_invalid_argument_is_usage_error(
    family, option, value, tmp_path, capsys
):
    args = ["simulate", "--family", family, "--trials", "1", option, value]
    assert main(args + ["--out-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("Error:")] == [
        err.splitlines()[-1]
    ]
    assert f"'{option}'" in err.splitlines()[-1]
    assert not (tmp_path / "out").exists()


def _refuse_reading(monkeypatch):
    """Make reading qrels or drawing a synthetic topic fail the test."""

    def refuse(*args, **kwargs):
        raise AssertionError("input was read before the arguments were checked")

    monkeypatch.setattr(tarstop.cli, "parse_qrels", refuse)
    monkeypatch.setattr(tarstop.simulate, "gen_topic", refuse)


_COMMANDS = ["evaluate", "stratify", "plot-data", "simulate", "validate"]


def _command_args(command, dataset):
    """Arguments, but for --out-dir, with which each command would run."""
    paths, qrels = dataset
    if command == "simulate":
        return [command, "--family", "uniform", "--trials", "1"]
    args = [command, "--qrels", str(qrels)]
    for path in [paths["run-a"]] * (15 if command == "stratify" else 1):
        args += ["--runs", str(path)]
    if command == "plot-data":
        args += ["--topic", "T0"]
    return args


@pytest.mark.parametrize("command", _COMMANDS)
def test_out_dir_naming_a_file_is_usage_error(
    command, dataset, tmp_path, capsys, monkeypatch
):
    out = tmp_path / "out.txt"
    out.write_text("kept\n")
    _refuse_reading(monkeypatch)
    assert main(_command_args(command, dataset) + ["--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("Error: Invalid value for '--out-dir'")
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("command", _COMMANDS)
@pytest.mark.parametrize("under", ["sub", "sub/deeper"], ids=["child", "grandchild"])
def test_out_dir_under_a_file_is_usage_error(
    command, under, dataset, tmp_path, capsys, monkeypatch
):
    # Unchecked, mkdir raises NotADirectoryError here, after the pool has run.
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    _refuse_reading(monkeypatch)
    args = _command_args(command, dataset) + ["--out-dir", str(afile / under)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == (
        f"Error: Invalid value for '--out-dir': {str(afile)!r} is not a directory."
    )
    assert afile.read_text() == "kept\n"


def test_plot_data_topic_with_a_path_separator_is_usage_error(
    dataset, tmp_path, capsys, monkeypatch
):
    paths, qrels = dataset
    # A run and qrels whose topic T0 is named a/b.
    run = tmp_path / "slash.txt"
    run.write_text(paths["run-a"].read_text().replace("T0 ", "a/b "))
    slash_qrels = tmp_path / "slash-qrels.txt"
    slash_qrels.write_text(qrels.read_text().replace("T0 ", "a/b "))
    out = tmp_path / "out"
    args = ["plot-data", "--runs", str(run), "--qrels", str(slash_qrels)]
    _refuse_reading(monkeypatch)
    assert main(args + ["--topic", "a/b", "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith("Error: Invalid value for '--topic'")
    assert not out.exists()


def test_simulate_rejects_negative_seed(tmp_path, capsys):
    args = ["simulate", "--family", "step", "--trials", "1", "--seed", "-5"]
    assert main(args + ["--out-dir", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert "--seed" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_evaluate_accepts_negative_seed(dataset, tmp_path):
    paths, qrels = dataset

    def tm_records(seed):
        out = tmp_path / f"seed{seed}"
        args = _evaluate_args(paths, qrels, out)
        args[args.index("--seed") + 1] = str(seed)
        assert main(args) == 0
        lines = (out / "report.jsonl").read_text().splitlines()
        return [line for line in lines if json.loads(line)["method"] == "tm"]

    negative = tm_records(-1)
    assert negative and negative != tm_records(1)


def test_simulate_lists_methods_in_registry_order(tmp_path):
    args = ["simulate", "--family", "exponential", "--n", "400", "--trials", "3"]
    assert main(args + ["--out-dir", str(tmp_path)]) == 0
    records = [
        json.loads(line)
        for line in (tmp_path / "simulate.jsonl").read_text().splitlines()
    ]
    assert [r["method"] for r in records[1:]] == list(RULES) == ["pp", "tm", "km", "or"]


@pytest.mark.parametrize("trials", [5, 100])
def test_simulate_draws_each_trial_topic_once(tmp_path, monkeypatch, trials):
    drawn = []

    def counting(n, rate_family, seed):
        drawn.append(seed)
        return gen_topic(n, rate_family, seed)

    monkeypatch.setattr(tarstop.simulate, "gen_topic", counting)
    args = ["simulate", "--family", "bimodal", "--n", "200", "--seed", "9"]
    assert main(args + ["--trials", str(trials), "--out-dir", str(tmp_path)]) == 0
    assert drawn == [9 + t for t in range(trials)]


def _loaded_after_import(imports, modules):
    """Those of modules that a fresh interpreter has loaded after imports."""
    src = str(Path(tarstop.cli.__file__).resolve().parents[1])
    code = (
        f"import sys, {imports}; print(sorted(m for m in "
        f"{tuple(modules)!r} if m in sys.modules))"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    return result.stdout.strip()


def test_cli_import_loads_neither_scipy_nor_requests():
    # numpy.random is loaded by the target method's first call, not at import.
    modules = ("scipy", "requests", "numpy.random")
    assert _loaded_after_import("tarstop.cli", modules) == "[]"


def test_library_import_loads_no_cli():
    # The records the commands write are built without the command line.
    imports = "tarstop.metrics, tarstop.simulate"
    assert _loaded_after_import(imports, ("click", "tarstop.cli")) == "[]"


def test_plot_data_outputs(dataset, tmp_path):
    paths, qrels = dataset
    out = tmp_path / "plots"
    args = ["plot-data"]
    for p in paths.values():
        args += ["--runs", str(p)]
    args += ["--qrels", str(qrels), "--topic", "T0", "--out-dir", str(out)]
    assert main(args) == 0
    gain = (out / "gain_T0.csv").read_text().splitlines()
    assert gain[0] == "rank,relevant_found,rate_estimate"
    assert gain[1].startswith("0,0.000000,0.000000")
    effort = (out / "effort_vs_aurc.csv").read_text().splitlines()
    assert effort[0] == "run,mean_aurc,oracle_effort,poisson_effort"
    assert len(effort) == 3
    assert (out / "gain_T0.svg").exists()
    assert (out / "effort_vs_aurc.svg").exists()


def _gain_csv_by_loop(topic, params):
    """gain CSV bytes from a running total of the intensity, rank by rank."""
    batch = max(1, math.ceil(params.beta_frac * topic.size))
    model = fit_exponential(bin_prefix(topic, topic.size, batch))
    lines = ["rank,relevant_found,rate_estimate", "0,0.000000,0.000000"]
    cum = 0.0
    for rank, found in enumerate(topic.cumrel[1:].tolist(), start=1):
        cum += model.d * math.exp(model.k * rank)
        lines.append(f"{rank},{float(found):.6f},{cum:.6f}")
    return ("\n".join(lines) + "\n").encode()


def test_gain_csv_matches_the_per_rank_loop(dataset, tmp_path):
    paths, qrels = dataset
    args = ["plot-data", "--runs", str(paths["run-a"]), "--qrels", str(qrels)]
    assert main(args + ["--topic", "T0", "--out-dir", str(tmp_path)]) == 0
    # T0 of run-a, in its own order: the fixture's first generated topic.
    topic = gen_topic(400, ExponentialRate(0.5, -0.008), seed=100)
    expected = _gain_csv_by_loop(topic, MethodParams())
    assert (tmp_path / "gain_T0.csv").read_bytes() == expected


def test_gain_curve_overflow_is_a_computation_error(monkeypatch):
    topic = gen_topic(400, ExponentialRate(0.5, -0.008), seed=100)
    monkeypatch.setattr(
        tarstop.ratefit, "fit_exponential", lambda b: RateModel(1e-3, 2.0)
    )
    with pytest.raises(ComputationError, match="exp overflow evaluating rate at x=351"):
        tarstop.cli._gain_curve(topic, MethodParams())


def test_plot_data_missing_topic(dataset, tmp_path):
    paths, qrels = dataset
    args = ["plot-data", "--runs", str(next(iter(paths.values())))]
    args += ["--qrels", str(qrels), "--topic", "missing", "--out-dir", str(tmp_path)]
    assert main(args) == 2


def test_validate_command(dataset, tmp_path, capsys):
    paths, qrels = dataset
    args = ["validate", "--runs", str(next(iter(paths.values())))]
    args += ["--qrels", str(qrels), "--out-dir", str(tmp_path)]
    assert main(args) == 0
    assert (tmp_path / "validation.json").exists()
    assert "warn" in capsys.readouterr().out


def test_validate_checks_every_run_file(tmp_path, capsys):
    paths, qrels = _write_dataset(tmp_path)
    # A second run file that holds one of the four topics.
    partial = tmp_path / "partial.txt"
    with paths[1].open() as lines:
        partial.write_text("".join(line for line in lines if line.startswith("T2 ")))
    args = ["validate", "--runs", str(paths[0]), "--runs", str(partial)]
    args += ["--qrels", str(qrels), "--out-dir", str(tmp_path / "out")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: run 'run01'")
    assert "missing ['T0', 'T1', 'T3'], extra []" in err
    assert not (tmp_path / "out").exists()
    # A second run file with a topic the qrels lack fails its labelling.
    partial.write_text("T9 NF d0000001 1 0.5 run-c\n")
    assert main(args) == 2
    assert "topic 'T9' missing from qrels" in capsys.readouterr().err


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("epsilon = 50\ndelta = 0.6  # comment\n")
    params = resolve_params(cfg)
    assert (params.epsilon, params.delta) == (50, 0.6)
    params = resolve_params(cfg, epsilon=25)
    assert params.epsilon == 25
    assert parse_config(cfg) == {"epsilon": 50, "delta": 0.6}
    assert resolve_params(None) == MethodParams()


def test_config_parses_each_field_as_its_type(tmp_path):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("gamma = 30\ntarget_count = 5\nepsilon = 50\ndelta = 1\n")
    values = parse_config(cfg)
    assert {k: type(v) for k, v in values.items()} == {
        "gamma": int,
        "target_count": int,
        "epsilon": int,
        "delta": float,
    }
    cfg.write_text("gamma = 2.5\n")
    with pytest.raises(ValidationError, match="params.cfg:1: invalid literal for int"):
        parse_config(cfg)


def test_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "params.cfg"
    cfg.write_text("bogus = 1\n")
    with pytest.raises(ValidationError):
        parse_config(cfg)


def test_every_package_error_maps_to_an_exit_code():
    # main maps ParseError and ValidationError to exit 2, ComputationError to 3.
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    found = set(subclasses(TarstopError))
    assert {FitError, InsufficientDataError, NoSignalError} <= found
    for cls in found:
        assert issubclass(cls, (ParseError, ValidationError, ComputationError)), cls


@pytest.mark.parametrize(
    "n, flags", [(1, []), (200, ["--alpha", "1", "--beta", "1"])]
)
def test_simulate_counts_a_one_bin_fit_as_a_miss(tmp_path, n, flags):
    # Binned at the batch width, each topic is one interval, which no rate
    # fit can use: only topics without relevant documents are covered.
    args = ["simulate", "--family", "exponential", "--trials", "100"]
    args += ["--n", str(n), *flags, "--out-dir", str(tmp_path)]
    assert main(args) == 0
    record = json.loads((tmp_path / "simulate.jsonl").read_text().splitlines()[0])
    rate = ExponentialRate(0.5, -0.005)
    empty = sum(gen_topic(n, rate, seed=t).total_relevant == 0 for t in range(100))
    assert record["coverage"] == empty / 100


def test_plot_data_one_bin_gain_fit_is_a_computation_error(dataset, tmp_path, capsys):
    paths, qrels = dataset
    args = ["plot-data", "--runs", str(paths["run-a"]), "--qrels", str(qrels)]
    args += ["--topic", "T0", "--alpha", "1", "--beta", "1", "--out-dir", str(tmp_path)]
    assert main(args) == 3
    assert "need at least 2 binned points" in capsys.readouterr().err
