import json
import math
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import tarstop.cli
import tarstop.ingest
import tarstop.metrics
import tarstop.ratefit
import tarstop.simulate
from conftest import doc_ids, serialize_qrels, serialize_run
from tarstop.cli import main
from tarstop.config import MethodParams, parse_config, resolve_params
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
from tarstop.simulate import FAMILIES, ExponentialRate, gen_topic
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


def _python(command, env=(), drop=(), start=subprocess.run, **kwargs):
    """A fresh interpreter, with this package first on its path, started by start.

    command is tarstop's argv (a list) or the code of -c (a str); env adds
    environment variables and drop removes them; kwargs go to start.
    """
    src = str(Path(tarstop.cli.__file__).resolve().parents[1])
    args = ["-c", command] if isinstance(command, str) else ["-m", "tarstop.cli", *command]
    environ = {k: v for k, v in os.environ.items() if k not in drop}
    return start([sys.executable, *args], env={**environ, "PYTHONPATH": src, **dict(env)}, **kwargs)


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


@pytest.mark.parametrize("command", ["evaluate", "stratify", "plot-data", "validate"])
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


@pytest.mark.parametrize("command", ["stratify", "plot-data"])
def test_aurc_commands_refuse_a_topic_without_relevant(command, tmp_path, capsys):
    # The relevance check comes before the run's mean AURC, whose recall
    # would be undefined.
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("".join(f"T1 0 d{i} 0\n" for i in (1, 2, 3)))
    args = [command, "--qrels", str(qrels), "--out-dir", str(tmp_path / "out")]
    for j in range(15):
        run = tmp_path / f"run{j}.txt"
        run.write_text("".join(f"T1 NF d{i} {i} 0.5 zero-run{j}\n" for i in (1, 2, 3)))
        args += ["--runs", str(run)]
    if command == "plot-data":
        args += ["--topic", "T1"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: run 'zero-run0' topic 'T1' has no relevant documents in the "
        "qrels; recall is undefined\n"
    )
    assert not (tmp_path / "out").exists()


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
    monkeypatch.setattr(tarstop.ingest, "parse_run", dying)
    assert main(_evaluate_args(paths, qrels, tmp_path / "out")) == 3
    err = capsys.readouterr().err
    assert err.startswith("computation error: a worker process died")
    assert str(paths["run-a"]) in err and "Traceback" not in err
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("command", ["evaluate", "validate"])
def test_qrels_are_indexed_once_in_the_parent(command, dataset, tmp_path, monkeypatch):
    # Each process that builds a qrels index writes its pid; forked workers
    # inherit the patch, and must label from the index they are handed.
    paths, qrels = dataset
    pids = tmp_path / "pids"
    index = tarstop.ingest._index

    def logged(columns):
        with pids.open("a") as out:
            out.write(f"{os.getpid()}\n")
        return index(columns)

    monkeypatch.setattr(tarstop.ingest, "_index", logged)
    args = _evaluate_args(paths, qrels, tmp_path / "out")
    assert main([command, *args[1 : args.index("--seed")], *args[-2:]]) == 0
    assert pids.read_text() == f"{os.getpid()}\n"


def test_evaluate_computes_no_aurc(dataset, tmp_path, monkeypatch):
    # evaluate writes no AURC, so its workers compute none.
    def refuse(run):
        raise AssertionError("mean AURC computed")

    monkeypatch.setattr(tarstop.metrics, "mean_aurc", refuse)
    paths, qrels = dataset
    assert main(_evaluate_args(paths, qrels, tmp_path / "out")) == 0


def test_worker_warnings_reach_stderr(dataset, tmp_path, capfd):
    paths, qrels = dataset
    # Each run gets a document the qrels do not judge.
    for tag, path in paths.items():
        path.write_text(path.read_text() + f"T1 NF unjudged-{tag} 401 0.0 {tag}\n")
    inputs = [a for path in paths.values() for a in ("--runs", str(path))]
    inputs += ["--qrels", str(qrels), "--out-dir", str(tmp_path / "out")]
    for command in (["evaluate", "--methods", "or"], ["validate"]):
        _python([*command, *inputs], check=True)
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


@pytest.mark.parametrize("command", ["evaluate", "stratify", "plot-data", "validate"])
def test_a_failing_files_warnings_print_before_its_error(command, tmp_path):
    # T0's ranks are repaired, with a warning, before T1's repeated id
    # fails the file.
    run = tmp_path / "run.txt"
    run.write_text(
        "T0 NF d1 1 0.5 r\nT0 NF d2 3 0.4 r\nT1 NF d1 1 0.5 r\nT1 NF d1 2 0.4 r\n"
    )
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("T0 0 d1 1\nT0 0 d2 0\nT1 0 d1 1\n")
    args = [command, "--qrels", str(qrels), "--out-dir", str(tmp_path / "out")]
    args += ["--runs", str(run)] * (15 if command == "stratify" else 1)
    if command == "plot-data":
        args += ["--topic", "T0"]
    result = _python(args, capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (
        2,
        "run r topic T0: non-contiguous ranks repaired by re-ranking\n"
        "error: topic 'T1' has duplicate doc_id 'd1'\n",
    )


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

    monkeypatch.setattr(tarstop.ingest, "parse_qrels", refuse)
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


_OUTPUTS = {
    "evaluate": ["report.jsonl", "report.txt"],
    "plot-data": ["effort_vs_aurc.csv", "effort_vs_aurc.svg", "gain_T0.csv", "gain_T0.svg"],
    "simulate": ["simulate.jsonl", "simulate.txt"],
    "validate": ["validation.json"],
}


# stratify, which needs 15 distinct runs, takes the same --out-dir option as evaluate.
@pytest.mark.parametrize("command", _OUTPUTS)
def test_outputs_default_to_the_working_directory(command, dataset, tmp_path, monkeypatch):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(_command_args(command, dataset)) == 0
    assert sorted(p.name for p in cwd.iterdir()) == _OUTPUTS[command]


def test_default_out_dir_is_checked(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(os, "access", lambda path, mode: False)
    _refuse_reading(monkeypatch)
    assert main(["simulate", "--family", "uniform", "--trials", "1"]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1] == "Error: Invalid value for '--out-dir': '.' is not writable."
    assert list(tmp_path.iterdir()) == []


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


# The command-line contract: (argv, exit code, start of the last line of
# stderr, text stdout must hold).  {run}, {qrels}, {missing} and {out} stand
# for a run file, its qrels, a path that does not exist and an output
# directory.  Recorded when the parser was click's, and kept by the option
# table that replaced it.
_STEP = ["simulate", "--family", "step", "--n", "50"]
_CONTRACT = [
    (["frobnicate"], 1, "Error: No such command 'frobnicate'.", ""),
    (["evaluate", "--runs", "{run}", "--qrels", "{qrels}", "--bogus", "1"], 1,
     "Error: No such option '--bogus'.", ""),
    (["simulate", "--fam", "step", "--trials", "1"], 1, "Error: No such option '--fam'.", ""),
    ([*_STEP, "--trials"], 1, "Error: Option '--trials' requires an argument.", ""),
    ([*_STEP, "--trials", "1", "extra"], 1, "Error: Got unexpected extra argument (extra)", ""),
    (_STEP, 1, "Error: Missing option '--trials'.", ""),
    (["evaluate", "--qrels", "{qrels}"], 1, "Error: Missing option '--runs'.", ""),
    (["simulate", "--family", "stepx", "--trials", "1"], 1,
     "Error: Invalid value for '--family': 'stepx' is not one of", ""),
    ([*_STEP, "--trials", "1", "--seed", "x"], 1,
     "Error: Invalid value for '--seed': 'x' is not a valid integer", ""),
    (["evaluate", "--runs", "{run}", "--qrels", "{qrels}", "--seed", "x"], 1,
     "Error: Invalid value for '--seed': 'x' is not a valid integer.", ""),
    ([*_STEP, "--trials", "1", "--d", "x"], 1,
     "Error: Invalid value for '--d': 'x' is not a valid float", ""),
    ([*_STEP, "--trials", "0"], 1,
     "Error: Invalid value for '--trials': 0 is not in the range x>=1.", ""),
    ([*_STEP, "--trials", "1", "--p", "2"], 1,
     "Error: Invalid value for '--p': 2.0 is not in the range 0<=x<=1.", ""),
    ([*_STEP, "--trials", "1", "--p", "nan"], 1,
     "Error: Invalid value for '--p': nan is not in the range 0<=x<=1.", ""),
    # A parameter flag's range is MethodParams' range for its field.
    (["evaluate", "--runs", "{run}", "--qrels", "{qrels}", "--confidence", "1.5"], 1,
     "Error: Invalid value for '--confidence': 1.5 is not in the range 0<x<1.", ""),
    ([*_STEP, "--trials", "1", "--gamma", "0"], 1,
     "Error: Invalid value for '--gamma': 0 is not in the range x>=1.", ""),
    ([*_STEP, "--trials", "1", "--recall", "nan"], 1,
     "Error: Invalid value for '--recall': nan is not in the range 0<x<=1.", ""),
    (["simulate", "--family=step", "--n=50", "--trials=1", "--out-dir", "{out}"], 0, "",
     "family=step n=50 trials=1 seed=0"),
    ([*_STEP, "--trials", "1", "--seed", "1", "--seed", "2", "--out-dir", "{out}"], 0, "",
     "seed=2"),
    ([*_STEP, "--trials", "1", "--k", "-1e-12", "--out-dir", "{out}"], 0, "", "trials=1"),
    (["evaluate", "--runs", "{run}", "--qrels", "{qrels}", "--methods", "or", "--seed", "-5",
      "--out-dir", "{out}"], 0, "", "All 1 runs"),
    ([*_STEP, "--trials", "1", "--k", "-inf"], 1,
     "Error: Invalid value for '--k': -inf is not a finite number.", ""),
    (["evaluate", "--runs", "{run}", "--qrels", "{qrels}", "--methods", "xx"], 1,
     "Error: Invalid value for '--methods': unknown methods ['xx']; choose from pp,tm,km,or",
     ""),
    # --methods is refused as the arguments are parsed, before the config
    # file, which names an unknown parameter, is read.
    (["evaluate", "--runs", "{run}", "--qrels", "{qrels}", "--methods", "or,or", "--config",
      "{bad_config}"], 1,
     "Error: Invalid value for '--methods': methods ['or'] are given more than once", ""),
    (["evaluate", "--runs", "{missing}", "--help"], 0, "", "--runs"),
    ([], 1, "  validate", ""),
]


@pytest.mark.parametrize(
    "argv, code, last_err, out", _CONTRACT, ids=[" ".join(row[0]) or "-" for row in _CONTRACT]
)
def test_command_line_contract(argv, code, last_err, out, dataset, tmp_path, capsys):
    paths, qrels = dataset
    bad_config = tmp_path / "bad.cfg"
    bad_config.write_text("bogus = 1\n")
    slots = {"run": paths["run-a"], "qrels": qrels, "missing": tmp_path / "missing",
             "out": tmp_path / "out", "bad_config": bad_config}
    assert main([arg.format(**slots) for arg in argv]) == code
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert (captured.err.splitlines() or [""])[-1].startswith(last_err)
    assert out in captured.out


# Each command's long options, as click listed them.
_LONG_OPTIONS = {
    "evaluate": [
        "--runs", "--qrels", "--seed", "--out-dir", "--methods", "--recall", "--confidence",
        "--alpha", "--beta", "--gamma", "--delta", "--epsilon", "--target-count", "--config",
        "--help",
    ],
    "stratify": [
        "--runs", "--qrels", "--seed", "--out-dir", "--methods", "--recall", "--confidence",
        "--alpha", "--beta", "--gamma", "--delta", "--epsilon", "--target-count", "--config",
        "--help",
    ],
    "plot-data": [
        "--runs", "--qrels", "--seed", "--out-dir", "--topic", "--recall", "--confidence",
        "--alpha", "--beta", "--gamma", "--delta", "--epsilon", "--target-count", "--config",
        "--help",
    ],
    "simulate": [
        "--family", "--d", "--k", "--p", "--p1", "--p2", "--cutoff", "--n", "--trials",
        "--seed", "--out-dir", "--recall", "--confidence", "--alpha", "--beta", "--gamma",
        "--delta", "--epsilon", "--target-count", "--config", "--help",
    ],
    "validate": ["--runs", "--qrels", "--out-dir", "--help"],
}

# The default each command's --help gives an option, where it has one.
_DEFAULTS = {
    "--seed": "0", "--out-dir": ".", "--methods": "pp,tm,km,or", "--d": "0.5",
    "--k": "-0.005", "--p": "0.1", "--p1": "0.3", "--p2": "0.01", "--cutoff": "100",
    "--n": "2000",
}


@pytest.mark.parametrize("command", _COMMANDS)
def test_help_lists_every_option_with_its_default(command, capsys):
    assert main([command, "--help"]) == 0
    lines = capsys.readouterr().out.splitlines()
    listed = [line.split()[0] for line in lines if line.startswith("  --")]
    assert listed == _LONG_OPTIONS[command]
    for line in lines:
        flag = line.split()[0] if line.startswith("  --") else None
        if flag in _DEFAULTS:
            assert f"[default: {_DEFAULTS[flag]}" in line, line


_INPUT_OPTIONS = {
    "evaluate": ["--runs", "--qrels", "--config"],
    "stratify": ["--runs", "--qrels", "--config"],
    "plot-data": ["--runs", "--qrels", "--config"],
    "simulate": ["--config"],
    "validate": ["--runs", "--qrels"],
}


@pytest.mark.parametrize(
    "command, option", [(c, o) for c, options in _INPUT_OPTIONS.items() for o in options]
)
def test_a_directory_given_as_an_input_is_usage_error(
    command, option, dataset, tmp_path, capsys, monkeypatch
):
    # Read, a directory would raise IsADirectoryError; it is refused as the
    # arguments are parsed.  A second --qrels or --config wins over the
    # first, and an added --runs is one file more.
    directory = tmp_path / "inputs"
    directory.mkdir()
    out = tmp_path / "out"
    _refuse_reading(monkeypatch)
    args = _command_args(command, dataset) + [option, str(directory), "--out-dir", str(out)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("Error:")] == [
        f"Error: Invalid value for '{option}': Path {str(directory)!r} is not a file."
    ]
    assert not out.exists() and list(directory.iterdir()) == []


def test_simulate_ends_where_the_credible_sum_stalls(tmp_path):
    # pp's first fit gives a mean near 2,495, where the float sum of the pmf
    # stalls at 1 - 1.4e-12, below the confidence; the scan's cap, from the
    # recall, is about 5e12.  In a subprocess, so that a hang fails the test.
    args = ["simulate", "--family", "exponential", "--k", "1e-12", "--n", "5000"]
    args += ["--trials", "1", "--seed", "73", "--recall", "1e-9"]
    args += ["--confidence", "0.999999999999", "--gamma", "1", "--out-dir", str(tmp_path)]
    result = _python(args, capture_output=True, text=True, timeout=60)
    assert (result.returncode, result.stderr) == (0, "")
    assert "pp reliability: 1.0000 over 1 topics" in result.stdout


def test_evaluate_ends_where_the_credible_sum_stalls(tmp_path):
    # One topic of 2,000 documents, every fifth relevant.  Each of pp's bound
    # calls has a mean near 400, where the float sum of the pmf stalls below
    # the confidence, and a cap, from the recall, of 2e12.  In a subprocess,
    # so that a hang fails the test; its own session, so that a hung pool
    # worker is killed with it.
    ids = doc_ids(2000)
    run, qrels = tmp_path / "run.txt", tmp_path / "qrels.txt"
    run.write_text("\n".join(serialize_run("run-a", {"T1": ids})) + "\n")
    labels = [rank % 5 == 0 for rank in range(1, len(ids) + 1)]
    qrels.write_text("\n".join(serialize_qrels({"T1": (ids, labels)})) + "\n")
    args = ["evaluate", "--runs", str(run), "--qrels", str(qrels), "--methods", "pp"]
    args += ["--recall", "1e-9", "--confidence", "0.99999999999999", "--gamma", "1"]
    args += ["--out-dir", str(tmp_path / "out")]
    proc = _python(
        args, start=subprocess.Popen, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        _, stderr = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    assert (proc.returncode, stderr) == (0, "")
    report = (tmp_path / "out" / "report.jsonl").read_text().splitlines()
    topic = json.loads(report[0])
    assert topic["record"] == "topic" and topic["method"] == "pp"
    assert (topic["predicted"], topic["stop_rank"]) == (False, 2000)


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
    code = (
        f"import sys, {imports}; print(sorted(m for m in "
        f"{tuple(modules)!r} if m in sys.modules))"
    )
    return _python(code, capture_output=True, text=True, check=True).stdout.strip()


def test_cli_import_loads_neither_scipy_nor_requests():
    # numpy.random is loaded by a command that selects the target method.
    modules = ("scipy", "requests", "numpy.random")
    assert _loaded_after_import("tarstop.cli", modules) == "[]"


_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.skipif(
    not os.path.exists("/proc/self/status"), reason="needs /proc/self/status"
)
@pytest.mark.parametrize("blas_threads", [None, "2"])
def test_cli_import_starts_no_blas_thread_unless_asked(blas_threads):
    # The package sets one BLAS thread before numpy is imported, unless the
    # environment names a count.  The command line alone loads no numpy, so
    # the test imports it after the CLI, as a command would.
    if blas_threads and (os.cpu_count() or 1) < 2:
        pytest.skip("OpenBLAS starts no second thread on one CPU")
    env = {"OPENBLAS_NUM_THREADS": blas_threads} if blas_threads else {}
    code = (
        "import tarstop.cli\n"
        "import numpy\n"
        "print(next(line.split()[1] for line in open('/proc/self/status')"
        " if line.startswith('Threads:')))"
    )
    result = _python(code, env, _BLAS_THREADS, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == (blas_threads or "1")


@pytest.mark.skipif(
    not hasattr(os, "register_at_fork")
    or "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork",
)
def test_the_pool_forks_from_a_single_threaded_process(dataset, tmp_path):
    # In a fresh interpreter, since at-fork hooks cannot be removed: each
    # fork records the threads then running, Python's and, where /proc
    # shows them, the process's (a BLAS thread is no Python thread).
    paths, qrels = dataset
    code = f"""
import os, threading
import tarstop.cli

def threads():
    if not os.path.exists("/proc/self/status"):
        return 1
    with open("/proc/self/status") as status:
        return int(next(line.split()[1] for line in status if line.startswith("Threads:")))

counts = []
os.register_at_fork(before=lambda: counts.append((threading.active_count(), threads())))
tarstop.cli._cpu_count = lambda: 2
args = {_evaluate_args(paths, qrels, tmp_path / "out")!r}
assert tarstop.cli.main(args) == 0
print(counts)
"""
    result = _python(code, drop=_BLAS_THREADS, capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == "[(1, 1), (1, 1)]"


def test_library_import_loads_no_cli():
    # The records the commands write are built without the command line.
    imports = "tarstop.metrics, tarstop.simulate"
    assert _loaded_after_import(imports, ("click", "tarstop.cli")) == "[]"


# json is loaded to write outputs, and logging to read run files.
_ENGINE_ROOTS = ("numpy", "tarstop", "json", "logging", "click")


def _modules_run(argvs, roots):
    """main's exit codes on argvs in a fresh interpreter, the modules under
    roots run there, the tarstop modules in its sys.modules, and its stderr."""
    code = f"""
import importlib.util, sys
from tarstop.cli import main
codes = [main(argv) for argv in {argvs!r}]
run = [n for n, m in sys.modules.items() if type(m) is not importlib.util._LazyModule]
loaded = sorted(n for n in run if n.split(".")[0] in {roots!r})
import json
print(json.dumps([codes, loaded]))
print(json.dumps(sorted(n for n in sys.modules if n.startswith("tarstop."))))
"""
    result = _python(code, capture_output=True, text=True, check=True)
    run, registered = map(json.loads, result.stdout.splitlines()[-2:])
    return (*run, registered, result.stderr)


def test_group_help_runs_only_the_command_line():
    # The group's --help, which a cold start times, runs no tarstop module
    # but the package, the command line and its errors, and no dataclasses
    # or inspect, which the parameters' module loads.  Every other tarstop
    # module is in sys.modules, not yet run, so that code which wraps the
    # loaded modules after importing the CLI, as perfbench's tracer does,
    # finds them.
    roots = (*_ENGINE_ROOTS, "dataclasses", "inspect")
    codes, run, registered, _ = _modules_run([["--help"]], roots)
    assert (codes, run) == ([0], ["tarstop", "tarstop.cli", "tarstop.errors"])
    package = Path(tarstop.cli.__file__).parent
    assert registered == sorted(
        f"tarstop.{path.stem}" for path in package.glob("*.py") if path.stem != "__init__"
    )


def test_help_and_a_usage_error_load_no_engine(tmp_path):
    # Every command's --help, and an --out-dir or --methods refused while
    # the arguments are parsed, run no numpy, json, logging or click, and no
    # tarstop module but the group's and the parameters' module, whose
    # fields the option tables read.
    afile = tmp_path / "afile"
    afile.write_text("kept\n")
    usage = ["evaluate", "--runs", str(afile), "--qrels", str(afile)]
    argvs = [*([command, "--help"] for command in _COMMANDS), usage + ["--out-dir", str(afile)]]
    argvs.append(usage + ["--methods", "xx"])
    codes, run, _, stderr = _modules_run(argvs, _ENGINE_ROOTS)
    assert codes == [0, 0, 0, 0, 0, 1, 1]
    assert run == ["tarstop", "tarstop.cli", "tarstop.config", "tarstop.errors"]
    errors = [line.split(":")[1] for line in stderr.splitlines() if line.startswith("Error:")]
    assert errors == [" Invalid value for '--out-dir'", " Invalid value for '--methods'"]


def test_simulate_loads_no_logging(tmp_path):
    # logging is loaded to read run files, which simulate does not.
    args = ["simulate", "--family", "step", "--n", "50", "--trials", "1"]
    code = f"""
import sys
from tarstop.cli import main
code = main({args + ["--out-dir", str(tmp_path)]!r})
print(code, sorted(n for n in sys.modules if n.split(".")[0] == "logging"))
"""
    result = _python(code, capture_output=True, text=True, check=True)
    assert result.stdout.splitlines()[-1] == "0 []"


def test_cli_names_the_registries_methods_and_families():
    # The option table declares --methods and --family before any engine is
    # imported.
    assert tarstop.cli._METHOD_NAMES == tuple(RULES)
    assert tarstop.cli._FAMILY_NAMES == tuple(FAMILIES)


def test_every_exported_name_resolves():
    import tarstop

    for name in tarstop.__all__:
        value = getattr(tarstop, name)
        assert value is getattr(sys.modules[value.__module__], name)
        assert name in dir(tarstop)
    with pytest.raises(AttributeError, match="no attribute 'ingest_all'"):
        tarstop.ingest_all


@pytest.mark.skipif(
    not hasattr(os, "register_at_fork")
    or "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs fork",
)
@pytest.mark.parametrize(
    "command, with_tm",
    [
        (["evaluate", "--methods", "pp,tm,km,or"], True),
        (["stratify", "--methods", "or"], False),
        (["plot-data", "--topic", "T0"], False),
    ],
    ids=["evaluate", "stratify", "plot-data"],
)
def test_pool_workers_import_nothing(command, with_tm, tmp_path):
    # The CLI runs every tarstop module before the pool forks.  In a fresh
    # interpreter, every task writes the modules by which the run ones in
    # sys.modules differ from those at the fork: none, but for numpy.random,
    # which a worker imports on its first tm call.
    paths, qrels = _write_dataset(tmp_path)
    args = [*command, "--qrels", str(qrels), "--out-dir", str(tmp_path / "out")]
    args += [a for path in paths for a in ("--runs", str(path))]
    log = tmp_path / "imported"
    code = f"""
import importlib.util, json, os, sys
import tarstop.cli

def run_modules():
    return {{n for n, m in sys.modules.items() if type(m) is not importlib.util._LazyModule}}

at_fork = set()
os.register_at_fork(after_in_child=lambda: at_fork.update(run_modules()))
run_worker = tarstop.cli._run_worker

def checked(path, task):
    result = run_worker(path, task)
    imported = sorted(run_modules() ^ at_fork)
    with open({str(log)!r}, "a") as out:
        out.write(json.dumps(imported) + "\\n")
    return result

tarstop.cli._run_worker = checked
tarstop.cli._cpu_count = lambda: 2
assert tarstop.cli.main({args!r}) == 0
before = set(sys.modules)
import numpy.random
print(json.dumps(sorted(set(sys.modules) - before)))
"""
    result = _python(code, capture_output=True, text=True, check=True)
    numpy_random = json.loads(result.stdout.splitlines()[-1])
    assert "numpy.random" in numpy_random
    expected = numpy_random if with_tm else []
    assert [json.loads(line) for line in log.read_text().splitlines()] == [expected] * len(paths)


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


def test_validate_stops_at_the_first_bad_run_file(dataset, tmp_path, capsys):
    paths, qrels = dataset
    # A second file short of topics, and a third that does not parse: the
    # second decides the error, and no worker is left once it is raised.
    partial = tmp_path / "partial.txt"
    with paths["run-b"].open() as lines:
        partial.write_text("".join(line for line in lines if line.startswith("T0 ")))
    bad = tmp_path / "bad.txt"
    bad.write_text("not a run file\n")
    args = ["validate", "--qrels", str(qrels), "--out-dir", str(tmp_path / "out")]
    for path in (paths["run-a"], partial, bad):
        args += ["--runs", str(path)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err == (
        f"error: run 'run-b' ({partial}) differs from run 'run-a' in its topics: "
        "missing ['T1', 'T2'], extra []\n"
    )
    assert not (tmp_path / "out").exists()
    # The pool is shut down before the error leaves the command, not when
    # the error, and with it the command's frame, is let go.
    with pytest.raises(ValidationError, match="differs from run 'run-a'") as raised:
        tarstop.cli._run(args)
    assert raised.value.__traceback__ and not multiprocessing.active_children()


# A locale whose encoding is ASCII, which open() would decode with.
_C_LOCALE = {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}


@pytest.mark.parametrize("command", ["evaluate", "validate"])
@pytest.mark.parametrize("bad", [None, "run", "qrels", "surrogate"])
def test_inputs_are_utf8_in_any_locale(tmp_path, command, bad):
    # A non-ASCII id is read as UTF-8; a byte that is not UTF-8 is a parse
    # error naming its line and the character it starts, counted after the
    # 2-byte é in the surrogate's case.
    run_lines = [b"T1 NF \xc3\xa9 1 0.9 tag", b"T1 NF a 2 0.5 tag"]
    qrels_lines = [b"T1 0 \xc3\xa9 1", b"T1 0 a 0"]
    message = "error: line 3: invalid UTF-8: byte 0xff at character 8\n"
    if bad == "run":
        run_lines.append(b"T1 NF b\xff 3 0.1 tag")
    elif bad == "qrels":
        qrels_lines.append(b"T1 0 bb\xff 1")
    elif bad == "surrogate":  # U+D800 encoded, which UTF-8 does not allow
        run_lines.append(b"T1 NF \xc3\xa9\xed\xa0\x80 3 0.1 tag")
        message = "error: line 3: invalid UTF-8: byte 0xed at character 8\n"
    run, qrels = tmp_path / "run.txt", tmp_path / "qrels.txt"
    run.write_bytes(b"\n".join(run_lines) + b"\n")
    qrels.write_bytes(b"\n".join(qrels_lines) + b"\n")
    args = [command, "--runs", str(run), "--qrels", str(qrels)]
    args += ["--out-dir", str(tmp_path / "out")]
    if command == "evaluate":
        args += ["--methods", "or"]
    result = _python(args, _C_LOCALE, capture_output=True, text=True)
    if bad is None:
        assert (result.returncode, result.stderr) == (0, "")
    else:
        assert result.returncode == 2
        assert result.stderr == message


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


def test_each_parameter_is_one_row(capsys, tmp_path):
    # Every MethodParams field gives its flag, range and doc to the --help of
    # each command that takes parameters, and its name and type to the config.
    params = fields(MethodParams)
    for command in ("evaluate", "stratify", "plot-data", "simulate"):
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out.splitlines()
        lines = {line.split()[0]: line for line in out if line.startswith("  --")}
        for f in params:
            line = lines[f.metadata["flag"]]
            assert f.metadata["doc"] in line and f"[{f.metadata['bounds']}]" in line, line
    cfg = tmp_path / "params.cfg"
    cfg.write_text("".join(f"{f.name} = {f.default}\n" for f in params))
    values = parse_config(cfg)
    assert {k: type(v) for k, v in values.items()} == {f.name: f.type for f in params}
    assert MethodParams(**values) == MethodParams()


@pytest.mark.parametrize("source", ["flags", "config"])
def test_beta_above_alpha_is_a_validation_error_naming_both(source, dataset, tmp_path, capsys):
    paths, qrels = dataset
    if source == "flags":
        extra = ["--alpha", "0.1", "--beta", "0.2"]
    else:
        cfg = tmp_path / "params.cfg"
        cfg.write_text("alpha_frac = 0.1\nbeta_frac = 0.2\n")
        extra = ["--config", str(cfg)]
    assert main(_evaluate_args(paths, qrels, tmp_path / "out", extra)) == 2
    assert capsys.readouterr().err == (
        "error: beta_frac (--beta) = 0.2 exceeds alpha_frac (--alpha) = 0.1\n"
    )
    assert not (tmp_path / "out").exists()


def test_config_value_outside_its_range_is_a_validation_error(dataset, tmp_path, capsys):
    paths, qrels = dataset
    cfg = tmp_path / "params.cfg"
    cfg.write_text("confidence = 1.5\n")
    extra = ["--config", str(cfg)]
    assert main(_evaluate_args(paths, qrels, tmp_path / "out", extra)) == 2
    assert capsys.readouterr().err == "error: confidence = 1.5 is not in the range 0<x<1\n"


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


@pytest.mark.parametrize(
    "flags, code, err",
    [
        (["--topic", "missing"], 2, "error: topic 'missing' not found in 'run-a'\n"),
        (
            ["--topic", "T0", "--alpha", "1", "--beta", "1"],
            3,
            "computation error: need at least 2 binned points to fit\n",
        ),
    ],
    ids=["missing-topic", "one-bin-gain-fit"],
)
def test_plot_data_first_file_errors_come_first(
    dataset, tmp_path, capsys, flags, code, err
):
    # The first file's topic lookup and gain fit fail before the second
    # file's parse error is taken.
    paths, qrels = dataset
    broken = tmp_path / "broken.txt"
    broken.write_text("broken line\n")
    args = ["plot-data", "--runs", str(paths["run-a"]), "--runs", str(broken)]
    args += ["--qrels", str(qrels), *flags, "--out-dir", str(tmp_path / "out")]
    assert main(args) == code
    assert capsys.readouterr().err == err
    assert not (tmp_path / "out").exists()
