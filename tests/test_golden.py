"""Byte-level golden outputs of every tarstop command.

The `evaluate` and `stratify` jsonl digests, on a seeded dataset, were
recorded before the columnar Topic and single-pass run ingest replaced the
per-line parser, and refrozen when the target method's sampling order
became one Generator permutation (only its records moved: evaluate was
5ec3d5d3..., stratify 50112433...).  The table and plot-data CSV digests
were recorded before topic records became the only per-run result of a
worker, and the plot-data SVG digests before its gain curve was fitted in
the main process.
A change that alters a digest changes what the program reports and must
say so.
"""

import hashlib
import json
import multiprocessing
import re

import numpy as np
import pytest

import tarstop.cli
from conftest import doc_ids
from tarstop.cli import main
from tarstop.config import MethodParams
from tarstop.ingest import parse_qrels, parse_run
from tarstop.methods import RULES
from tarstop.metrics import build_report, build_stratify_report, mean_aurc, topic_records
from tarstop.simulate import FAMILIES, ExponentialRate, coverage_experiment, gen_topic

SIZES = (300, 500, 800, 1200)
RUNS = 15
# command -> {output file: sha256} at seed 0.
GOLDEN = {
    "evaluate": {
        "report.jsonl": "336690a5ef8d9ad5742865fd5bfe11ce10c4f53df30228164af4f7d5eccfb9a5",
        "report.txt": "06613a7607fdcabce4b5c7eed4b38b5af740c8f0537346ab7de7855e02a33fa3",
    },
    "stratify": {
        "stratify.jsonl": "6aa5757281988b981d401a1963c0c6d471079bce219bcc95a42d017c24c5ab9a",
        "stratify.txt": "bdd58421aed332b4b1a22ba6e68b09d363145345d08dda15c39d48dda9dfeb0e",
    },
    "plot-data": {
        "effort_vs_aurc.csv": "28d9a4fc98289911c0a23d992191bb747c2c887e7a3f21a6426947db033a58db",
        "effort_vs_aurc.svg": "9d2f8b710538940b179f42e7a7d023c14316e493ea8d0b851297b21b8538922e",
        "gain_T0.csv": "7a2528100a70b98b29078c131a12b119d7ce448bfd0e16b41d7f99a6d13ba832",
        "gain_T0.svg": "24b74fdd66c67bae07f2fcd5f46ccb1505bd1007087b9d0614d5998d3763da01",
    },
}
EXTRA_ARGS = {"plot-data": ["--topic", "T0"]}
# Prefixed to every doc id, it makes the dataset's 8-byte ids 25 bytes long.
LONG_ID_PREFIX = b"clueweb12-0000tw-"


# family -> sha256 of simulate.jsonl from
# simulate --family FAMILY --n 400 --cutoff 20 --trials 100 --seed 0.
# Bimodal's coverage went from 0.97 (digest 8698be88...) to 0.17 when a rate
# fit whose cost only falls towards a limit of the model became a fit
# failure, which counts as a miss; the method reliabilities did not move.
# The other three were recorded while uniform, step and bimodal rates were
# still three classes.
SIMULATE = {
    "bimodal": "b6767f2ebfcd85c7581639a7d097e8d281ff13bcb67e0ef5b882981ecec66eab",
    "exponential": "954c59777b4276eb8d3937fc7d8918f53cdfb69a795865a3593edca68c91fed9",
    "step": "85f712c82adf0f6f77c2d902f2f2796842c880a774b508be6b563dbe0c92e154",
    "uniform": "0ea7fec15a6d24947ed2f78859dd0f44aab6b244496511fa224ca9a267ff1808",
}
# family -> sha256 of simulate.txt from the same command, recorded while the
# text still read the unrounded coverage rather than the experiment record.
SIMULATE_TXT = {
    "bimodal": "b505bd2519fb1d9950418c4cc5ed2e7653a6810dd5fdfb27d69d83e92774aa40",
    "exponential": "e2b9eff60dd1a69c101a1da973cb1ea0471c13409ebd9691fb6ae5efaadf732f",
    "step": "b169a9f52610f994621fe55e3f53d09ebb0e4faff556a60766467e2ac871716c",
    "uniform": "b5439d03c6a156d58fb2b8900e593844b4d538d56062799375dde7ede20121eb",
}
# The simulate command's defaults for the rate options it is not given.
SIMULATE_RATE_ARGS = {"d": 0.5, "k": -0.005, "p": 0.1, "p1": 0.3, "p2": 0.01, "cutoff": 20}

# validation.json of `validate` over the 15 run files of the dataset below,
# recorded when only the first run file was labelled and summarized.
VALIDATION = "0d561e105a75ff6acdb2cac4a39754997dcc60af1dd92b4bd3b24fc786fff4dc"


def _write_dataset(root):
    """15 run files of 4 shared topics and a qrels file judging every doc.

    Run j ranks relevant documents ahead by a margin falling with j.  Three
    runs take the parser off its common path: run03 lists its lines in
    shuffled order, run05 has rank gaps and run07 repeats each rank twice.
    """
    rate = ExponentialRate(0.3, -0.004)
    topics = [gen_topic(n, rate, seed=700 + i) for i, n in enumerate(SIZES)]
    qrels = [
        f"T{i} 0 {doc_id} {int(rel)}"
        for i, topic in enumerate(topics)
        for doc_id, rel in zip(doc_ids(topic.size), topic.relevant)
    ]
    (root / "qrels.txt").write_text("\n".join(qrels) + "\n")
    paths = []
    for j in range(RUNS):
        rng = np.random.default_rng(900 + j)
        margin = 3.0 - 0.2 * j
        lines = []
        for i, topic in enumerate(topics):
            ids = doc_ids(topic.size)
            scores = rng.normal(size=topic.size) + margin * topic.relevant
            for rank, idx in enumerate(np.argsort(-scores, kind="stable"), start=1):
                if j == 5:
                    rank *= 2
                elif j == 7:
                    rank = (rank + 1) // 2
                lines.append(
                    f"T{i} NF {ids[idx]} {rank} {scores[idx]:.6f} run{j:02d}"
                )
        if j == 3:
            lines = [lines[k] for k in rng.permutation(len(lines))]
        path = root / f"run{j:02d}.txt"
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)
    return paths, root / "qrels.txt"


def _output_digests(command, root):
    """{output file: sha256} of the files GOLDEN pins for the command."""
    paths, qrels = _write_dataset(root)
    args = [command, "--qrels", str(qrels), "--seed", "0"]
    for path in paths:
        args += ["--runs", str(path)]
    out = root / "out"
    assert main(args + EXTRA_ARGS.get(command, []) + ["--out-dir", str(out)]) == 0
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in GOLDEN[command]
    }


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_output_digest(command, tmp_path):
    assert _output_digests(command, tmp_path) == GOLDEN[command]


@pytest.mark.parametrize("rewrite", [b"\r\n", b"\r", LONG_ID_PREFIX])
def test_golden_digest_of_other_line_ends(rewrite, tmp_path):
    # The dataset's run and qrels files rewritten with CRLF or CR line ends,
    # or with every doc id prefixed to 25 bytes, give the bytes of the LF
    # ones: a common prefix keeps every tie-break order.
    paths, qrels = _write_dataset(tmp_path)
    for path in [*paths, qrels]:
        data = path.read_bytes()
        if rewrite == LONG_ID_PREFIX:
            data = re.sub(rb"(?m)^(\S+ \S+ )", rb"\1" + rewrite, data)
        else:
            data = data.replace(b"\n", rewrite)
        path.write_bytes(data)
    args = ["evaluate", "--qrels", str(qrels), "--seed", "0"]
    for path in paths:
        args += ["--runs", str(path)]
    assert main(args + ["--out-dir", str(tmp_path / "out")]) == 0
    digest = hashlib.sha256((tmp_path / "out" / "report.jsonl").read_bytes())
    assert digest.hexdigest() == GOLDEN["evaluate"]["report.jsonl"]


@pytest.mark.parametrize("family", sorted(SIMULATE))
def test_golden_simulate_digest(family, tmp_path):
    args = ["simulate", "--family", family, "--n", "400", "--cutoff", "20"]
    args += ["--trials", "100", "--seed", "0", "--out-dir", str(tmp_path)]
    assert main(args) == 0
    digest = hashlib.sha256((tmp_path / "simulate.jsonl").read_bytes()).hexdigest()
    assert digest == SIMULATE[family]
    digest = hashlib.sha256((tmp_path / "simulate.txt").read_bytes()).hexdigest()
    assert digest == SIMULATE_TXT[family]


def _jsonl_digest(records):
    lines = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    return hashlib.sha256(lines.encode()).hexdigest()


def test_library_records_equal_the_golden_outputs(tmp_path):
    # The command's records, built in this process with no CLI and no pool.
    paths, qrels_path = _write_dataset(tmp_path)
    with open(qrels_path, "rb") as handle:
        qrels = parse_qrels(handle)
    runs = []
    for path in paths:
        with open(path, "rb") as handle:
            runs.append(parse_run(handle, qrels))
    params = MethodParams()
    records = {
        run.run_tag: {m: topic_records(run, m, params, 0) for m in RULES}
        for run in runs
    }
    scores = {run.run_tag: mean_aurc(run) for run in runs}
    assert _jsonl_digest(build_report(records)) == GOLDEN["evaluate"]["report.jsonl"]
    stratify = build_stratify_report(scores, records)
    assert _jsonl_digest(stratify) == GOLDEN["stratify"]["stratify.jsonl"]
    for family, digest in SIMULATE.items():
        rate = FAMILIES[family](SIMULATE_RATE_ARGS)
        assert _jsonl_digest(coverage_experiment(family, rate, 400, 100, 0, params)) == digest


def test_golden_validation_digest(tmp_path, monkeypatch):
    paths, qrels = _write_dataset(tmp_path)
    # On this machine's CPUs, then on one and on three workers.
    for cpus in (None, 1, 3):
        if cpus is not None:
            monkeypatch.setattr(tarstop.cli, "_cpu_count", lambda cpus=cpus: cpus)
        out = tmp_path / f"out-{cpus}"
        args = ["validate", "--qrels", str(qrels), "--out-dir", str(out)]
        for path in paths:
            args += ["--runs", str(path)]
        assert main(args) == 0
        digest = hashlib.sha256((out / "validation.json").read_bytes())
        assert digest.hexdigest() == VALIDATION
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("command", sorted(GOLDEN))
@pytest.mark.parametrize("cpus", [1, 3])
def test_worker_count_leaves_output_bytes(command, cpus, tmp_path, monkeypatch):
    monkeypatch.setattr(tarstop.cli, "_cpu_count", lambda: cpus)
    assert _output_digests(command, tmp_path) == GOLDEN[command]
    assert not multiprocessing.active_children()
