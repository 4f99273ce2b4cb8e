"""Byte-level golden outputs of `evaluate` and `stratify` on a seeded dataset.

The digests were recorded before the columnar Topic and single-pass run
ingest replaced the per-line parser.  A change that alters them changes
what the program reports and must say so.
"""

import hashlib
import multiprocessing

import numpy as np
import pytest

import tarstop.cli
from tarstop.cli import main
from tarstop.simulate import ExponentialRate, gen_topic

SIZES = (300, 500, 800, 1200)
RUNS = 15
GOLDEN = {
    "evaluate": (
        "report.jsonl",
        "5ec3d5d3e8ae09e3f7e0ffb35582585eec22b7633b10f8becfed3ab2d3ca3227",
    ),
    "stratify": (
        "stratify.jsonl",
        "50112433582cb5ee90635c56d071d3c1ddfa2bc773e073c46e74a3da0985f689",
    ),
}


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
        for doc_id, rel in zip(topic.doc_ids, topic.relevant)
    ]
    (root / "qrels.txt").write_text("\n".join(qrels) + "\n")
    paths = []
    for j in range(RUNS):
        rng = np.random.default_rng(900 + j)
        margin = 3.0 - 0.2 * j
        lines = []
        for i, topic in enumerate(topics):
            scores = rng.normal(size=topic.size) + margin * topic.relevant
            for rank, idx in enumerate(np.argsort(-scores, kind="stable"), start=1):
                if j == 5:
                    rank *= 2
                elif j == 7:
                    rank = (rank + 1) // 2
                lines.append(
                    f"T{i} NF {topic.doc_ids[idx]} {rank} {scores[idx]:.6f} run{j:02d}"
                )
        if j == 3:
            lines = [lines[k] for k in rng.permutation(len(lines))]
        path = root / f"run{j:02d}.txt"
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)
    return paths, root / "qrels.txt"


def _output_digest(command, root):
    paths, qrels = _write_dataset(root)
    args = [command, "--qrels", str(qrels), "--seed", "0"]
    for path in paths:
        args += ["--runs", str(path)]
    out = root / "out"
    assert main(args + ["--out-dir", str(out)]) == 0
    name, _ = GOLDEN[command]
    return hashlib.sha256((out / name).read_bytes()).hexdigest()


@pytest.mark.parametrize("command", sorted(GOLDEN))
def test_golden_output_digest(command, tmp_path):
    assert _output_digest(command, tmp_path) == GOLDEN[command][1]


@pytest.mark.parametrize("command", sorted(GOLDEN))
@pytest.mark.parametrize("cpus", [1, 3])
def test_worker_count_leaves_output_bytes(command, cpus, tmp_path, monkeypatch):
    monkeypatch.setattr(tarstop.cli, "_cpu_count", lambda: cpus)
    assert _output_digest(command, tmp_path) == GOLDEN[command][1]
    assert not multiprocessing.active_children()
