"""The README's `## Library` examples run as written."""

import re
from pathlib import Path

from tarstop.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_examples() -> list[str]:
    section = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # Ten documents, two of them relevant: too few for the Poisson rule's
    # initial sample, so it reviews the whole topic.
    (tmp_path / "run.txt").write_text(
        "".join(f"T1 Q0 d{r} {r} {1 / r:.4f} demo\n" for r in range(1, 11))
    )
    (tmp_path / "qrels.txt").write_text(
        "".join(f"T1 0 d{r} {int(r in (2, 5))}\n" for r in range(1, 11))
    )
    monkeypatch.chdir(tmp_path)
    examples = _library_examples()
    assert len(examples) == 2
    namespace = {}
    for example in examples:
        exec(compile(example, str(README), "exec"), namespace)
    assert capsys.readouterr().out == "10 False\n[('pp', 10.0), ('or', 5.0)]\n"
    # The second example's report.jsonl is the one the command writes.
    args = ["evaluate", "--runs", "run.txt", "--qrels", "qrels.txt"]
    assert main(args + ["--methods", "pp,or", "--out-dir", "cli"]) == 0
    cli_report = (tmp_path / "cli" / "report.jsonl").read_bytes()
    assert (tmp_path / "report.jsonl").read_bytes() == cli_report
