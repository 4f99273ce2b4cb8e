"""The README's `## Library` example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


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
    exec(compile(_library_example(), str(README), "exec"), {})
    assert capsys.readouterr().out == "10 False\n"
