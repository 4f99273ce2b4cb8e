"""The pytest settings in pyproject.toml report a failing test as a failure."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_failing_property_test_is_an_ordinary_failure(tmp_path):
    # On a failure hypothesis imports libcst, which uses the deprecated
    # mypy_extensions.TypedDict; under error::DeprecationWarning that warning
    # used to abort the session with an internal error (exit code 3).
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(n):\n"
        "    assert n < 10\n"
    )
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            "test_fails.py",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=300,
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "1 failed" in result.stdout
    assert "INTERNALERROR" not in output
