"""A fuzz of the command line: every input ends in bounded time with an exit code.

``main()`` runs in this process on small generated inputs: run and qrels
files with a few bytes changed, and ``simulate`` near the limits of its
options.  Every case must exit 0, 1 (usage), 2 (parse or validation) or 3
(computation), print no traceback, and end within ``_CASE_BUDGET_S``.

A real-time timer interrupts a case at its budget, so that a hang fails
its test then.  It stops a hang in this process, as in every ``simulate``
case, but not one in a pool worker of a command that reads run files:
the pool waits for its workers as the interrupted command unwinds.
"""

import contextlib
import io
import signal
import tempfile
import time
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from tarstop.cli import main
from tarstop.simulate import FAMILIES

# Seconds one case may take.  Of 3,000 file cases and 20,000 simulate
# cases drawn as below, on 2 shared vCPUs, none took 1 s, and the mean was
# under 20 ms.
_CASE_BUDGET_S = 5.0


class _OutOfTime(BaseException):
    """A case past its budget.  Not an Exception, so that hypothesis does
    not run the case again to shrink it, nor does the code under test
    catch it."""


def _main(args: list[str]) -> tuple[int, str]:
    """main()'s exit code and standard error, checked against the budget."""

    def out_of_time(signum, frame):
        raise _OutOfTime(f"{args} ran past {_CASE_BUDGET_S} s")

    err = io.StringIO()
    start = time.perf_counter()
    handler = signal.signal(signal.SIGALRM, out_of_time)
    signal.setitimer(signal.ITIMER_REAL, _CASE_BUDGET_S)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
    elapsed = time.perf_counter() - start
    assert elapsed < _CASE_BUDGET_S, (args, elapsed)
    return code, err.getvalue()


# Bytes a change puts into a file: control and whitespace bytes, bytes
# that are not UTF-8 (0xff, an encoded surrogate), U+3000, and the parts of
# numbers that only the per-line reader reads.
_PIECES = [
    b"\x00",
    b"\xff",
    b"\xed\xa0\x80",
    b"\r",
    b"\t",
    b"\x0b",
    b"\x1c",
    "\u3000".encode(),
    b"-",
    b".",
    b"+",
    b"nan",
    b"inf",
    b"1e5",
    b"12345678901234567890",
]


@st.composite
def _files(draw) -> list[bytes]:
    """The bytes of one or two run files and, last, their qrels, with 1-4 changes."""
    sizes = draw(st.lists(st.integers(5, 60), min_size=1, max_size=3))
    qrels = b""
    for t, size in enumerate(sizes):
        labels = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        qrels += b"".join(b"T%d 0 d%d %d\n" % (t, i, rel) for i, rel in enumerate(labels))
    files = []
    for tag in range(draw(st.integers(1, 2))):
        lines = []
        for t, size in enumerate(sizes):
            order = draw(st.permutations(range(size)))
            lines += [
                b"T%d Q0 d%d %d %.4f run%d\n" % (t, i, rank, 1 / rank, tag)
                for rank, i in enumerate(order, 1)
            ]
        files.append(b"".join(lines))
    files.append(qrels)
    for _ in range(draw(st.integers(1, 4))):
        which = draw(st.integers(0, len(files) - 1))
        data = files[which]
        at = draw(st.integers(0, len(data)))
        dropped = draw(st.integers(0, 1))  # insert the piece, or put it for a byte
        files[which] = data[:at] + draw(st.sampled_from(_PIECES)) + data[at + dropped :]
    return files


@settings(max_examples=150, deadline=None)
@given(
    files=_files(),
    command=st.sampled_from(["evaluate", "validate"]),
    methods=st.sampled_from(["pp,tm,km,or", "or", "xx", ",", "or,or"]),
)
def test_changed_files_end_with_an_exit_code(files, command, methods):
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp) / f"file{i}.txt" for i in range(len(files))]
        for path, data in zip(paths, files):
            path.write_bytes(data)
        *runs, qrels = paths
        args = [command, *(a for run in runs for a in ("--runs", str(run)))]
        args += ["--qrels", str(qrels), "--out-dir", tmp]
        if command == "evaluate":
            args += ["--methods", methods]
        code, err = _main(args)
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err


# Each option's values: ordinary ones and ones at or past its limits.
_SIMULATE_OPTIONS = {
    "--d": ["0.5", "1e-300", "1e300"],
    "--k": ["-0.005", "50", "-50", "0"],
    "--p": ["0.1", "0", "1"],
    "--p1": ["0.3", "1"],
    "--p2": ["0.01", "0"],
    "--cutoff": ["100", "0", "1000000000"],
    # Each parameter flag also takes NaN and a value just past its range.
    "--recall": ["0.7", "1", "1e-9", "nan", "1.5"],
    "--confidence": ["0.95", "0.9999999999999999", "1e-9", "nan", "1"],
    "--alpha": ["0.3", "1", "1e-6", "nan", "0"],
    "--beta": ["0.05", "1e-6", "nan", "0"],
    "--gamma": ["20", "1", "1000000000", "nan", "0"],
    "--delta": ["0.7", "1", "1e-9", "nan", "0"],
    "--epsilon": ["150", "0", "1000000000", "nan", "-1"],
    "--target-count": ["10", "1", "1000000000", "nan", "0"],
}


@st.composite
def _simulate_args(draw) -> list[str]:
    args = ["simulate", "--family", draw(st.sampled_from(sorted(FAMILIES)))]
    args += ["--n", str(draw(st.integers(1, 300))), "--trials", str(draw(st.integers(1, 3)))]
    args += ["--seed", str(draw(st.integers(0, 3)))]
    for option in draw(st.sets(st.sampled_from(sorted(_SIMULATE_OPTIONS)))):
        args += [option, draw(st.sampled_from(_SIMULATE_OPTIONS[option]))]
    return args


@settings(max_examples=400, deadline=None)
@given(args=_simulate_args())
def test_simulate_at_extreme_options_ends_with_an_exit_code(args):
    with tempfile.TemporaryDirectory() as tmp:
        code, err = _main([*args, "--out-dir", tmp])
    assert code in (0, 1, 2, 3), err
    assert "Traceback" not in err
