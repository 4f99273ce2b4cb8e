"""Stopping criteria for ranked document review.

A Poisson-process stopping method with target, knee, and oracle baselines,
evaluation metrics, run/qrels ingestion, and a synthetic-topic simulator.
"""

import importlib
import os

# One BLAS thread unless the environment names another count, set before
# numpy is imported: no tarstop code calls BLAS, and an idle BLAS thread
# costs CPU at import and makes every pool worker the fork of a threaded process.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

__version__ = "0.1.0"

# The module that defines each public name.  A name's module, and numpy with
# it, is imported on the name's first use, so importing the package, or the
# command line before it runs a command, loads neither.
_HOME = {
    "MethodParams": "config",
    "Run": "core",
    "StopOutcome": "core",
    "Topic": "core",
    "rel_at": "core",
    "knee_stop": "methods",
    "oracle_stop": "methods",
    "poisson_stop": "methods",
    "target_stop": "methods",
    "required_relevant": "poisson",
    "upper_credible_count": "poisson",
    "RateModel": "ratefit",
    "lambda_integral": "ratefit",
}
__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
