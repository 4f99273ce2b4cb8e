"""Stopping criteria for ranked document review.

A Poisson-process stopping method with target, knee, and oracle baselines,
evaluation metrics, run/qrels ingestion, and a synthetic-topic simulator.
"""

import os

# One BLAS thread unless the environment names another count, set before
# numpy is imported: no tarstop code calls BLAS, and an idle BLAS thread
# costs CPU at import and makes every pool worker the fork of a threaded process.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

from tarstop.core import MethodParams, Run, StopOutcome, Topic, rel_at
from tarstop.methods import knee_stop, oracle_stop, poisson_stop, target_stop
from tarstop.poisson import required_relevant, upper_credible_count
from tarstop.ratefit import RateModel, lambda_integral

__all__ = [
    "MethodParams",
    "RateModel",
    "Run",
    "StopOutcome",
    "Topic",
    "knee_stop",
    "lambda_integral",
    "oracle_stop",
    "poisson_stop",
    "rel_at",
    "required_relevant",
    "target_stop",
    "upper_credible_count",
]

__version__ = "0.1.0"
