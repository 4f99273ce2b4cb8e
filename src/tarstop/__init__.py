"""Stopping criteria for ranked document review.

A Poisson-process stopping method with target, knee, and oracle baselines,
evaluation metrics, run/qrels ingestion, and a synthetic-topic simulator.
"""

from tarstop.core import MethodParams, Run, StopOutcome, Topic, rel_at
from tarstop.methods import knee_stop, oracle_stop, poisson_stop, target_stop
from tarstop.poisson import poisson_pmf, required_relevant, upper_credible_count
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
    "poisson_pmf",
    "poisson_stop",
    "rel_at",
    "required_relevant",
    "target_stop",
    "upper_credible_count",
]

__version__ = "0.1.0"
