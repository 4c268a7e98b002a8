"""Experiment harness: configure, run, and report simulated benchmarks."""

from repro.harness.config import RunConfig, WorkloadConfig
from repro.harness.results import RunResult
from repro.harness.runner import run_experiment
from repro.harness.report import Table, format_float

__all__ = [
    "RunConfig",
    "WorkloadConfig",
    "RunResult",
    "run_experiment",
    "Table",
    "format_float",
]
