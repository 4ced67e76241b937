"""Benchmark harness: workloads, the experiment registry, the ledger."""

from repro.bench.experiments import ALL_EXPERIMENTS
from repro.bench.harness import Experiment, Result, Table, run_experiment

__all__ = ["ALL_EXPERIMENTS", "Experiment", "Result", "Table",
           "run_experiment"]
