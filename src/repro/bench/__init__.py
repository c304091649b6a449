"""Benchmark harness reproducing the paper's evaluation.

Each experiment (E1-E14, see DESIGN.md section 4) is a registered
:class:`~repro.bench.experiments.Experiment` that builds its workload,
sweeps its parameter, and returns paper-style tables.  Run them via::

    python -m repro.bench list
    python -m repro.bench run E1
    python -m repro.bench run all --scale quick

The pytest-benchmark files under ``benchmarks/`` wrap the same definitions
so ``pytest benchmarks/ --benchmark-only`` exercises every experiment.
"""

from repro.bench.plots import ascii_plot, plot_table
from repro.bench.report import generate_report
from repro.bench.tables import Table
from repro.bench.harness import (
    BatchResult,
    build_tree,
    default_page_model,
    run_query_batch,
)
from repro.bench.experiments import EXPERIMENTS, Scale, get_experiment

__all__ = [
    "BatchResult",
    "EXPERIMENTS",
    "Scale",
    "Table",
    "ascii_plot",
    "plot_table",
    "build_tree",
    "default_page_model",
    "generate_report",
    "get_experiment",
    "run_query_batch",
]
