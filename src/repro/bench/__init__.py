"""Benchmark harness reproducing the paper's evaluation claims (E1..E14).

``python -m repro.bench`` runs every experiment and prints its table (text
or ``--markdown``); ``--smoke`` and ``--scale large`` also write the
``BENCH_smoke.json``/``BENCH_large.json`` artifacts, whose wall-clock and
call-count fields measure the cost of the same code paths.
"""

from repro.bench.metrics import ExperimentResult, format_table
from repro.bench.experiments import ALL_EXPERIMENTS, run_experiment

__all__ = ["ExperimentResult", "format_table", "ALL_EXPERIMENTS", "run_experiment"]
