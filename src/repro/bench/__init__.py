"""The evaluation harness: a registry of declared scenarios.

Every table, figure and post-paper axis is a declared
:class:`Scenario` (:mod:`.paper`, :mod:`.ablations`, :mod:`.axes`)
registered in :data:`EXPERIMENTS` by id; :func:`run_experiment` is the
one runner and emitter (:mod:`.scenario`), :mod:`.workers` holds the
drivers scenarios share, :mod:`.harness` the throughput/latency measurement and
:mod:`.results` the ``BENCH_*.json`` envelope.  ``python -m repro.bench
[--list] [--audit] [ids...]`` and ``benchmarks/test_*.py`` both go
through :func:`run_experiment`.
"""

# Importing registers the scenarios; this order is the run-everything order.
from . import paper, ablations, axes  # noqa: F401
from .harness import measure_latency, measure_throughput
from .results import (
    BENCH_SCHEMA,
    bench_record,
    load_bench_json,
    results_dir,
    write_bench_json,
)
from .scenario import EXPERIMENTS, run_experiment

__all__ = [
    "BENCH_SCHEMA",
    "EXPERIMENTS",
    "bench_record",
    "load_bench_json",
    "measure_latency",
    "measure_throughput",
    "results_dir",
    "run_experiment",
    "write_bench_json",
]
