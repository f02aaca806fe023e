"""Benchmark harness and the per-figure experiments of Section VIII."""

from .experiments import EXPERIMENTS, ExperimentResult, run_experiment, scale_name
from .harness import LatencyResult, ThroughputResult, measure_latency, measure_throughput
from .results import (
    BENCH_SCHEMA,
    bench_record,
    load_bench_json,
    results_dir,
    write_bench_json,
)

__all__ = [
    "BENCH_SCHEMA",
    "EXPERIMENTS",
    "ExperimentResult",
    "LatencyResult",
    "ThroughputResult",
    "bench_record",
    "load_bench_json",
    "measure_latency",
    "measure_throughput",
    "results_dir",
    "run_experiment",
    "scale_name",
    "write_bench_json",
]
