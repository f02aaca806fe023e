"""Tests for the measurement harness itself."""

import pytest

from repro.bench import measure_latency, measure_throughput
from repro.errors import ReproError
from repro.sim import Simulator


def test_throughput_counts_only_window_completions():
    sim = Simulator()

    def worker(index, record, record_error):
        while True:
            yield sim.timeout(100.0)  # one op per 100ms
            record()

    result = measure_throughput(sim, worker, threads=10,
                                warmup_ms=1_000.0, window_ms=2_000.0)
    # 10 threads x 20 ops in the 2s window.
    assert result.completed == 200
    assert result.per_second == pytest.approx(100.0)
    assert result.errors == 0


def test_throughput_warmup_excluded():
    sim = Simulator()
    seen = []

    def worker(index, record, record_error):
        while True:
            yield sim.timeout(10.0)
            record()
            seen.append(sim.now)

    result = measure_throughput(sim, worker, threads=1,
                                warmup_ms=500.0, window_ms=500.0)
    assert result.completed == 50  # only ops in [500, 1000)


def test_throughput_worker_errors_counted_not_fatal():
    sim = Simulator()

    def worker(index, record, record_error):
        yield sim.timeout(600.0)
        record()
        raise ReproError("worker died")

    result = measure_throughput(sim, worker, threads=3,
                                warmup_ms=500.0, window_ms=1_000.0)
    assert result.completed == 3
    assert result.errors == 3


def test_throughput_counts_unobserved_background_errors():
    """A ReproError in a process nobody waits on (not a worker: those
    are caught and counted already) is an error, not silence."""
    sim = Simulator()

    def background():
        yield sim.timeout(700.0)
        raise ReproError("background task died")

    def worker(index, record, record_error):
        if index == 0:
            sim.process(background())
        while True:
            yield sim.timeout(100.0)
            record()

    result = measure_throughput(sim, worker, threads=2,
                                warmup_ms=500.0, window_ms=1_000.0)
    assert result.completed == 20
    assert result.errors == 1


def test_throughput_raises_on_a_worker_bug():
    """Anything but a ReproError is a bug in the harness or the system:
    the figure must not quietly print a lower number."""
    sim = Simulator()

    def worker(index, record, record_error):
        yield sim.timeout(600.0)
        record()
        raise TypeError("worker bug")

    with pytest.raises(TypeError, match="worker bug"):
        measure_throughput(sim, worker, threads=3,
                           warmup_ms=500.0, window_ms=1_000.0)


def test_latency_measures_each_operation():
    sim = Simulator()
    delays = [10.0, 20.0, 30.0, 40.0]

    def operation(index):
        yield sim.timeout(delays[index])

    result = measure_latency(sim, operation, samples=3, warmup_samples=1)
    assert result.latencies_ms == [20.0, 30.0, 40.0]
    assert result.mean == 30.0


def test_experiment_registry_complete():
    """The registry and the committed tables name the same experiments
    (tests/bench/test_registry.py holds the rest of the contract)."""
    from repro.bench import EXPERIMENTS, results_dir

    committed = {path.stem for path in results_dir().glob("*.txt")}
    assert committed == set(EXPERIMENTS)


def test_run_experiment_unknown_id():
    from repro.bench import run_experiment

    with pytest.raises(KeyError):
        run_experiment("fig99")


def test_cheap_experiments_pass_their_shape_checks():
    from repro.bench import run_experiment

    for exp_id in ("table2", "xb4"):
        result = run_experiment(exp_id)
        assert result.ok, result.check_report()
        assert result.text
        assert result.exp_id == exp_id
