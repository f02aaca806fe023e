"""Measurement harness: peak-throughput and single-thread latency drivers.

Follows the paper's methodology (Section VIII-a): peak throughput is
measured by saturating the servers with many client threads, each
updating non-overlapping key ranges; mean latency with a single thread.
Throughput counts operations completed inside a measurement window that
opens after a warmup (so queues reach steady state); latency collects
per-operation timings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, List

from ..errors import ReproError
from ..sim import Simulator

__all__ = [
    "ThroughputResult",
    "LatencyResult",
    "measure_throughput",
    "measure_latency",
]


@dataclass
class ThroughputResult:
    """Operations completed per second inside the measurement window."""

    completed: int
    window_ms: float
    threads: int
    errors: int = 0

    @property
    def per_second(self) -> float:
        return self.completed / (self.window_ms / 1000.0)


@dataclass
class LatencyResult:
    """Per-operation latencies (ms) from a single measurement thread."""

    latencies_ms: List[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return sum(self.latencies_ms) / len(self.latencies_ms)


class _Recorder:
    """Counts operations that complete inside [warmup_end, window_end)."""

    def __init__(self, sim: Simulator, warmup_end: float, window_end: float) -> None:
        self.sim = sim
        self.warmup_end = warmup_end
        self.window_end = window_end
        self.completed = 0
        self.errors = 0

    def record(self, count: int = 1) -> bool:
        """Count ``count`` completions; says whether they fell in the
        window, for workers that keep their own per-op statistics."""
        in_window = self.warmup_end <= self.sim.now < self.window_end
        if in_window:
            self.completed += count
        return in_window

    def record_error(self) -> None:
        if self.warmup_end <= self.sim.now < self.window_end:
            self.errors += 1


# A worker factory receives (thread_index, record, record_error) and
# returns a generator that loops issuing operations forever, calling
# record() after each completed unit of work.
WorkerFactory = Callable[[int, Callable[..., bool], Callable[[], None]], Generator]


def measure_throughput(
    sim: Simulator,
    make_worker: WorkerFactory,
    threads: int,
    warmup_ms: float = 1_000.0,
    window_ms: float = 4_000.0,
) -> ThroughputResult:
    """Run ``threads`` workers and count completions in the window.

    The simulation stops at the window's end; workers are simply
    abandoned mid-operation (their in-flight work is not counted).
    Nothing fails silently: a :class:`ReproError` no process observed
    (a worker's, or a background task's) counts as an error, and any
    other exception is a bug in the harness or the system and is raised.
    """
    recorder = _Recorder(sim, sim.now + warmup_ms, sim.now + warmup_ms + window_ms)

    def resilient(worker: Generator) -> Generator:
        # A worker that dies takes its thread out of the offered load but
        # must not kill the measurement run.
        try:
            yield from worker
        except ReproError:
            recorder.record_error()

    for index in range(threads):
        worker = make_worker(index, recorder.record, recorder.record_error)
        sim.process(resilient(worker), name=f"worker-{index}")
    unobserved = 0
    while True:
        # Strict mode re-raises one unobserved failure per call; once
        # the window has run, each further call only pops the next one.
        try:
            sim.run(until=recorder.window_end)
            break
        except ReproError:
            unobserved += 1
    return ThroughputResult(
        completed=recorder.completed,
        window_ms=window_ms,
        threads=threads,
        errors=recorder.errors + unobserved,
    )


def measure_latency(
    sim: Simulator,
    make_operation: Callable[[int], Generator],
    samples: int,
    warmup_samples: int = 1,
    limit_ms: float = 1e9,
) -> LatencyResult:
    """Time ``samples`` sequential operations from a single thread."""
    result = LatencyResult()

    def runner() -> Generator[Any, Any, None]:
        for index in range(warmup_samples + samples):
            start = sim.now
            yield from make_operation(index)
            if index >= warmup_samples:
                result.latencies_ms.append(sim.now - start)

    sim.run_until_complete(sim.process(runner(), name="latency-runner"),
                           limit=sim.now + limit_ms)
    return result
