"""Live clients: the one MUSIC client, in service mode, over real sockets.

A live client process builds a plain :class:`~repro.net.Node` host on
its own :class:`~repro.live.transport.TcpTransport` and hands it to
:func:`repro.core.service_client` — the same
:class:`~repro.core.MusicClient` the simulator verifies, over RPC stubs
of the replicas the cluster spec names.  Nothing here is live-specific
but the spec lookup.

``cs_workload`` is the shared critical-section workload used by the
conformance suite, the smoke runner and the live bench: the hot-key
counter driver of :mod:`repro.bench.workers` (``rounds``
read-modify-write increments per key) over a fixed number of logical
clients, every CS timed.  Its *effect* is timing-independent (each key
ends at exactly ``rounds * clients_per_key`` increments), which is what
lets the sim-vs-live conformance test demand identical final state
from both modes.
"""

from __future__ import annotations

import asyncio
import itertools
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, Generator, List, Optional

from ..bench.report import summarize
from ..bench.workers import counter_increments, read_counter
from ..core import CriticalSection, MusicClient, service_client
from ..net import Node
from ..sim import RandomStreams
from .config import ClusterSpec

__all__ = ["build_remote_client", "cs_workload", "drive_workload", "WorkloadResult"]

_client_seq = itertools.count()


def build_remote_client(
    spec: ClusterSpec,
    clock: Any,
    transport: Any,
    site: Optional[str] = None,
    client_id: Optional[str] = None,
    seed_salt: int = 0,
) -> MusicClient:
    """A service-mode MUSIC client on this process's transport."""
    replicas = spec.sites_of(spec.music_ids)
    site = site or next(iter(replicas.values()))
    if client_id is None:
        client_id = f"client-{os.getpid()}-{next(_client_seq)}"
    host = Node(clock, transport, client_id, site)
    host.start()
    return service_client(
        host, replicas.items(), spec.music_config(),
        streams=RandomStreams(spec.seed + seed_salt),
    )


@dataclass
class WorkloadResult:
    """Outcome of one ``cs_workload`` run."""

    completed_cs: int = 0
    failed_cs: int = 0
    # Wall-clock (clock.now) duration of each full critical section and
    # of each blocking acquire, in milliseconds.
    cs_latencies_ms: List[float] = field(default_factory=list)
    acquire_latencies_ms: List[float] = field(default_factory=list)
    started_ms: float = 0.0
    finished_ms: float = 0.0
    final_values: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ms(self) -> float:
        return self.finished_ms - self.started_ms

    def cs_per_sec(self) -> float:
        if self.duration_ms <= 0:
            return 0.0
        return self.completed_cs / (self.duration_ms / 1000.0)


def workload_metrics(result: WorkloadResult) -> Dict[str, float]:
    """The BENCH_live metric set for one workload run.  Percentiles
    follow ``bench.report.summarize`` (linear interpolation), the rule of
    every simulated BENCH file, so the two are comparable."""
    metrics = {
        "completed_cs": float(result.completed_cs),
        "failed_cs": float(result.failed_cs),
        "duration_ms": result.duration_ms,
        "cs_per_sec": result.cs_per_sec(),
    }
    for name, samples in (("cs", result.cs_latencies_ms),
                          ("acquire", result.acquire_latencies_ms)):
        summary = summarize(samples) if samples else None
        metrics[f"{name}_p50_ms"] = summary.p50 if summary else 0.0
        metrics[f"{name}_p99_ms"] = summary.p99 if summary else 0.0
    return metrics


def cs_workload(
    clock: Any,
    clients: List[MusicClient],
    keys: List[str],
    rounds: int,
    acquire_timeout_ms: float = 60_000.0,
) -> Generator[Any, Any, WorkloadResult]:
    """Counter-increment critical sections: the shared two-mode workload.

    Client ``i`` works key ``keys[i % len(keys)]``; each client performs
    ``rounds`` critical sections of read → increment → write.  Returns
    the aggregate result including the final value of every key (read
    under one last critical section per key by the first client).
    """
    result = WorkloadResult(started_ms=clock.now)

    def enter(client: MusicClient, key: str) -> Generator[Any, Any, Optional[CriticalSection]]:
        # ``client.critical_section`` spelled out: a timed-out acquire
        # is counted as a failed CS here instead of raised.
        lock_ref = yield from client.create_lock_ref(key)
        granted = yield from client.acquire_lock_blocking(
            key, lock_ref, timeout_ms=acquire_timeout_ms
        )
        if not granted:
            yield from client.release_lock(key, lock_ref)
            result.failed_cs += 1
            return None
        return CriticalSection(client, key, lock_ref)

    def record(started: float, entered: float, finished: float) -> None:
        result.acquire_latencies_ms.append(entered - started)
        result.cs_latencies_ms.append(finished - started)
        result.completed_cs += 1

    workers = [
        clock.process(
            counter_increments(
                clock, partial(enter, client, keys[index % len(keys)]), rounds, record
            ),
            name=f"cs-worker-{index}",
        )
        for index, client in enumerate(clients)
    ]
    yield clock.all_of(workers)
    # Final audited read of every key, under a lock so it is a
    # linearized observation.
    for key in keys:
        result.final_values[key] = yield from read_counter(
            clients[0], key, timeout_ms=acquire_timeout_ms
        )
    result.finished_ms = clock.now
    return result


async def drive_workload(
    clock: Any,
    new_client: Callable[[str], MusicClient],
    sites: List[str],
    keys: List[str],
    rounds: int,
    n_clients: int,
    timeout_s: float,
) -> WorkloadResult:
    """Run ``cs_workload`` live: ``n_clients`` clients, client ``i``
    built by ``new_client(sites[i % len(sites)])``, on ``clock`` under a
    wall-clock deadline of ``timeout_s`` (``asyncio.TimeoutError``)."""
    clients = [new_client(sites[index % len(sites)]) for index in range(n_clients)]
    return await asyncio.wait_for(
        clock.run_process(cs_workload(clock, clients, keys, rounds), name="workload"),
        timeout=timeout_s,
    )
