"""The workload drivers every scenario shares.

Per-system factories return a worker generator (for throughput runs) or
an operation generator (for latency runs) that performs the paper's
unit of work:

- MUSIC/MSCP: a critical section = createLockRef, acquireLock (polling),
  ``batch`` criticalPuts, releaseLock — Listing 1 with a batch loop;
- CassaEV:    a plain eventually-consistent Cassandra write;
- Zookeeper:  the lock recipe around ``batch`` setData calls;
- CockroachDB: the X-B3 per-update locking transactions.

Throughput workers count one completion per *state update* (the per-
write accounting of Figs. 4 and 6) and spread threads round-robin over
the profile's sites, as the paper runs one load generator per site.

On top of them sit the two system-sweep entry points a figure's
``measure(cell)`` calls with a system *label* —
:func:`saturated_throughput` and :func:`cs_latency` — and the one
hot-key counter driver (:func:`counter_increments`) behind the
contention axis, ``python -m repro.obs explain`` and the live
``cs_workload``.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Callable, ContextManager, Generator, Iterable, List, Optional

from ..baselines.cockroach import CockroachClient, CockroachCriticalSection, build_cockroach
from ..baselines.zookeeper import NodeExistsError, ZkLock, ZkSession, build_zookeeper
from ..core import MusicClient
from ..core.deployment import MusicDeployment
from ..errors import ReproError
from ..net import PAPER_PROFILES, Network
from ..sim import RandomStreams, Simulator
from ..workloads import KeyRange, SizedValue
from .harness import LatencyResult, measure_latency, measure_throughput

__all__ = [
    "music_worker",
    "cassa_ev_worker",
    "zookeeper_worker",
    "music_cs_operation",
    "cassa_ev_operation",
    "cockroach_cs_operation",
    "saturated_throughput",
    "cs_latency",
    "counter_increments",
    "read_counter",
    "site_clients",
    "run_all",
]


def _site_for(deployment: MusicDeployment, index: int) -> str:
    """Round-robin: the paper runs one load generator per site."""
    sites = deployment.profile.site_names
    return sites[index % len(sites)]


def _batch_critical_section(
    client: MusicClient,
    key: str,
    batch: int,
    value_bytes: int,
    record: Callable[..., Any] = lambda: None,
) -> Generator[Any, Any, None]:
    """Listing 1 with a batch loop; ``record()`` after each criticalPut."""
    lock_ref = yield from client.create_lock_ref(key)
    yield from client.acquire_lock_blocking(key, lock_ref)
    for update in range(batch):
        yield from client.critical_put(key, lock_ref, SizedValue(value_bytes, tag=update))
        record()
    yield from client.release_lock(key, lock_ref)


def music_worker(
    deployment: MusicDeployment,
    thread_index: int,
    record: Callable[..., None],
    record_error: Callable[[], None],
    batch: int = 1,
    value_bytes: int = 10,
) -> Generator[Any, Any, None]:
    """Critical sections forever; records one count per criticalPut."""
    client = deployment.client(_site_for(deployment, thread_index), f"w{thread_index}")
    keys = KeyRange(thread_index)
    while True:
        try:
            yield from _batch_critical_section(
                client, keys.next_key(), batch, value_bytes, record
            )
        except ReproError:
            record_error()


def cassa_ev_worker(
    deployment: MusicDeployment,
    thread_index: int,
    record: Callable[..., None],
    record_error: Callable[[], None],
    value_bytes: int = 10,
) -> Generator[Any, Any, None]:
    """CassaEV: unlocked eventual writes via the nearest replica."""
    replica = deployment.replica_at(_site_for(deployment, thread_index))
    keys = KeyRange(thread_index, prefix="ev")
    while True:
        key = keys.next_key()
        try:
            yield from replica.put(key, SizedValue(value_bytes))
            record()
        except ReproError:
            record_error()


def zookeeper_worker(
    servers,
    thread_index: int,
    record: Callable[..., None],
    record_error: Callable[[], None],
    batch: int = 1,
    value_bytes: int = 10,
) -> Generator[Any, Any, None]:
    """ZK critical sections: lock recipe + ``batch`` setData calls."""
    server = servers[thread_index % len(servers)]
    session = ZkSession(server)
    yield from session.open()
    data_path = f"/bench/t{thread_index}"
    try:
        root_exists = yield from session.exists("/bench")
        if not root_exists:
            yield from session.create("/bench")
    except NodeExistsError:
        pass
    try:
        yield from session.create(data_path, SizedValue(value_bytes))
    except NodeExistsError:
        pass
    while True:
        lock = ZkLock(session, f"t{thread_index}")
        try:
            yield from lock.acquire()
            for update in range(batch):
                yield from session.set_data(data_path, SizedValue(value_bytes, tag=update))
                record()
            yield from lock.release()
        except ReproError:
            record_error()


def music_cs_operation(
    deployment: MusicDeployment,
    site: str = "Ohio",
    batch: int = 1,
    value_bytes: int = 10,
    key_prefix: str = "lat",
):
    """An operation factory for measure_latency: one full MUSIC CS."""
    client = deployment.client(site, "latency-client")

    def operation(index: int) -> Generator[Any, Any, None]:
        return _batch_critical_section(client, f"{key_prefix}-{index}", batch, value_bytes)

    return operation


def cassa_ev_operation(deployment: MusicDeployment, site: str = "Ohio",
                       value_bytes: int = 10):
    replica = deployment.replica_at(site)

    def operation(index: int) -> Generator[Any, Any, None]:
        yield from replica.put(f"ev-lat-{index}", SizedValue(value_bytes))

    return operation


def cockroach_cs_operation(
    nodes,
    gateway_index: int = 0,
    batch: int = 1,
    value_bytes: int = 10,
    key_prefix: str = "crdb-lat",
):
    """One X-B3 critical section: ``batch`` per-update locking txns."""
    client = CockroachClient(nodes[gateway_index], client_id="latency")

    def operation(index: int) -> Generator[Any, Any, None]:
        cs = CockroachCriticalSection(client, f"{key_prefix}-{index}", owner="latency")
        for update in range(batch):
            yield from cs.update(f"{key_prefix}-data-{index}", SizedValue(value_bytes, tag=update))

    return operation


def _lus_network(seed: int):
    """A bare lUs network for the baselines that are not MUSIC-shaped."""
    sim = Simulator()
    network = Network(sim, PAPER_PROFILES["lUs"], streams=RandomStreams(seed))
    return sim, network, list(PAPER_PROFILES["lUs"].site_names)


def saturated_throughput(
    run: Any,
    system: str,
    *,
    seed: int,
    threads: int,
    warmup_ms: float,
    window_ms: float,
    batch: int = 1,
    value_bytes: int = 10,
    **deployment_kwargs: Any,
) -> float:
    """Peak state updates per second of ``system`` on a fresh deployment.

    ``system`` is a figure's column label: ``CassaEV`` (unlocked
    eventual writes on a MUSIC deployment), ``MUSIC`` / ``MSCP``
    (critical sections of ``batch`` puts; ``deployment_kwargs`` go to
    ``run.build``) or ``Zookeeper`` (the lock recipe, lUs only).
    """
    if system == "Zookeeper":
        sim, network, sites = _lus_network(seed)
        target = build_zookeeper(sim, network, sites)
    else:
        target = run.build(system, seed=seed, **deployment_kwargs)
        sim = target.sim

    def make_worker(index, record, record_error):
        if system == "CassaEV":
            return cassa_ev_worker(target, index, record, record_error)
        worker = zookeeper_worker if system == "Zookeeper" else music_worker
        return worker(target, index, record, record_error,
                      batch=batch, value_bytes=value_bytes)

    result = measure_throughput(
        sim, make_worker, threads=threads, warmup_ms=warmup_ms, window_ms=window_ms
    )
    return result.per_second


def cs_latency(
    run: Any,
    system: str,
    *,
    seed: int,
    samples: int,
    batch: int = 1,
    value_bytes: int = 10,
    **deployment_kwargs: Any,
) -> LatencyResult:
    """Single-thread latencies of ``samples`` units of work of
    ``system``: one eventual write (``CassaEV``), one critical section
    of ``batch`` puts (``MUSIC`` / ``MSCP``), or the X-B3 per-update
    transactions (``CockroachDB``, lUs only)."""
    if system == "CockroachDB":
        sim, network, sites = _lus_network(seed)
        nodes = build_cockroach(sim, network, sites)
        operation = cockroach_cs_operation(nodes, batch=batch, value_bytes=value_bytes)
    else:
        deployment = run.build(system, seed=seed, **deployment_kwargs)
        sim = deployment.sim
        if system == "CassaEV":
            operation = cassa_ev_operation(deployment)
        else:
            operation = music_cs_operation(deployment, batch=batch, value_bytes=value_bytes)
    return measure_latency(sim, operation, samples=samples)


def counter_increments(
    clock: Any,
    enter: Callable[[], Generator[Any, Any, Any]],
    rounds: int,
    record: Optional[Callable[[float, float, float], None]] = None,
    span: Callable[[], ContextManager] = nullcontext,
) -> Generator[Any, Any, None]:
    """The hot-key counter driver: ``rounds`` critical sections of
    read -> increment -> write.

    Each adds exactly one, so the final value says whether exclusivity
    held whatever the schedule was.  ``enter()`` yields the held
    ``CriticalSection``, or None when the caller gave up on the lock
    and accounted for it itself.  ``record(started, entered,
    finished)`` receives each one's clock readings; ``span()`` wraps
    each one (tracing).
    """
    for _ in range(rounds):
        started = clock.now
        with span():
            section = yield from enter()
            if section is None:
                continue
            entered = clock.now
            value = yield from section.get()
            yield from section.put((value or 0) + 1)
            yield from section.exit()
        if record is not None:
            record(started, entered, clock.now)


def read_counter(client: MusicClient, key: str, timeout_ms: float) -> Generator[Any, Any, Any]:
    """Read ``key`` under its lock, so the value is a linearized
    observation of every increment before it."""
    section = yield from client.critical_section(key, timeout_ms=timeout_ms)
    value = yield from section.get()
    yield from section.exit()
    return value


def site_clients(deployment: MusicDeployment, count: int) -> List[MusicClient]:
    """``count`` clients spread round-robin over the profile's sites."""
    return [deployment.client(_site_for(deployment, index)) for index in range(count)]


def run_all(sim: Simulator, workers: Iterable[Generator], limit: float = 1e10) -> None:
    """Start every worker now, then run until the last one is done."""
    processes = [sim.process(worker) for worker in workers]
    for process in processes:
        sim.run_until_complete(process, limit=limit)
