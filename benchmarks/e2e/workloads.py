"""The six named workloads, driven through ``repro``'s public APIs only.

Every workload is closed-loop (a client issues its next operation only
after the previous one completed) and takes all of its randomness from
one integer seed, so a (workload, seed, scale) triple always does the
same work.  ``run_once`` runs one *iteration*: build the deployment
(timed as set-up), run the workload with the cyclic GC paused (timed as
the measured window), then verify the outputs.  The caller repeats
iterations and reports medians.

Simulated workloads also return a *fingerprint* — a hash of the final
simulated time and the sorted simulated latencies — which must be
identical across iterations of one seed; that is the "host-only changes
leave every simulated number alone" guard.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import hashlib
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Generator, List, Optional, Tuple

from repro.core import MusicClient, MusicConfig, build_music
from repro.errors import ReproError
from repro.live import LocalCluster, localhost_spec
from repro.live.harness import free_port_block
from repro.net import PAPER_PROFILES, Network
from repro.sim import RandomStreams, Simulator
from repro.workloads import PAPER_YCSB_WORKLOADS, READ_HEAVY_YCSB_WORKLOADS

# (name, passed, detail): a failing check fails the command.
Check = Tuple[str, bool, str]

SCALES = ("full", "tiny")

# Seed 0 of the command line maps onto these; ``--seed N`` adds N.
DEFAULT_SEEDS = {
    "contention16": 606,
    "ycsb_b_leases": 808,
    "ycsb_ur_leases": 808,
    "bigscale": 909,
    "fault_takeover": 77,
    "live_cs": 909,
}

# What one "operation" is, per workload (printed beside ops_per_s).
OP_UNITS = {
    "contention16": "critical section",
    "ycsb_b_leases": "in-CS get/put",
    "ycsb_ur_leases": "in-CS get/put",
    "bigscale": "critical section or eventual op",
    "fault_takeover": "critical section (retried until applied)",
    "live_cs": "critical section",
}

ROOT_SPAN = "music.cs"  # the root span repro.obs.critpath attributes phases under
SIM_LIMIT_MS = 1e12  # a hang safeguard, far beyond any run here
YCSB_JITTER = 0.25


@dataclass
class Iteration:
    """One run of one workload: what was done, how long it took, and
    whether the outputs were right."""

    ops: int
    attempts: int
    failed: int
    # Set-up and cpu_s are the calling thread's CPU seconds for simulated
    # workloads (they never sleep, and a thread clock ignores time spent
    # waiting for the interpreter lock); live_cs set-up is wall seconds.
    setup_s: float
    wall_s: float
    cpu_s: float
    # How long a client was active, on the workload's own clock (mean
    # over clients; simulated ms for sim workloads, wall ms for live_cs).
    # The mean, not the last finisher: one straggler on a contended key
    # would otherwise set the throughput of a thousand-op run.
    clock_ms: float
    latencies_ms: List[float]
    fingerprint: Optional[str]
    checks: List[Check]
    # Handles the traced pass reads counters from (never used untraced).
    insitu: Dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return all(ok for _name, ok, _detail in self.checks)


@contextlib.contextmanager
def gc_paused():
    """Suspend the cyclic GC inside a timed window: a generational
    collection otherwise lands in whichever event happened to trigger
    it and adds milliseconds of noise unrelated to the code under test."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
            gc.collect()


def percentile(ordered: List[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    if not ordered:
        return 0.0
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def sim_fingerprint(end_ms: float, ordered_latencies: List[float]) -> str:
    digest = hashlib.sha256(repr((end_ms, ordered_latencies)).encode())
    return digest.hexdigest()[:16]


class MessageTap:
    """Counts (and, for the codec drive, keeps) what a transport sends."""

    def __init__(self, keep: bool = False) -> None:
        self.count = 0
        self.bytes = 0
        self.messages: Optional[List[Any]] = [] if keep else None

    def __call__(self, message: Any) -> None:
        self.count += 1
        self.bytes += message.size_bytes
        if self.messages is not None:
            self.messages.append(message)


# -- simulated workloads -------------------------------------------------------


@dataclass
class SimRun:
    """A built-but-not-yet-run simulated workload."""

    deployment: Any
    processes: List[Any]
    latencies: List[float]
    verify: Callable[[], List[Check]]
    # Logical operations attempted; None = one per recorded latency.
    attempts: Optional[List[int]] = None
    extra: Dict[str, Any] = field(default_factory=dict)


def _obs_switches(traced: bool) -> Dict[str, Any]:
    # The traced pass uses only switches build_music already has.
    return {"obs": True, "profile": True} if traced else {}


def final_counter(deployment: Any, key: str) -> Any:
    """Read ``key`` under its lock (a linearized observation)."""
    sim = deployment.sim
    reader = deployment.client(deployment.profile.site_names[0])

    def read() -> Generator[Any, Any, Any]:
        section = yield from reader.critical_section(key, timeout_ms=1e9)
        value = yield from section.get()
        yield from section.exit()
        return value

    return sim.run_until_complete(sim.process(read()), limit=SIM_LIMIT_MS)


def _build_contention16(seed: int, scale: str, traced: bool) -> SimRun:
    clients_n, rounds = {"full": (16, 20), "tiny": (4, 2)}[scale]
    deployment = build_music(profile_name="lUs", seed=seed, **_obs_switches(traced))
    sim = deployment.sim
    tracer = deployment.obs.tracer
    sites = deployment.profile.site_names
    clients = [deployment.client(sites[i % len(sites)]) for i in range(clients_n)]
    latencies: List[float] = []

    def worker(client: Any) -> Generator[Any, Any, None]:
        for _ in range(rounds):
            entered = sim.now
            with tracer.span(ROOT_SPAN, node=client.client_id, site=client.site):
                section = yield from client.critical_section("hot", timeout_ms=1e9)
                value = yield from section.get()
                yield from section.put((value or 0) + 1)
                yield from section.exit()
            latencies.append(sim.now - entered)

    processes = [
        sim.process(worker(client), name=f"client-worker-{i}")
        for i, client in enumerate(clients)
    ]

    def verify() -> List[Check]:
        expected = clients_n * rounds
        value = final_counter(deployment, "hot")
        return [("final counter exact", value == expected, f"{value} of {expected}")]

    return SimRun(deployment, processes, latencies, verify)


def _build_ycsb(read_fraction: float, window_ms: Dict[str, float]):
    def build(seed: int, scale: str, traced: bool) -> SimRun:
        owners = {"full": 27, "tiny": 3}[scale]
        window = window_ms[scale]
        think_ms = 2.0
        # NetEm-style jitter (each one-way delay inflated by up to 25 %,
        # as repro.bench's fig8 does): without it an in-CS operation here
        # takes one of four latencies fixed by the RTT table, and every
        # percentile reads the same on every seed.
        sim = Simulator()
        network = Network(
            sim, PAPER_PROFILES["lUs"], streams=RandomStreams(seed),
            jitter_fraction=YCSB_JITTER,
        )
        deployment = build_music(
            profile_name="lUs", nodes_per_site=3, seed=seed, read_leases=True,
            sim=sim, network=network, **_obs_switches(traced),
        )
        tracer = deployment.obs.tracer
        sites = deployment.profile.site_names
        latencies: List[float] = []
        stale_reads = [0]

        def worker(index: int) -> Generator[Any, Any, None]:
            client = deployment.client(sites[index % len(sites)])
            rng = deployment.streams.stream(f"e2e-ycsb-{index}")
            with tracer.span(ROOT_SPAN, node=client.client_id, site=client.site):
                section = yield from client.critical_section(
                    f"owner-{index}", timeout_ms=1e9
                )
                seq = 0
                yield from section.put({"seq": seq})
                while sim.now < window:
                    began = sim.now
                    if rng.random() < read_fraction:
                        value = yield from section.get()
                        if value != {"seq": seq}:
                            stale_reads[0] += 1
                    else:
                        seq += 1
                        yield from section.put({"seq": seq})
                    latencies.append(sim.now - began)
                    yield sim.timeout(think_ms)
                yield from section.exit()

        processes = [
            sim.process(worker(index), name=f"client-worker-{index}")
            for index in range(owners)
        ]

        def verify() -> List[Check]:
            return [(
                "every in-CS read returned the owner's latest write",
                stale_reads[0] == 0, f"{stale_reads[0]} stale reads",
            )]

        return SimRun(deployment, processes, latencies, verify)

    return build


def _ycsb_mix(name: str) -> float:
    mixes = list(READ_HEAVY_YCSB_WORKLOADS) + list(PAPER_YCSB_WORKLOADS)
    return next(mix.read_fraction for mix in mixes if mix.name == name)


def _build_bigscale(seed: int, scale: str, traced: bool) -> SimRun:
    clients_n, keyspace, nodes_per_site, eventual_ops = {
        "full": (512, 65_536, 11, 8),
        "tiny": (12, 1_024, 2, 2),
    }[scale]
    deployment = build_music(
        seed=seed, nodes_per_site=nodes_per_site, audit=True, **_obs_switches(traced),
    )
    sim = deployment.sim
    tracer = deployment.obs.tracer
    sites = deployment.profile.site_names
    clients = [deployment.client(sites[i % len(sites)]) for i in range(clients_n)]
    latencies: List[float] = []

    def worker(index: int, client: Any) -> Generator[Any, Any, None]:
        rng = deployment.streams.stream(f"e2e-bigscale-{index}")
        key = f"key-{rng.randrange(keyspace)}"
        entered = sim.now
        with tracer.span(ROOT_SPAN, node=client.client_id, site=client.site):
            section = yield from client.critical_section(key, timeout_ms=1e9)
            value = yield from section.get()
            yield from section.put((value or 0) + 1)
            yield from section.exit()
        latencies.append(sim.now - entered)
        for op in range(eventual_ops):
            key = f"key-{rng.randrange(keyspace)}"
            began = sim.now
            if op % 2 == 0:
                yield from client.put(key, op)
            else:
                yield from client.get(key)
            latencies.append(sim.now - began)

    processes = [
        sim.process(worker(index, client), name=f"client-worker-{index}")
        for index, client in enumerate(clients)
    ]

    def verify() -> List[Check]:
        return [_audit_check(deployment.auditor)]

    return SimRun(deployment, processes, latencies, verify)


def _audit_check(auditor: Any) -> Check:
    violations = len(auditor.violations)
    return (
        "zero ECF auditor violations", violations == 0 and len(auditor.events) > 0,
        f"{violations} violations over {len(auditor.events)} audited events",
    )


def _stale_read_check(auditor: Any) -> Check:
    """The audit check for a run with injected faults: ECF itself — no
    lockholder's criticalGet missed the latest acknowledged write — and
    not the auditor's ordering invariants.  Those compare events in the
    order nodes report them, each at its own acknowledgement, and while
    acknowledgements are delayed by a crash or a partition a remote
    replica can act on a committed dequeue or an in-flight flag reset
    before the coordinator reports it: one seed in thirty here raises a
    SynchFlag, LockQueueFIFO or Exclusivity-at-grant flag that way, on
    histories with no stale read.  The traced pass reports the count of
    all flags as obs.audit_flags."""
    stale = sum(v.invariant == "LatestState" for v in auditor.violations)
    return (
        "no lockholder read stale state (auditor LatestState)",
        stale == 0 and len(auditor.events) > 0,
        f"{stale} stale reads, {len(auditor.violations)} auditor flags of any kind "
        f"over {len(auditor.events)} audited events",
    )


def _build_fault_takeover(seed: int, scale: str, traced: bool) -> SimRun:
    """The audited fault gauntlet of tests/integration, scaled up.

    Twelve incrementers, each homed at one site's MUSIC replica only (a
    client inside an isolated site is cut off with it), work six keys,
    the two contenders of a key at different sites; every critical
    section holds its lock for 1.5 simulated seconds, for ten 12-second
    fault cycles, so each site isolation strands the lockholders homed
    there mid-CS while their contenders wait outside the partition.
    The detectors at the other sites preempt them (forcedRelease), the
    next holder synchronizes, and the stranded client's late write is
    rejected and retried.  Anti-entropy is on: without it a replica
    that missed lock-table commits during the partition keeps serving a
    stale guard row and its clients can never mint a lockRef again.

    Two choices keep the work per operation alike from seed to seed (it
    was 40 % higher on one seed in three otherwise, because the run
    lasts until the last client is done while detectors and anti-entropy
    keep running): a client gives up waiting for a lock after 15
    simulated seconds and retries — with 60, one client whose wait began
    in the last fault cycle held the whole deployment up for a minute
    past the window; and the fault cycles end with the window, so the
    last operations finish on a quiet system.
    """
    clients_n, keys_n, cycles = {"full": (12, 6, 10), "tiny": (6, 3, 1)}[scale]
    hold_ms, cycle_ms = 1_500.0, 12_000.0
    # A fixed simulated window, not a fixed op count: the detectors,
    # anti-entropy and the fault schedule run on simulated time, so a
    # seed that strands more holders would otherwise also buy more
    # background work (ops_per_s spread 17 % across seeds, not 5 %).
    window_ms = cycles * cycle_ms
    config = MusicConfig(
        failure_detection_enabled=True,
        detector_scan_interval_ms=1_000.0,
        lease_timeout_ms=3_000.0,
        orphan_timeout_ms=3_000.0,
    )
    deployment = build_music(
        music_config=config, seed=seed, audit=True, anti_entropy=True,
        **_obs_switches(traced),
    )
    sim = deployment.sim
    tracer = deployment.obs.tracer
    sites = deployment.profile.site_names

    holder: Dict[str, Tuple[str, str]] = {}  # key -> (client id, site)
    stranded: Dict[str, Tuple[float, str]] = {}  # key -> (isolated at, client id)
    strandings = [0]
    takeovers_ms: List[float] = []

    def note_stranded(site: str) -> Callable[[], None]:
        def fire() -> None:
            for key, (client_id, home) in holder.items():
                if home == site:
                    strandings[0] += 1
                    stranded.setdefault(key, (sim.now, client_id))

        return fire

    faults = deployment.fault_schedule()
    for cycle in range(cycles):
        base = cycle * cycle_ms
        site = sites[cycle % len(sites)]
        node = f"store-{(cycle + 1) % len(sites)}-0"
        sim.call_at(base + 1_000.0, note_stranded(site))
        faults.partition_at(base + 1_000.0, site)
        faults.heal_at(base + 7_000.0)
        faults.crash_at(base + 8_000.0, node)
        faults.recover_at(base + 11_000.0, node)
    faults.arm()

    latencies: List[float] = []
    attempts = [0]

    def incrementer(index: int) -> Generator[Any, Any, None]:
        key = f"ctr-{index % keys_n}"
        # Client index + keys_n shares the key: shift its site by one, or
        # an isolated holder's only contender is cut off with it and the
        # takeover waits for the heal, not for the detector.
        site = sites[(index + index // keys_n) % len(sites)]
        client = MusicClient(
            [deployment.replica_at(site)], site, client_id=f"client-{index}",
            config=deployment.config, streams=deployment.streams,
        )
        while sim.now < window_ms:
            entered = sim.now
            applied = False
            while not applied:
                attempts[0] += 1
                try:
                    with tracer.span(ROOT_SPAN, node=client.client_id, site=site):
                        section = yield from client.critical_section(
                            key, timeout_ms=15_000.0
                        )
                        # The next grant of the key ends the stranding,
                        # whoever gets it; only another client's grant is
                        # a takeover.
                        waiting = stranded.pop(key, None)
                        if waiting is not None and waiting[1] != client.client_id:
                            takeovers_ms.append(sim.now - waiting[0])
                        holder[key] = (client.client_id, site)
                        value = yield from section.get()
                        yield sim.timeout(hold_ms)
                        yield from section.put((value or 0) + 1)
                        yield from section.exit()
                    applied = True
                except ReproError:
                    yield sim.timeout(500.0)
                finally:
                    if holder.get(key, ("", ""))[0] == client.client_id:
                        del holder[key]
            latencies.append(sim.now - entered)

    processes = [
        sim.process(incrementer(index), name=f"client-worker-{index}")
        for index in range(clients_n)
    ]
    extra = {"takeovers_ms": takeovers_ms}

    def verify() -> List[Check]:
        # Let outstanding forced releases complete; strict run() also
        # re-raises any process failure nobody observed.
        sim.run(until=sim.now + 10_000.0)
        checks = [_stale_read_check(deployment.auditor)]
        if scale == "full":
            counters = [replica.counters for replica in deployment.replicas]
            forced = sum(c["forced_releases"] for c in counters)
            syncs = sum(c["syncs"] for c in counters)
            checks.append((
                "detector, forcedRelease, synchronize and takeover paths ran",
                forced > 0 and syncs > 0 and len(takeovers_ms) > 0,
                f"{strandings[0]} holders stranded, {forced} forced releases, "
                f"{syncs} syncs, {len(takeovers_ms)} takeovers",
            ))
        return checks

    return SimRun(deployment, processes, latencies, verify, attempts, extra)


SIM_BUILDERS: Dict[str, Callable[[int, str, bool], SimRun]] = {
    "contention16": _build_contention16,
    "ycsb_b_leases": _build_ycsb(
        _ycsb_mix("B"), {"full": 4_000.0, "tiny": 200.0}
    ),
    "ycsb_ur_leases": _build_ycsb(
        _ycsb_mix("UR"), {"full": 8_000.0, "tiny": 300.0}
    ),
    "bigscale": _build_bigscale,
    "fault_takeover": _build_fault_takeover,
}


def _run_sim(name: str, seed: int, scale: str, traced: bool) -> Iteration:
    with gc_paused():
        began = time.thread_time()
        run = SIM_BUILDERS[name](seed, scale, traced)
        setup_s = time.thread_time() - began
        sim = run.deployment.sim
        insitu = dict(run.extra)
        if traced:
            tap = MessageTap()
            run.deployment.network.add_tap(tap)
            insitu.update(deployment=run.deployment, tap=tap)
        started_ms = sim.now
        active_ms: List[float] = []
        for process in run.processes:
            process.add_callback(lambda _done: active_ms.append(sim.now - started_ms))
        cpu_began = time.thread_time()
        began = time.perf_counter()
        for process in run.processes:
            sim.run_until_complete(process, limit=SIM_LIMIT_MS)
        wall_s = time.perf_counter() - began
        cpu_s = time.thread_time() - cpu_began
    end_ms = sim.now
    ordered = sorted(run.latencies)
    checks = run.verify()
    checks.append((
        "sim.swallowed_failures == 0", sim.swallowed_failures == 0,
        f"{sim.swallowed_failures} swallowed",
    ))
    ops = len(ordered)
    return Iteration(
        ops=ops, attempts=run.attempts[0] if run.attempts else ops, failed=0,
        setup_s=setup_s, wall_s=wall_s, cpu_s=cpu_s,
        clock_ms=statistics.mean(active_ms), latencies_ms=ordered,
        fingerprint=sim_fingerprint(end_ms, ordered), checks=checks, insitu=insitu,
    )


# -- the live workload -----------------------------------------------------------


async def _boot(seed: int, out_dir: Path) -> Tuple[Any, float]:
    began = time.perf_counter()
    spec = localhost_spec(
        n_nodes=3, base_port=free_port_block(3), seed=seed,
        run_dir=str(out_dir / "live-run"),
    )
    cluster = LocalCluster(spec)
    await cluster.start()
    return cluster, time.perf_counter() - began


def _run_live(seed: int, scale: str, traced: bool, out_dir: Path) -> Iteration:
    clients_n = 2
    rounds = {"full": 40, "tiny": 3}[scale]
    keys = [f"live-key-{index}" for index in range(clients_n)]

    async def main() -> Iteration:
        cluster, setup_s = await _boot(seed, out_dir)
        try:
            if traced:
                tap = MessageTap(keep=True)
                for transport in [p.transport for p in cluster.processes] + [
                    cluster.client_transport
                ]:
                    transport.add_tap(tap)
            with gc_paused():
                cpu_began = time.thread_time()
                began = time.perf_counter()
                result = await cluster.run_workload(
                    keys=keys, rounds=rounds, n_clients=clients_n, timeout_s=150.0
                )
                wall_s = time.perf_counter() - began
                cpu_s = time.thread_time() - cpu_began
            auditor = cluster.audit()
            failures = cluster.drain_failures()
            insitu: Dict[str, Any] = {}
            if traced:
                insitu = {
                    "tap": tap,
                    "spec": cluster.spec,
                    "spans": [
                        span for process in cluster.processes
                        for span in process.obs.tracer.spans
                    ],
                    "metrics": [process.obs.metrics for process in cluster.processes],
                    "acquire_ms": sorted(result.acquire_latencies_ms),
                }
        finally:
            await cluster.stop()
        expected = {key: rounds for key in keys}
        checks: List[Check] = [
            _audit_check(auditor),
            (
                "final counters exact", result.final_values == expected,
                f"{result.final_values} of {expected}",
            ),
            (
                "LocalCluster.drain_failures() empty", not failures,
                f"{len(failures)} unhandled failures",
            ),
        ]
        return Iteration(
            ops=result.completed_cs, attempts=clients_n * rounds,
            failed=result.failed_cs, setup_s=setup_s, wall_s=wall_s, cpu_s=cpu_s,
            clock_ms=result.duration_ms,
            latencies_ms=sorted(result.cs_latencies_ms), fingerprint=None,
            checks=checks, insitu=insitu,
        )

    return asyncio.run(main())


# -- the public face ---------------------------------------------------------------

WORKLOADS = tuple(DEFAULT_SEEDS)
# Run and checked like the others, but not listed in BENCHMARK.json: its
# wall-clock numbers follow this sandbox's minute-long speed phases
# (36.5 -> 25.7 CS/s over ten back-to-back runs) and, unlike a simulated
# workload's CPU seconds, cannot be scaled by a speed meter (throughput
# against metered speed: log-log slope 1.9, 1.0 and 0.6 with 2, 6 and 8
# clients).
UNGATED = ("live_cs",)


def is_live(name: str) -> bool:
    return name == "live_cs"


def run_once(
    name: str, seed_offset: int, scale: str, out_dir: Path, traced: bool = False
) -> Iteration:
    """One iteration of ``name`` at ``DEFAULT_SEEDS[name] + seed_offset``."""
    seed = DEFAULT_SEEDS[name] + seed_offset
    if is_live(name):
        return _run_live(seed, scale, traced, out_dir)
    return _run_sim(name, seed, scale, traced)


def sample_setup(name: str, seed_offset: int, scale: str, out_dir: Path) -> float:
    """Build the workload's deployment (or boot its cluster), discard it,
    and return the seconds that took — one more set-up sample."""
    seed = DEFAULT_SEEDS[name] + seed_offset
    if is_live(name):
        async def boot_and_stop() -> float:
            cluster, setup_s = await _boot(seed, out_dir)
            await cluster.stop()
            return setup_s

        return asyncio.run(boot_and_stop())
    with gc_paused():
        began = time.thread_time()
        SIM_BUILDERS[name](seed, scale, False)
        return time.thread_time() - began

