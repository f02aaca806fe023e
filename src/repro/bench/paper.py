"""The paper's own evaluation: Table II, Figs. 4-9 and Appendix X-B4.

Each scenario builds fresh deployments on a fresh simulator per grid
cell, drives the paper's workload and states the paper's qualitative
claims (who wins, by roughly what factor, where crossovers fall) as
shape checks.  Absolute numbers differ from the paper's testbed;
EXPERIMENTS.md records paper-vs-measured side by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from ..errors import NotLockHolder, ReproError
from ..net import PAPER_PROFILES, Network, Node
from ..sim import RandomStreams, Simulator
from ..workloads import PAPER_DATA_SIZES, PAPER_YCSB_WORKLOADS, SizedValue, ZipfianGenerator
from .harness import measure_throughput
from .report import summarize
from .scenario import ExperimentResult, Run, paper_scenario
from .workers import cs_latency, saturated_throughput


@paper_scenario("table2", "Latency profiles")
def table2(run: Run) -> ExperimentResult:
    """Table II: the modelled WAN RTTs, verified by simulated pings."""
    rows = []
    checks = []
    for name, profile in PAPER_PROFILES.items():
        sim = Simulator()
        network = Network(sim, profile, streams=RandomStreams(1))
        nodes = {}
        for index, site in enumerate(profile.site_names):
            node = Node(sim, network, f"probe-{index}", site)
            node.on("ping", lambda msg, n=node: n.reply(msg, "pong"))
            node.start()
            nodes[site] = node
        measured = {}

        def prober():
            sites = list(profile.site_names)
            for a_index in range(len(sites)):
                for b_index in range(a_index + 1, len(sites)):
                    src, dst = nodes[sites[a_index]], nodes[sites[b_index]]
                    start = sim.now
                    yield from src.call(dst.node_id, "ping", None)
                    measured[(sites[a_index], sites[b_index])] = sim.now - start

        sim.run_until_complete(sim.process(prober()))
        for (site_a, site_b), rtt in measured.items():
            configured = profile.rtt(site_a, site_b)
            rows.append([name, f"{site_a}-{site_b}", configured, round(rtt, 2)])
            checks.append(
                (f"{name} {site_a}-{site_b} measured ≈ Table II RTT",
                 abs(rtt - configured) < max(1.0, configured * 0.05))
            )
    return run.table(
        "Table II — WAN latency profiles (configured vs measured ping RTT)",
        ["profile", "pair", "Table II RTT (ms)", "measured (ms)"], rows, checks,
    )


# ---------------------------------------------------------------------------
# Fig. 4 — throughput microbenchmarks
# ---------------------------------------------------------------------------

# The saturation window Figs. 4 and 6 (and the elastic axis) share.
SATURATION_QUICK = {"warmup_ms": 1_500.0, "window_ms": 3_000.0}
SATURATION_FULL = {"warmup_ms": 2_000.0, "window_ms": 6_000.0}
# Cluster sizes of Fig 4(b) and of its live re-run, the elastic axis.
SCALING_SIZES_QUICK = [3, 9]
SCALING_SIZES_FULL = [3, 6, 9]


def _saturation_threads(profile_name: str, base_threads: int) -> int:
    """Threads needed to saturate: proportional to the CS latency.

    Offered load is threads / CS-latency; the CPU capacity cap is the
    same for every profile, so the low-latency l1 profile saturates with
    ~20x fewer threads than lUs (and flooding it with the lUs thread
    count only provokes a retry storm, not more throughput).
    """
    if profile_name == "l1":
        return max(16, base_threads // 10)
    return base_threads


@paper_scenario(
    "fig4a", "Throughput across profiles",
    quick={**SATURATION_QUICK, "threads": 240,
           "cassa_threads": 24, "cassa_warmup_ms": 200.0, "cassa_window_ms": 500.0},
    full={**SATURATION_FULL, "threads": 600, "cassa_threads": 64, "cassa_window_ms": 2_000.0},
)
def fig4a(run: Run) -> ExperimentResult:
    """Fig 4(a): CassaEV / MUSIC / MSCP write throughput per profile."""
    p = run.p
    profiles = list(PAPER_PROFILES)

    def measure(profile_name: str, system: str) -> float:
        if system == "CassaEV":
            return saturated_throughput(
                run, system, profile_name=profile_name, seed=41,
                threads=p["cassa_threads"], warmup_ms=p["cassa_warmup_ms"],
                window_ms=p["cassa_window_ms"],
            )
        return saturated_throughput(
            run, system, profile_name=profile_name, seed=42,
            threads=_saturation_threads(profile_name, p["threads"]),
            warmup_ms=p["warmup_ms"], window_ms=p["window_ms"],
        )

    series = run.sweep(profiles, ("CassaEV", "MUSIC", "MSCP"), measure)
    checks = []
    for index, profile_name in enumerate(profiles):
        cassa_tp = series["CassaEV"][index]
        music_tp = series["MUSIC"][index]
        mscp_tp = series["MSCP"][index]
        checks.append((f"{profile_name}: CassaEV >> MUSIC", cassa_tp > 4 * music_tp))
        checks.append(
            (f"{profile_name}: MUSIC outperforms MSCP (paper ~30%)",
             music_tp > 1.10 * mscp_tp)
        )
    return run.series(
        "Fig 4(a) — peak write throughput (op/s), batch size 1, 10 B values",
        "profile", profiles, series, "profiles", checks,
    )


@paper_scenario(
    "fig4b", "Throughput scaling 3->9 nodes",
    # Fig 4b needs a CPU-saturated regime to show scaling; with the
    # quick preset we shrink the per-node core count instead of
    # inflating the thread count (same capacity mechanism).
    quick={**SATURATION_QUICK, "threads": 400, "cores": 4, "sizes": SCALING_SIZES_QUICK},
    full={**SATURATION_FULL, "threads": 900, "cores": 8, "sizes": SCALING_SIZES_FULL},
)
def fig4b(run: Run) -> ExperimentResult:
    """Fig 4(b): scaling a sharded lUs cluster from 3 to 9 nodes."""
    p = run.p
    sizes = p["sizes"]

    def measure(node_count: int, system: str) -> float:
        return saturated_throughput(
            run, system, profile_name="lUs", nodes_per_site=node_count // 3, seed=43,
            cores=p["cores"], threads=p["threads"],
            warmup_ms=p["warmup_ms"], window_ms=p["window_ms"],
        )

    series = run.sweep(sizes, ("MUSIC", "MSCP"), measure)
    checks = [
        ("MUSIC throughput grows 3 -> max nodes",
         series["MUSIC"][-1] > 1.3 * series["MUSIC"][0]),
        ("MSCP throughput grows 3 -> max nodes",
         series["MSCP"][-1] > 1.3 * series["MSCP"][0]),
    ]
    for index, node_count in enumerate(sizes):
        checks.append(
            (f"{node_count} nodes: MUSIC outperforms MSCP",
             series["MUSIC"][index] > 1.10 * series["MSCP"][index])
        )
    return run.series(
        "Fig 4(b) — throughput scaling, lUs, RF=3 sharded (op/s)",
        "nodes", sizes, series, "sizes", checks,
    )


# ---------------------------------------------------------------------------
# Fig. 5 — latency microbenchmarks
# ---------------------------------------------------------------------------


@paper_scenario("fig5a", "Latency across profiles", quick={"samples": 12}, full={"samples": 40})
def fig5a(run: Run) -> ExperimentResult:
    """Fig 5(a): single-thread mean write latency per profile."""
    profiles = list(PAPER_PROFILES)

    def measure(profile_name: str, system: str) -> float:
        return cs_latency(run, system, profile_name=profile_name, seed=44,
                          samples=run.p["samples"]).mean

    series = run.sweep(profiles, ("CassaEV", "MUSIC", "MSCP"), measure)
    checks = []
    for index, profile_name in enumerate(profiles):
        if profile_name == "l1":
            continue
        ratio = series["MUSIC"][index] / series["MSCP"][index]
        checks.append(
            (f"{profile_name}: MUSIC ~30% lower latency than MSCP "
             f"(ratio {ratio:.2f}, paper ~0.70)", 0.55 < ratio < 0.85)
        )
    checks.append(("CassaEV latency flat across profiles (local write)",
                   max(series["CassaEV"]) < 3.0))
    return run.series(
        "Fig 5(a) — mean critical-section latency (ms), batch 1",
        "profile", profiles, series, "profiles", checks,
    )


@paper_scenario("fig5b", "Operation breakdown", quick={"samples": 12}, full={"samples": 40})
def fig5b(run: Run) -> ExperimentResult:
    """Fig 5(b): per-operation latency breakdown on lUs."""

    def measure(system: str) -> Dict[Tuple[str, str], float]:
        """Mean replica-side time per (site, operation span), read
        from the recorded ``music.*`` spans.  LWT cost depends on the
        coordinator's vantage (Oregon's nearest quorum peer is 24.2 ms
        away vs Ohio's 53.79), and the paper reports the Ohio vantage."""
        deployment = run.build(system, profile_name="lUs", seed=45, obs=True)
        sim = deployment.sim
        holder = deployment.client("Ohio")
        # MUSIC only — a queued second client: its polling exercises the
        # local peek path (the 'L' bar of Fig 5b).
        waiter = deployment.client("Oregon") if system == "MUSIC" else None

        def workload():
            for index in range(run.p["samples"]):
                key = f"bk-{index}"
                lock_ref = yield from holder.create_lock_ref(key)
                yield from holder.acquire_lock_blocking(key, lock_ref)
                if waiter is not None:
                    waiter_ref = yield from waiter.create_lock_ref(key)
                    yield sim.timeout(200.0)
                    granted = yield from waiter.acquire_lock(key, waiter_ref)
                    assert granted is False
                yield from holder.critical_put(key, lock_ref, SizedValue(10))
                yield from holder.release_lock(key, lock_ref)
                if waiter is not None:
                    try:
                        yield from waiter.release_lock(key, waiter_ref)
                    except NotLockHolder:
                        pass

        sim.run_until_complete(sim.process(workload()), limit=1e9)
        timings: Dict[Tuple[str, str], List[float]] = {}
        for span in deployment.obs.tracer.spans:
            if span.name.startswith("music."):
                timings.setdefault((span.site, span.name), []).append(span.duration_ms)
        return {site_op: sum(values) / len(values) for site_op, values in timings.items()}

    music, mscp = measure("MUSIC"), measure("MSCP")
    rows = [
        ["createLockRef (consensus)", music[("Ohio", "music.createLockRef")], "219-230"],
        # Oregon only ever polls behind Ohio: each of its acquireLock
        # spans is one ungranted local peek.
        ["acquireLock peek (L, local)", music[("Oregon", "music.acquireLock")], "~0.67"],
        ["acquireLock grant (Q)", music[("Ohio", "music.grant")], "~55"],
        ["criticalPut (Q, MUSIC)", music[("Ohio", "music.criticalPut")], "~93"],
        ["criticalPut (P, MSCP)", mscp[("Ohio", "music.criticalPut")], "~270"],
        ["releaseLock (consensus)", music[("Ohio", "music.releaseLock")], "219-230"],
    ]
    checks = [
        ("createLockRef ≈ 4 quorum RTTs (LWT)", 200 < rows[0][1] < 240),
        ("peek is local (<2ms)", rows[1][1] < 2.0),
        ("grant ≈ one quorum RTT", 45 < rows[2][1] < 70),
        ("MUSIC criticalPut ≈ one quorum RTT", 45 < rows[3][1] < 70),
        ("MSCP criticalPut ≈ 4 quorum RTTs", 200 < rows[4][1] < 300),
        ("releaseLock ≈ 4 quorum RTTs (LWT)", 200 < rows[5][1] < 240),
    ]
    return run.table(
        "Fig 5(b) — MUSIC operation latency breakdown, lUs (ms)",
        ["operation", "measured (ms)", "paper (ms)"], rows, checks,
    )


# ---------------------------------------------------------------------------
# Fig. 6 — Zookeeper comparison
# ---------------------------------------------------------------------------

FIG6_SYSTEMS = ("MUSIC", "MSCP", "Zookeeper")


@paper_scenario(
    "fig6a", "Throughput vs batch size",
    quick={**SATURATION_QUICK, "threads": 600, "batches": [10, 100]},
    full={**SATURATION_FULL, "batches": [1, 10, 100, 1000]},
)
def fig6a(run: Run) -> ExperimentResult:
    """Fig 6(a): write throughput vs critical-section batch size."""
    p = run.p
    batches = p["batches"]

    def measure(batch: int, system: str) -> float:
        warmup_ms = p["warmup_ms"]
        if system != "Zookeeper":
            # A MUSIC-shaped CS of ``batch`` puts is long: let every
            # thread finish its first one before the window opens.
            warmup_ms = max(warmup_ms, batch * 60.0 * 0.3 + 1_500.0)
        return saturated_throughput(
            run, system, profile_name="lUs", seed=46, batch=batch,
            threads=p["threads"], warmup_ms=warmup_ms, window_ms=p["window_ms"],
        )

    series = run.sweep(batches, FIG6_SYSTEMS, measure)
    checks = [
        ("MUSIC throughput grows with batch size (amortization)",
         series["MUSIC"][-1] > 1.3 * series["MUSIC"][0]),
        ("MUSIC ahead of Zookeeper at batch >= 10 (paper 1.4-2.3x)",
         all(m > z for m, z in zip(series["MUSIC"], series["Zookeeper"]))),
        ("the MUSIC/Zookeeper gap at batch >= 100 exceeds 1.2x",
         series["MUSIC"][-1] > 1.2 * series["Zookeeper"][-1]),
        ("MUSIC outperforms MSCP ~2-3.5x at large batches",
         series["MUSIC"][-1] > 1.7 * series["MSCP"][-1]),
    ]
    if 1 in batches:
        index = batches.index(1)
        checks.append(
            ("Zookeeper beats MUSIC at batch 1 (paper: ~3k vs 885)",
             series["Zookeeper"][index] > series["MUSIC"][index])
        )
    return run.series(
        "Fig 6(a) — write throughput vs batch size, lUs, 10 B (writes/s)",
        "batch", batches, series, "batches", checks,
    )


@paper_scenario(
    "fig6b", "Throughput vs data size",
    quick={**SATURATION_QUICK, "threads": 600, "sizes": ["10B", "16KB", "256KB"]},
    full={**SATURATION_FULL, "sizes": list(PAPER_DATA_SIZES)},
)
def fig6b(run: Run) -> ExperimentResult:
    """Fig 6(b): write throughput vs data size at batch 100."""
    p = run.p

    def measure(size_label: str, system: str) -> float:
        return saturated_throughput(
            run, system, profile_name="lUs", seed=47, batch=100,
            value_bytes=PAPER_DATA_SIZES[size_label], threads=p["threads"],
            warmup_ms=p["warmup_ms"] if system == "Zookeeper" else 4_000.0,
            window_ms=p["window_ms"],
        )

    series = run.sweep(p["sizes"], FIG6_SYSTEMS, measure)
    first_ratio = series["MUSIC"][0] / series["Zookeeper"][0]
    last_ratio = series["MUSIC"][-1] / series["Zookeeper"][-1]
    checks = [
        ("MUSIC beats Zookeeper at batch 100 for all sizes (paper 2.45-17x)",
         all(m > z for m, z in zip(series["MUSIC"], series["Zookeeper"]))),
        ("the gap widens with data size (leader queueing)",
         last_ratio > 2.0 * first_ratio),
        ("at 256KB the gap is large (paper ~17x; shape: >5x)",
         last_ratio > 5.0),
    ]
    return run.series(
        "Fig 6(b) — write throughput vs data size, lUs, batch 100 (writes/s)",
        "data size", p["sizes"], series, "sizes", checks,
    )


# ---------------------------------------------------------------------------
# Fig. 7 — CockroachDB comparison
# ---------------------------------------------------------------------------

FIG7_SYSTEMS = ("MUSIC", "CockroachDB")


@paper_scenario(
    "fig7a", "CS latency vs batch (Cdb)",
    quick={"batches": [10, 100], "samples": 3},
    full={"batches": [10, 100, 1000], "samples": 5},
)
def fig7a(run: Run) -> ExperimentResult:
    """Fig 7(a): critical-section latency vs batch size, MUSIC vs Cdb."""
    batches = run.p["batches"]

    def measure(batch: int, system: str) -> float:
        return cs_latency(run, system, profile_name="lUs", seed=48,
                          batch=batch, samples=run.p["samples"]).mean

    series = run.sweep(batches, FIG7_SYSTEMS, measure)
    checks = []
    for index, batch in enumerate(batches):
        ratio = series["CockroachDB"][index] / series["MUSIC"][index]
        checks.append(
            (f"batch {batch}: Cdb/MUSIC latency ratio {ratio:.1f} in ~2-5x "
             "(paper 2-4x)", 1.6 < ratio < 5.5)
        )
    return run.series(
        "Fig 7(a) — mean critical-section latency vs batch size, lUs (ms)",
        "batch", batches, series, "batches", checks,
    )


@paper_scenario(
    "fig7b", "CS latency vs data size (Cdb)",
    quick={"sizes": ["10B", "16KB", "64KB"]}, full={"sizes": ["10B", "1KB", "16KB", "64KB"]},
)
def fig7b(run: Run) -> ExperimentResult:
    """Fig 7(b): critical-section latency vs data size at batch 100."""
    sizes = run.p["sizes"]

    def measure(size_label: str, system: str) -> float:
        return cs_latency(run, system, profile_name="lUs", seed=49, batch=100,
                          value_bytes=PAPER_DATA_SIZES[size_label], samples=2).mean

    series = run.sweep(sizes, FIG7_SYSTEMS, measure)
    checks = []
    for index, size_label in enumerate(sizes):
        ratio = series["CockroachDB"][index] / series["MUSIC"][index]
        checks.append(
            (f"{size_label}: Cdb/MUSIC ratio {ratio:.1f} in ~2-5x (paper 2-4x)",
             1.6 < ratio < 5.5)
        )
    return run.series(
        "Fig 7(b) — mean CS latency vs data size, batch 100, lUs (ms)",
        "data size", sizes, series, "sizes", checks,
    )


# ---------------------------------------------------------------------------
# Fig. 8 — latency CDFs
# ---------------------------------------------------------------------------


@paper_scenario("fig8", "Latency CDFs", quick={"samples": 60}, full={"samples": 200})
def fig8(run: Run) -> ExperimentResult:
    """Fig 8: latency CDFs of MUSIC vs MSCP on l1 and lUs.

    Unlike the mean-latency runs, CDFs need per-operation variation, so
    these deployments enable the network's jitter model (a NetEm-style
    uniform inflation of each one-way delay).
    """
    samples: Dict[str, List[float]] = {}
    for profile_name in ("l1", "lUs"):
        for system in ("MUSIC", "MSCP"):
            sim = Simulator()
            network = Network(
                sim, PAPER_PROFILES[profile_name],
                streams=RandomStreams(50), jitter_fraction=0.25,
            )
            samples[f"{system}-{profile_name}"] = cs_latency(
                run, system, profile_name=profile_name, seed=50,
                sim=sim, network=network, samples=run.p["samples"],
            ).latencies_ms
    medians = {name: summarize(latencies).p50 for name, latencies in samples.items()}
    lus_ratio = medians["MUSIC-lUs"] / medians["MSCP-lUs"]
    checks = [
        ("lUs: MUSIC ~30% below MSCP at the median "
         f"(ratio {lus_ratio:.2f}, paper ~0.70)", 0.55 < lus_ratio < 0.85),
        ("l1: both well under one WAN RTT of the lUs profile",
         max(medians["MUSIC-l1"], medians["MSCP-l1"]) < 53.0),
        ("MUSIC never slower than MSCP at the median",
         medians["MUSIC-lUs"] <= medians["MSCP-lUs"]
         and medians["MUSIC-l1"] <= medians["MSCP-l1"]),
    ]
    return run.cdf("Fig 8 — critical-section latency CDFs (ms)", samples, checks,
                   data={"medians": medians})


# ---------------------------------------------------------------------------
# Fig. 9 — YCSB
# ---------------------------------------------------------------------------


def _ycsb_run(run: Run, system: str, workload: Any, seed: int) -> Dict[str, float]:
    p = run.p
    deployment = run.build(system, profile_name="lUs", seed=seed)
    sim = deployment.sim
    streams = RandomStreams(seed)
    stats = {"latency_sum": 0.0, "collisions": 0}
    sites = list(deployment.profile.site_names)

    def worker(thread_index: int, record, _record_error):
        client = deployment.client(sites[thread_index % len(sites)],
                                   f"ycsb-{thread_index}")
        # A per-worker stream: both systems' workers then draw identical
        # key/op sequences, so runs differ only in system behaviour, not
        # in which worker happened to hit the hot key.
        rng = streams.stream(f"ycsb:{workload.name}:{thread_index}")
        zipf = ZipfianGenerator(p["keys"], rng)
        while True:
            key = f"ycsb-{zipf.next()}"
            is_read = rng.random() < workload.read_fraction
            start = sim.now
            contended = False
            try:
                lock_ref = yield from client.create_lock_ref(key)
                granted = yield from client.acquire_lock(key, lock_ref)
                if not granted:
                    contended = True
                    granted = yield from client.acquire_lock_blocking(key, lock_ref)
                if is_read:
                    yield from client.critical_get(key, lock_ref)
                else:
                    yield from client.critical_put(key, lock_ref, SizedValue(10))
                yield from client.release_lock(key, lock_ref)
            except ReproError:
                continue
            if record():
                stats["latency_sum"] += sim.now - start
                if contended:
                    stats["collisions"] += 1

    result = measure_throughput(sim, worker, threads=p["threads"],
                                warmup_ms=p["warmup_ms"], window_ms=p["window_ms"])
    ops = max(result.completed, 1)
    return {
        "throughput": result.per_second,
        "mean_latency": stats["latency_sum"] / ops,
        "collision_pct": 100.0 * stats["collisions"] / ops,
    }


@paper_scenario(
    "fig9", "YCSB workloads",
    # Chosen to land near the paper's ~5.5% lock-collision regime: more
    # threads per key pile onto the Zipfian head and queueing (identical
    # in both systems) swamps the put-cost difference.
    quick={"threads": 8, "keys": 1000, "warmup_ms": 3_000.0,
           "window_ms": 15_000.0, "seeds": [51, 151]},
    full={"threads": 12, "window_ms": 25_000.0, "seeds": [51, 151, 251]},
)
def fig9(run: Run) -> ExperimentResult:
    """Fig 9: YCSB R / UR / U mixes, MUSIC vs MSCP."""

    def measure(workload: Any, system: str) -> Dict[str, float]:
        """Average a mix over several seeds: contended-lock queueing on
        hot Zipfian keys makes single runs noisy."""
        runs = [_ycsb_run(run, system, workload, seed) for seed in run.p["seeds"]]
        return {
            metric: sum(one[metric] for one in runs) / len(runs)
            for metric in runs[0]
        }

    series = run.sweep(PAPER_YCSB_WORKLOADS, ("MUSIC", "MSCP"), measure)
    rows = []
    checks = []
    for workload, music, mscp in zip(PAPER_YCSB_WORKLOADS, series["MUSIC"], series["MSCP"]):
        rows.append([
            workload.name,
            music["throughput"], mscp["throughput"],
            music["mean_latency"], mscp["mean_latency"],
            music["collision_pct"],
        ])
        if workload.read_fraction < 1.0:
            # Throughput at quick scale carries hot-key queueing noise
            # (EXPERIMENTS.md deviation D3); the sturdier per-op signal
            # is the latency check below.
            checks.append(
                (f"{workload.name}: MUSIC throughput not below MSCP "
                 "(paper +6-20%; quick-scale tolerance 10%)",
                 music["throughput"] >= 0.90 * mscp["throughput"])
            )
            checks.append(
                (f"{workload.name}: MUSIC latency not above MSCP "
                 "(paper -0-20%; quick-scale queueing noise tolerance 15%)",
                 music["mean_latency"] <= 1.15 * mscp["mean_latency"])
            )
        else:
            checks.append(
                (f"{workload.name}: read-only mix comparable across systems",
                 abs(music["throughput"] - mscp["throughput"])
                 < 0.25 * max(music["throughput"], mscp["throughput"]))
            )
    checks.append(
        ("lock collisions occur but stay modest (paper ~5.5%)",
         0.0 < max(row[5] for row in rows) < 35.0)
    )
    return run.table(
        "Fig 9 — YCSB on lUs (Zipfian keys)",
        ["mix", "MUSIC op/s", "MSCP op/s", "MUSIC ms", "MSCP ms", "collisions %"],
        rows, checks,
    )


# ---------------------------------------------------------------------------
# X-B4 — the analytic cost model
# ---------------------------------------------------------------------------


@dataclass
class CostModel:
    """The qualitative cost analysis of Appendix X-B4, in any common
    unit (e.g. ms or RTTs).

    A critical section with ``x`` state updates costs MUSIC 2 consensus
    ops (createLockRef + releaseLock), one quorum lookup of the synchFlag
    and ``x`` quorum writes → ``2C + (x+1)Q``; Spanner/CockroachDB with
    per-update exclusive transactions pay two consensus operations per
    update → ``2xC``.  With the paper's generous C ≈ Q, MUSIC's ``(3+x)C
    ≈ xC`` for large x is about half of ``2xC``: "nearly two times
    faster".
    """

    consensus: float  # C: one consensus operation
    quorum: float  # Q: one quorum operation

    def music_critical_section(self, updates: int) -> float:
        """2C + (x+1)Q."""
        if updates < 0:
            raise ValueError("updates must be non-negative")
        return 2 * self.consensus + (updates + 1) * self.quorum

    def per_update_transactions(self, updates: int) -> float:
        """2xC: each update in its own exclusive consensus transaction."""
        if updates < 0:
            raise ValueError("updates must be non-negative")
        return 2 * updates * self.consensus

    def speedup(self, updates: int) -> float:
        """How much faster MUSIC is: (2xC) / (2C + (x+1)Q)."""
        return self.per_update_transactions(updates) / self.music_critical_section(updates)

    @classmethod
    def generous(cls, cost: float = 1.0) -> "CostModel":
        """The paper's generous C == Q assumption."""
        return cls(consensus=cost, quorum=cost)


@paper_scenario("xb4", "Cost model")
def cost_model_xb4(run: Run) -> ExperimentResult:
    """X-B4: 2xC vs 2C+(x+1)Q, plus our measured per-op costs."""
    generous = CostModel.generous()
    measured = CostModel(consensus=219.0, quorum=54.5)  # our Fig 5b numbers
    rows = []
    for updates in (1, 3, 10, 100, 1000):
        rows.append([
            updates,
            generous.music_critical_section(updates),
            generous.per_update_transactions(updates),
            round(generous.speedup(updates), 2),
            round(measured.speedup(updates), 2),
        ])
    checks = [
        ("speedup approaches ~2x for large x (generous C=Q)",
         1.8 < generous.speedup(1000) < 2.0),
        ("with measured C/Q, speedup is >2x (Fig 7's 2-4x regime)",
         measured.speedup(100) > 2.0),
        ("single-update critical sections favour per-txn designs",
         generous.speedup(1) < 1.0),
    ]
    return run.table(
        "X-B4 — cost model: per-update txns (2xC) vs MUSIC (2C+(x+1)Q)",
        ["updates x", "MUSIC cost (C=Q=1)", "txn cost", "speedup (C=Q)",
         "speedup (measured C,Q)"], rows, checks,
    )
