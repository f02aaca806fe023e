"""The axes added after the paper's evaluation: durability, elastic
scaling, the contention hot path, read scale-out, the live cluster and
the transaction regimes.

Each writes a machine-readable ``benchmarks/results/BENCH_<name>.json``
next to its table; both come from the same rows.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Tuple

from ..core import MusicConfig
from ..core.replica import DATA_TABLE, VALUE_ROW
from ..errors import ReproError
from ..storage import StorageEngineConfig
from ..store import Consistency, StoreConfig
from ..txn import SerializabilityChecker
from ..workloads import READ_HEAVY_YCSB_WORKLOADS, txn_mix
from .paper import (
    SATURATION_FULL,
    SATURATION_QUICK,
    SCALING_SIZES_FULL,
    SCALING_SIZES_QUICK,
)
from .report import summarize
from .scenario import ExperimentResult, Run, scenario
from .workers import counter_increments, read_counter, run_all, site_clients


@scenario("storage_durability", "Durability modes", bench="storage", seed=404,
          quick={"samples": 12}, full={"samples": 40})
def storage_durability(run: Run) -> ExperimentResult:
    """Durability axis: criticalPut cost and crash-replay time per commit-log sync policy.

    A 1 ms simulated fsync makes the policy differences visible:
    ``always`` pays it inside every journaled replica step, ``periodic``
    moves it off the write path (a 50 ms group sync), ``off`` never
    syncs — and correspondingly has nothing to replay after a crash.
    """
    fsync_ms = 1.0
    modes = {
        "fsync-always": dict(wal_sync="always", fsync_latency_ms=fsync_ms),
        "periodic-50ms": dict(wal_sync="periodic", wal_sync_interval_ms=50.0,
                              fsync_latency_ms=fsync_ms),
        "volatile": dict(wal_sync="off"),
    }

    def measure(mode: str) -> Dict[str, Any]:
        store_config = StoreConfig(storage=StorageEngineConfig(**modes[mode]))
        deployment = run.build_music(seed=run.seed, store_config=store_config)
        sim = deployment.sim
        latencies: List[float] = []

        def workload():
            client = deployment.client("Ohio")
            cs = yield from client.critical_section("bench", timeout_ms=60_000.0)
            for index in range(run.p["samples"]):
                start = sim.now
                yield from cs.put(f"value-{index}" + "x" * 256)
                latencies.append(sim.now - start)
            yield from cs.exit()

        sim.run_until_complete(sim.process(workload()), limit=1e9)
        sim.run(until=sim.now + 200.0)  # let background syncs catch up
        victim = deployment.store.by_id["store-0-0"]
        victim.crash()
        victim.recover()
        sim.run(until=sim.now + 1_000.0)
        stats = victim.engine.stats
        summary = summarize(latencies)
        return {
            "mode": mode,
            "criticalPut_mean_ms": round(summary.mean, 4),
            "criticalPut_p95_ms": round(summary.p95, 4),
            "replay_ms": round(stats["last_replay_ms"], 4),
            "replay_bytes": stats["last_replay_bytes"],
            "lost_records": stats["lost_records"],
        }

    by_mode = {mode: measure(mode) for mode in modes}
    rows = list(by_mode.values())
    for row in rows:
        row["delta_vs_volatile_ms"] = round(
            row["criticalPut_mean_ms"] - by_mode["volatile"]["criticalPut_mean_ms"], 4
        )
    always, periodic, volatile = (
        by_mode["fsync-always"], by_mode["periodic-50ms"], by_mode["volatile"]
    )
    checks = [
        ("fsync-always charges the fsync on the criticalPut path "
         f"(delta {always['delta_vs_volatile_ms']:.2f} ms >= {fsync_ms:.0f} ms)",
         always["delta_vs_volatile_ms"] >= fsync_ms),
        ("periodic sync keeps the write path nearly free "
         f"(delta {periodic['delta_vs_volatile_ms']:.2f} ms < {fsync_ms:.0f} ms)",
         abs(periodic["delta_vs_volatile_ms"]) < fsync_ms),
        ("durable modes replay a non-empty log after the crash",
         always["replay_ms"] > 0 and always["replay_bytes"] > 0
         and periodic["replay_bytes"] > 0),
        ("the volatile mode has nothing to replay (all records lost)",
         volatile["replay_bytes"] == 0 and volatile["lost_records"] > 0),
    ]
    return run.rows(
        f"Storage durability — criticalPut latency and crash recovery "
        f"(lUs, {fsync_ms:.0f} ms fsync)",
        {"mode": "mode", "criticalPut mean (ms)": "criticalPut_mean_ms",
         "p95 (ms)": "criticalPut_p95_ms",
         "delta vs volatile (ms)": "delta_vs_volatile_ms",
         "replay (ms)": "replay_ms", "replay bytes": "replay_bytes",
         "lost records": "lost_records"},
        rows, checks,
        config={"fsync_latency_ms": fsync_ms},
        metrics={"modes": rows},
    )


@scenario(
    "elastic_scaling", "Live elastic scaling", bench="elastic", seed=431,
    # Reuses Fig 4b's sizes and saturation regime (~33 threads per core
    # at size 3) but runs one continuous growing cluster, so the quick
    # preset trims the fleet and shrinks the per-node core count instead
    # (migration and event-loop work both scale with keys x threads).
    quick={**SATURATION_QUICK, "sizes": SCALING_SIZES_QUICK,
           "threads": 100, "cores": 1, "keys": 2},
    full={**SATURATION_FULL, "sizes": SCALING_SIZES_FULL,
          "threads": 400, "cores": 4, "keys": 4},
)
def elastic_scaling(run: Run) -> ExperimentResult:
    """Elastic axis: Fig 4(b)'s 3->9 scaling as one continuous, crash-interrupted run.

    Fig 4(b) measures three separately-built static clusters; this
    experiment grows a single live lUs deployment from 3 to 9 store
    nodes with the topology plane — gossip, range streaming, dual
    writes, lock-row handover — while critical-section traffic runs the
    whole time, and crashes an original node (real state loss, commit-
    log replay) in the middle of a partition stream.  Claims: the
    migrated cluster reaches static-cluster-like scaling, no
    acknowledged write is lost, and the crash really fired.
    """
    p = run.p
    sizes = p["sizes"]
    deployment = run.build_music(
        profile_name="lUs", seed=run.seed, elastic=True, cores=p["cores"],
    )
    sim = deployment.sim
    faults = deployment.fault_schedule()
    faults.crash_mid_bootstrap("store-1-0", after_streams=3, down_ms=1_000.0)
    faults.arm()

    sites = list(deployment.profile.site_names)
    acked: Dict[str, int] = {}
    window = {"on": False, "count": 0}
    stop = {"flag": False}

    def worker(thread_index: int):
        client = deployment.client(
            sites[thread_index % len(sites)], f"es-{thread_index}"
        )
        index = 0
        while not stop["flag"]:
            key = f"es-{thread_index}-{index % p['keys']}"
            index += 1
            try:
                cs = yield from client.critical_section(key, timeout_ms=30_000.0)
                value = (yield from cs.get()) or 0
                yield from cs.put(value + 1)
                acked[key] = max(acked.get(key, 0), value + 1)
                yield from cs.exit()
                if window["on"]:
                    window["count"] += 1
            except ReproError:
                yield sim.timeout(200.0)

    throughput: Dict[int, float] = {}

    def measure_window():
        yield sim.timeout(p["warmup_ms"])
        window["count"] = 0
        window["on"] = True
        yield sim.timeout(p["window_ms"])
        window["on"] = False
        size = len(deployment.store.ring.nodes)
        throughput[size] = window["count"] / (p["window_ms"] / 1000.0)

    def driver():
        yield from measure_window()  # the static 3-node baseline
        current = sizes[0]
        for target in sizes[1:]:
            for slot in range(current // 3, target // 3):
                for site_index, site in enumerate(sites):
                    yield deployment.topology.bootstrap(
                        f"store-{site_index}-{slot}", site
                    )
            current = target
            yield from measure_window()
        stop["flag"] = True

    workers = [sim.process(worker(i), name=f"es-{i}") for i in range(p["threads"])]
    sim.run_until_complete(sim.process(driver()), limit=1e9)
    for proc in workers:
        sim.run_until_complete(proc, limit=1e9)

    # Every write a worker saw acknowledged must read back at QUORUM
    # (or have been superseded by a later locked increment — values
    # only grow, so >= is the lossless condition).
    coord = deployment.store.coordinator_for(deployment.topology.node)
    lost: List[Tuple[str, int, Any]] = []

    def verify():
        for key, high in sorted(acked.items()):
            rows = yield from coord.get(
                DATA_TABLE, key, consistency=Consistency.QUORUM
            )
            value = rows[VALUE_ROW].visible_values().get("value") if rows else None
            if value is None or value < high:
                lost.append((key, high, value))

    sim.run_until_complete(sim.process(verify()), limit=1e9)

    crash_labels = [label for _when, label in faults.log]
    crashed = any(label.startswith("crash mid-bootstrap") for label in crash_labels)
    recovered = "recover store-1-0" in crash_labels
    growth = throughput[sizes[-1]] / max(throughput[sizes[0]], 1e-9)
    checks = [
        (f"throughput grows {sizes[0]} -> {sizes[-1]} nodes under live "
         f"migration (x{growth:.2f} > 1.3)", growth > 1.3),
        (f"zero acknowledged writes lost across the joins + crash "
         f"({len(acked)} keys checked)", not lost),
        ("the mid-stream crash fired and the node replayed its log",
         crashed and recovered
         and deployment.store.by_id["store-1-0"].engine.stats["replays"] == 1),
        ("ring converged: 9 nodes, no transition left open",
         len(deployment.store.ring.nodes) == sizes[-1]
         and not deployment.store.ring.in_transition),
    ]
    return run.series(
        "Elastic scaling — one live 3->9 growth under CS traffic (op/s)",
        "nodes", sizes, {"MUSIC (live growth)": [throughput[s] for s in sizes]}, "sizes",
        checks,
        config={"sizes": sizes, "threads": p["threads"]},
        metrics={
            "throughput_per_size": {str(k): round(v, 2) for k, v in throughput.items()},
            "growth_ratio": round(growth, 3),
            "fault_log": crash_labels,
            "acked_keys": len(acked),
            "lost_acked_writes": len(lost),
        },
    )


@scenario(
    "lock_contention", "Contention hot path", bench="contention", seed=606,
    # The acceptance shape — 16 clients on one hot key — at both scales;
    # full just runs more rounds.
    quick={"clients": 16, "rounds": 3}, full={"rounds": 8},
)
def lock_contention(run: Run) -> ExperimentResult:
    """Contention axis: 16 clients on one hot key, the contention hot path off vs on.

    The hot path is mint group commit + three-round LWTs (the Paxos
    promise carries the read) + releaseLock as a quorum row delete + the
    hand-off (a grant skips its synchFlag read on the hand-off row) + push
    grants.
    Measures end-to-end critical sections per second and per-CS
    latency (createLockRef through releaseLock).  Both runs must agree
    on the final counter value — every critical section increments the
    hot key exactly once — so the speedup cannot come from dropped
    exclusivity.
    """
    n_clients, rounds = run.p["clients"], run.p["rounds"]

    def measure(mode: str, fast: bool) -> Dict[str, Any]:
        config = MusicConfig(fast_locks=fast)
        deployment = run.build_music(seed=run.seed, music_config=config)
        sim = deployment.sim
        clients = site_clients(deployment, n_clients)
        latencies: List[float] = []

        def record(started: float, _entered: float, finished: float) -> None:
            latencies.append(finished - started)

        run_all(sim, [
            counter_increments(
                sim, partial(client.critical_section, "hot", timeout_ms=1e9), rounds, record)
            for client in clients
        ])
        makespan_ms = sim.now
        final_value = sim.run_until_complete(
            sim.process(read_counter(clients[0], "hot", timeout_ms=1e9)), limit=1e10
        )
        summary = summarize(latencies)
        return {
            "mode": mode,
            "critical_sections": n_clients * rounds,
            "final_value": final_value,
            "makespan_ms": round(makespan_ms, 3),
            "cs_per_sec": round(n_clients * rounds / makespan_ms * 1000.0, 4),
            "cs_latency_mean_ms": round(summary.mean, 3),
            "cs_latency_p50_ms": round(summary.p50, 3),
            "cs_latency_p99_ms": round(summary.p99, 3),
        }

    off, on = measure("hot-path-off", False), measure("hot-path-on", True)
    speedup = on["cs_per_sec"] / off["cs_per_sec"]
    expected = n_clients * rounds
    checks = [
        (
            "both modes serialized every increment "
            f"(final value {off['final_value']}/{on['final_value']} == {expected})",
            off["final_value"] == expected and on["final_value"] == expected,
        ),
        (
            f"hot path sustains >= 2x critical sections/sec ({speedup:.2f}x)",
            speedup >= 2.0,
        ),
        (
            "hot path lowers p99 CS latency "
            f"({on['cs_latency_p99_ms']:.0f} < {off['cs_latency_p99_ms']:.0f} ms)",
            on["cs_latency_p99_ms"] < off["cs_latency_p99_ms"],
        ),
    ]
    return run.rows(
        f"Lock contention — {n_clients} clients, 1 hot key (lUs)",
        {"mode": "mode", "CS/sec": "cs_per_sec", "mean (ms)": "cs_latency_mean_ms",
         "p50 (ms)": "cs_latency_p50_ms", "p99 (ms)": "cs_latency_p99_ms",
         "makespan (ms)": "makespan_ms"},
        [off, on], checks,
        config={"clients": n_clients, "rounds_per_client": rounds, "hot_keys": 1},
        metrics={"speedup_cs_per_sec": round(speedup, 3), "modes": [off, on]},
    )


@scenario(
    "read_scaleout", "Read scale-out leases", bench="leases", seed=808,
    quick={"workers": 9, "think_ms": 2.0, "warmup_ms": 1_000.0, "window_ms": 4_000.0},
    full={"workers": 12, "window_ms": 10_000.0},
)
def read_scaleout(run: Run) -> ExperimentResult:
    """Read scale-out axis (DESIGN.md §8): leaseholder local reads off vs on, 9 store nodes.

    One long-lived lockholder per key (the portal ownership pattern)
    runs a YCSB-B read-heavy mix inside its critical section; reads go
    through ``critical_get`` so the baseline pays a WAN quorum round per
    read while the lease tier serves from the local mirror inside the
    audited ECF window.  Both modes run with the runtime auditor
    attached.
    """
    p = run.p
    warmup_ms, window_ms = p["warmup_ms"], p["window_ms"]
    end_ms = warmup_ms + window_ms
    mix = next(w for w in READ_HEAVY_YCSB_WORKLOADS if w.name == "B")

    def measure(mode: str, leases: bool) -> Dict[str, Any]:
        deployment = run.build_music(
            profile_name="lUs", nodes_per_site=3, seed=run.seed,
            read_leases=leases, audit=True,
        )
        sim = deployment.sim
        sites = deployment.profile.site_names
        read_lat: List[float] = []
        counts = {"reads": 0, "writes": 0}

        def worker(index: int):
            client = deployment.client(sites[index % len(sites)])
            key = f"owner-{index}"
            rng = deployment.streams.stream(f"leases-worker-{index}")
            cs = yield from client.critical_section(key, timeout_ms=1e9)
            seq = 0
            yield from cs.put({"seq": seq})
            while sim.now < end_ms:
                if rng.random() < mix.read_fraction:
                    started = sim.now
                    yield from cs.get()
                    if started >= warmup_ms and sim.now <= end_ms:
                        read_lat.append(sim.now - started)
                        counts["reads"] += 1
                else:
                    seq += 1
                    started = sim.now
                    yield from cs.put({"seq": seq})
                    if started >= warmup_ms and sim.now <= end_ms:
                        counts["writes"] += 1
                yield sim.timeout(p["think_ms"])
            yield from cs.exit()

        run_all(sim, [worker(index) for index in range(p["workers"])])
        summary = summarize(read_lat)
        hits = sum(r.counters["lease_hits"] for r in deployment.replicas)
        misses = sum(r.counters["lease_misses"] for r in deployment.replicas)
        local = hits / (hits + misses) if hits + misses else 0.0
        auditor = deployment.auditor
        return {
            "mode": mode,
            "store_nodes": 3 * len(sites),
            "reads": counts["reads"],
            "writes": counts["writes"],
            "reads_per_sec": round(counts["reads"] / window_ms * 1000.0, 2),
            "read_p50_ms": round(summary.p50, 4),
            "read_p99_ms": round(summary.p99, 4),
            "local_read_hit_rate": round(local, 4),
            "audit_clean": auditor.clean,
            "audit_events": len(auditor.events),
        }

    off, on = measure("quorum-baseline", False), measure("read-leases-on", True)
    thr_ratio = on["reads_per_sec"] / off["reads_per_sec"] if off["reads_per_sec"] else 0.0
    checks = [
        (
            f"leaseholder reads sustain >= 3x read throughput ({thr_ratio:.2f}x)",
            thr_ratio >= 3.0,
        ),
        (
            "leaseholder reads cut read p99 by >= 2x "
            f"({on['read_p99_ms']:.2f} vs {off['read_p99_ms']:.2f} ms)",
            on["read_p99_ms"] * 2.0 <= off["read_p99_ms"],
        ),
        (
            f"local-read hit rate >= 80% ({on['local_read_hit_rate']:.1%})",
            on["local_read_hit_rate"] >= 0.80,
        ),
        (
            "ECF audit clean in both modes (incl. LeaseSafety/MonotonicReads)",
            off["audit_clean"] and on["audit_clean"],
        ),
    ]
    return run.rows(
        f"Read scale-out — {p['workers']} owners, YCSB-{mix.name} "
        f"({mix.read_fraction:.0%} reads), 9 store nodes (lUs)",
        {"mode": "mode", "reads/sec": "reads_per_sec", "p50 (ms)": "read_p50_ms",
         "p99 (ms)": "read_p99_ms",
         "local hits": lambda row: f"{row['local_read_hit_rate']:.1%}",
         "audit": lambda row: "clean" if row["audit_clean"] else "VIOLATIONS"},
        [off, on], checks,
        config={
            "workers": p["workers"],
            "mix": {"name": mix.name, "read_fraction": mix.read_fraction},
            "think_ms": p["think_ms"], "window_ms": window_ms,
        },
        metrics={"read_throughput_ratio": round(thr_ratio, 3), "modes": [off, on]},
    )


@scenario(
    "live_localcluster", "Live localhost cluster", bench="live", seed=909,
    # 4 x 50 = 200 critical sections — the acceptance floor — at both
    # scales; full doubles the client count.
    quick={"clients": 4, "rounds": 50, "keys": 2}, full={"clients": 8, "keys": 4},
)
def live_localcluster(run: Run) -> ExperimentResult:
    """Live-mode axis: the MUSIC protocol over real asyncio sockets, wall clock.

    Boots a 3-node localhost cluster (one OS process per node via
    ``python -m repro.live node``), drives the counter CS workload from
    this process over real TCP, SIGTERMs the nodes, then merges every
    node's audit slice and replays the full ECF checkers offline.

    Unlike the DES axes this measures *wall-clock* throughput and
    latency — numbers that move with the host machine — so the shape
    checks pin correctness (>= 200 critical sections, zero violations,
    exact final counters, clean exits), not speed.
    """
    from ..live.harness import run_localcluster

    p = run.p
    summary = run_localcluster(
        n_nodes=3, n_clients=p["clients"],
        keys=[f"live-key-{i}" for i in range(p["keys"])], rounds=p["rounds"],
        seed=run.seed, run_dir="live-runs/bench", timeout_s=300.0,
    )
    metrics = summary["metrics"]
    completed = int(metrics["completed_cs"])
    checks = [
        (
            f"live cluster completed >= 200 critical sections ({completed})",
            completed >= 200 and completed == p["clients"] * p["rounds"],
        ),
        (
            "merged audit replay is clean "
            f"({summary['audited_events']} events, "
            f"{len(summary['violations'])} violations)",
            summary["audited_events"] > 0 and not summary["violations"],
        ),
        (
            "every increment serialized (final counters exact)",
            summary["final_values"] == summary["expected_values"],
        ),
        (
            f"all nodes drained and exited 0 on SIGTERM ({summary['exit_codes']})",
            all(code == 0 for code in summary["exit_codes"]),
        ),
        (
            f"no client-visible failures ({int(metrics['failed_cs'])})",
            metrics["failed_cs"] == 0,
        ),
    ]
    return run.table(
        f"Live localhost cluster — 3 nodes, {p['clients']} clients, "
        f"{p['keys']} keys (asyncio TCP, wall clock)",
        ["CS done", "CS/sec", "CS p50 (ms)", "CS p99 (ms)",
         "acq p50 (ms)", "acq p99 (ms)", "audit"],
        [[completed, round(metrics["cs_per_sec"], 1),
          round(metrics["cs_p50_ms"], 2), round(metrics["cs_p99_ms"], 2),
          round(metrics["acquire_p50_ms"], 2), round(metrics["acquire_p99_ms"], 2),
          "clean" if not summary["violations"] else "VIOLATIONS"]], checks,
        config={
            "nodes": 3, "clients": p["clients"], "rounds_per_client": p["rounds"],
            "keys": p["keys"], "transport": "asyncio-tcp", "clock": "wall",
        },
        metrics=metrics,
    )


@scenario(
    "txn_regimes", "Concurrency-control regimes", bench="txn", seed=909,
    # Three engines x three Zipfian contention levels over a small key
    # population (2-4 keys/txn).
    quick={"clients": 8, "per_client": 6, "keys": 24, "thetas": [0.1, 0.7, 0.99]},
    full={"clients": 16, "per_client": 10},
)
def txn_regimes(run: Run) -> ExperimentResult:
    """Txn-regime axis (DESIGN.md §9): MUSIC locks vs epoch OCC vs SSI under Zipfian contention.

    Each engine x contention cell runs the *same* seeded ``txn_mix``
    workload (2-4 keys per transaction, half read-only keys, integer
    read-modify-write on the rest) on a fresh deployment, through the
    retrying :class:`~repro.txn.api.TransactionExecutor`.  Every cell's
    committed history must pass the
    :class:`~repro.txn.SerializabilityChecker` — regimes are compared on
    checked histories — and the store's final cell (value, stamp) must
    match the last committed write of each key's version chain.  The
    headline is the commits/sec crossover table.
    """
    p = run.p
    thetas = p["thetas"]
    engines = ["locking", "occ", "ssi"]

    def measure(engine_name: str, theta: float) -> Dict[str, Any]:
        deployment = run.build_music(seed=run.seed)
        sim = deployment.sim
        sites = deployment.profile.site_names
        engine = deployment.txn.engine(engine_name)
        mix = txn_mix((2, 4), read_fraction=0.5, zipf_theta=theta)
        spec_rng = deployment.streams.stream("txn-bench-specs")
        results: List[Any] = []

        def worker(client, specs):
            executor = deployment.txn.executor(engine, client=client)
            for spec in specs:
                result = yield from executor.run(spec)
                results.append(result)

        workers = []
        for index in range(p["clients"]):
            client = deployment.client(sites[index % len(sites)])
            specs = list(mix.transactions(p["per_client"], p["keys"], spec_rng))
            workers.append(worker(client, specs))
        run_all(sim, workers)
        makespan_ms = sim.now
        engine.stop()

        committed = [r for r in results if r.committed]
        attempts = sum(r.attempts for r in results)
        aborts = sum(r.aborts for r in results)
        latencies = [r.latency_ms for r in committed]
        violations = SerializabilityChecker().check(engine.committed)

        # Store consistency: the final stored (value, stamp) of every
        # key must equal the last committed write of its version chain.
        last_writes: Dict[str, Any] = {}
        for record in sorted(engine.committed, key=lambda r: r.commit_seq):
            last_writes.update(record.writes)
        mismatches: List[str] = []

        def read_back():
            client = deployment.client(sites[0])
            for key, stamp in last_writes.items():
                _value, stored = yield from client.txn_read(key)
                if stored != stamp:
                    mismatches.append(key)

        sim.run_until_complete(sim.process(read_back()), limit=1e10)
        summary = summarize(latencies) if latencies else None
        return {
            "engine": engine_name,
            "zipf_theta": theta,
            "transactions": len(results),
            "committed": len(committed),
            "failed": len(results) - len(committed),
            "attempts": attempts,
            "aborts": aborts,
            "abort_rate": round(aborts / attempts, 4) if attempts else 0.0,
            "makespan_ms": round(makespan_ms, 3),
            "commits_per_sec": round(
                len(committed) / makespan_ms * 1000.0, 4
            ) if makespan_ms else 0.0,
            "commit_latency_p50_ms": round(summary.p50, 3) if summary else None,
            "commit_latency_p99_ms": round(summary.p99, 3) if summary else None,
            "serializability_violations": len(violations),
            "store_mismatches": len(mismatches),
        }

    by_cell = {(engine, theta): measure(engine, theta)
               for engine in engines for theta in thetas}
    cells = list(by_cell.values())
    winners = {
        theta: max(engines, key=lambda e: by_cell[(e, theta)]["commits_per_sec"])
        for theta in thetas
    }
    checks = [
        (
            "every engine x contention cell passes the serializability "
            "checker",
            all(cell["serializability_violations"] == 0 for cell in cells),
        ),
        (
            "every transaction eventually committed (bounded retry "
            "sufficed)",
            all(cell["failed"] == 0 for cell in cells),
        ),
        (
            "store final state matches each key's last committed write",
            all(cell["store_mismatches"] == 0 for cell in cells),
        ),
        (
            "contention costs throughput: every engine is slower at "
            f"theta={thetas[-1]} than at theta={thetas[0]}",
            all(
                by_cell[(e, thetas[-1])]["commits_per_sec"]
                < by_cell[(e, thetas[0])]["commits_per_sec"]
                for e in engines
            ),
        ),
    ]
    result = run.rows(
        f"Transaction regimes — {p['clients']} clients, {p['keys']} keys, "
        "2-4 keys/txn (lUs)",
        {"engine": "engine", "theta": "zipf_theta", "commits/sec": "commits_per_sec",
         "abort rate": "abort_rate", "p50 (ms)": "commit_latency_p50_ms",
         "p99 (ms)": "commit_latency_p99_ms",
         "serializable": lambda cell: (
             "yes" if cell["serializability_violations"] == 0 else "NO")},
        cells, checks,
        config={
            "clients": p["clients"], "txns_per_client": p["per_client"],
            "keys": p["keys"], "keys_per_txn": [2, 4], "read_fraction": 0.5,
            "zipf_thetas": thetas, "engines": engines,
        },
        metrics={"cells": cells, "winners_by_theta": {
            str(theta): engine for theta, engine in winners.items()
        }},
    )
    result.text += "\nwinner by contention level: " + ", ".join(
        f"theta={theta}: {winners[theta]}" for theta in thetas
    )
    return result
