"""Elastic-scaling acceptance run for the topology plane (ISSUE 4).

One continuous seeded scenario: a 3-node lUs cluster grows to 9 nodes —
six sequential live bootstraps, two per site — while three clients (one
per site) run critical sections against a shared keyspace the whole
time, and one original node crashes with real state loss in the middle
of a partition stream, recovering via commit-log replay.

The claims:

1. **Zero lost acked writes.**  Every criticalPut the clients saw
   acknowledged is visible (or superseded by a later locked increment)
   after the growth completes — the dual-write window, the handover
   flips, and the mid-stream crash never un-acknowledge anything.
2. The run **audits clean**: the runtime ECF auditor watched every lock
   grant and critical put across all six topology transitions and found
   no Exclusivity / Latest-State / FIFO violation.
3. The cluster **converges**: the ring reaches 9 nodes with no
   transition left open, every gossiper agrees on the 9-member view with
   all statuses NORMAL, and the crash/recover really happened (engine
   stats show one crash and one non-empty replay).
"""

import os

from repro import build_music
from repro.errors import ReproError
from repro.obs import write_audit_jsonl
from repro.storage import dump_wal_jsonl
from repro.topo import STATUS_NORMAL

# CI sets these to directories: a red build uploads the audit history
# and each replica's commit log for offline inspection.
AUDIT_ARTIFACT_DIR = os.environ.get("REPRO_AUDIT_ARTIFACT_DIR")
WAL_ARTIFACT_DIR = os.environ.get("REPRO_STORAGE_ARTIFACT_DIR")

KEYS = [f"es-k{index}" for index in range(6)]
JOINERS = [
    ("store-0-1", "Ohio"),
    ("store-1-1", "N.California"),
    ("store-2-1", "Oregon"),
    ("store-0-2", "Ohio"),
    ("store-1-2", "N.California"),
    ("store-2-2", "Oregon"),
]
CRASH_NODE = "store-1-0"  # an original owner: a stream *source* dies


def _dump_artifacts(music, tag):
    if AUDIT_ARTIFACT_DIR:
        os.makedirs(AUDIT_ARTIFACT_DIR, exist_ok=True)
        write_audit_jsonl(
            music.auditor, os.path.join(AUDIT_ARTIFACT_DIR, f"{tag}.jsonl")
        )
    if WAL_ARTIFACT_DIR:
        os.makedirs(WAL_ARTIFACT_DIR, exist_ok=True)
        for replica in music.store.replicas:
            dump_wal_jsonl(
                replica.engine,
                os.path.join(WAL_ARTIFACT_DIR, f"{tag}_{replica.node_id}.jsonl"),
            )


def _growth_run(seed=29):
    # obs=True: the tests read the topology plane's own metrics.
    music = build_music(elastic=True, obs=True, audit=True, seed=seed)
    sim = music.sim
    faults = music.fault_schedule()
    faults.crash_mid_bootstrap(CRASH_NODE, after_streams=2, down_ms=1_500.0)
    faults.arm()

    acked = {}  # key -> highest value a client saw acknowledged
    stop = {"flag": False}

    def worker(site):
        client = music.client(site, f"es-{site}")
        index = 0
        while not stop["flag"]:
            key = KEYS[index % len(KEYS)]
            index += 1
            try:
                cs = yield from client.critical_section(key, timeout_ms=20_000.0)
                value = (yield from cs.get()) or 0
                yield from cs.put(value + 1)
                # The put returned: the write is acknowledged, and from
                # here on losing it is a safety violation.
                acked[key] = max(acked.get(key, 0), value + 1)
                yield from cs.exit()
            except ReproError:
                yield sim.timeout(500.0)

    def growth():
        yield sim.timeout(3_000.0)  # steady-state traffic first
        for node_id, site in JOINERS:
            yield music.topology.bootstrap(node_id, site)
            yield sim.timeout(1_000.0)  # breathe between joins
        yield sim.timeout(15_000.0)  # gossip converges at full size
        stop["flag"] = True

    workers = [
        sim.process(worker(site), name=f"es-{site}")
        for site in music.profile.site_names
    ]
    driver = sim.process(growth())
    sim.run_until_complete(driver, limit=3e6)
    for proc in workers:
        sim.run_until_complete(proc, limit=3e6)

    def final_reads():
        client = music.client("Ohio", "es-final")
        values = {}
        for key in KEYS:
            cs = yield from client.critical_section(key, timeout_ms=60_000.0)
            values[key] = (yield from cs.get()) or 0
            yield from cs.exit()
        return values

    finals = sim.run_until_complete(sim.process(final_reads()), limit=3e6)
    _dump_artifacts(music, f"elastic_scaling_seed{seed}")
    return music, faults, acked, finals


_RUN_CACHE = {}


def _run(seed=29):
    if seed not in _RUN_CACHE:
        _RUN_CACHE[seed] = _growth_run(seed)
    return _RUN_CACHE[seed]


def test_growth_under_traffic_loses_no_acked_writes():
    music, _faults, acked, finals = _run()
    assert acked, "the workers never completed a critical section"
    # Each key is a locked counter: the final value can only exceed the
    # highest acked value (an applied-but-unacked put retried into a
    # higher increment), never fall below it.
    for key in KEYS:
        assert finals[key] >= acked.get(key, 0), (
            f"{key}: acked {acked.get(key)} but read back {finals[key]} — "
            "an acknowledged write vanished during the growth"
        )


def test_growth_run_audits_clean_through_crash():
    music, faults, _acked, _finals = _run()
    labels = [label for _when, label in faults.log]
    assert any(label.startswith(f"crash mid-bootstrap {CRASH_NODE}")
               for label in labels), labels
    assert f"recover {CRASH_NODE}" in labels
    # The crash really lost state and really replayed the commit log.
    stats = music.store.by_id[CRASH_NODE].engine.stats
    assert stats["crashes"] == 1
    assert stats["replays"] == 1
    assert stats["last_replay_bytes"] > 0
    assert music.auditor.clean, music.auditor.render_report()


def test_cluster_converges_to_nine_nodes():
    music, _faults, _acked, _finals = _run()
    assert len(music.store.ring.nodes) == 9
    assert not music.store.ring.in_transition
    members = {replica.node_id for replica in music.store.replicas}
    assert len(members) == 9
    for gossiper in music.topology.gossipers.values():
        assert set(gossiper.states) == members
        assert all(state.status == STATUS_NORMAL
                   for state in gossiper.states.values())
    # The topology plane accounted for its own work.
    counters = music.obs.metrics.snapshot()["counters"]
    streamed = sum(entry["value"] for entry in counters
                   if entry["name"] == "topo.streams")
    stream_bytes = sum(entry["value"] for entry in counters
                       if entry["name"] == "topo.stream.bytes")
    assert streamed > 0
    assert stream_bytes > 0
