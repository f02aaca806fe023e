"""Tests for the benchmark workload drivers."""

from repro.bench.harness import measure_throughput
from repro.bench.workers import (
    cassa_ev_worker,
    cockroach_cs_operation,
    music_cs_operation,
    music_worker,
    zookeeper_worker,
)
from repro.core import build_music


def test_music_worker_records_once_per_put():
    music = build_music(seed=61)
    result = measure_throughput(
        music.sim,
        lambda i, rec, err: music_worker(music, i, rec, err, batch=5),
        threads=3, warmup_ms=500.0, window_ms=3_000.0,
    )
    assert result.errors == 0
    assert result.completed > 0
    # With batch 5, completions arrive in runs of 5 per critical section.
    # Bound by the fastest-possible CS (Oregon's nearest peer is 24.2 ms
    # RTT: LWTs ~100 ms, puts ~25 ms -> CS >= ~230 ms).
    fastest_cs_ms = 230.0
    max_cs_per_thread = 3_500.0 / fastest_cs_ms + 1
    assert result.completed <= 3 * max_cs_per_thread * 5


def test_cassa_ev_worker_is_fast_and_error_free():
    music = build_music(seed=62)
    result = measure_throughput(
        music.sim,
        lambda i, rec, err: cassa_ev_worker(music, i, rec, err),
        threads=4, warmup_ms=100.0, window_ms=400.0,
    )
    assert result.errors == 0
    # Local eventual writes: thousands per second even from 4 threads.
    assert result.per_second > 1_000


def test_zookeeper_worker_drives_the_ensemble():
    from repro.baselines.zookeeper import build_zookeeper
    from repro.net import PROFILE_LUS, Network
    from repro.sim import RandomStreams, Simulator

    sim = Simulator()
    network = Network(sim, PROFILE_LUS, streams=RandomStreams(63))
    servers = build_zookeeper(sim, network, list(PROFILE_LUS.site_names))
    result = measure_throughput(
        sim,
        lambda i, rec, err: zookeeper_worker(servers, i, rec, err, batch=3),
        threads=3, warmup_ms=1_000.0, window_ms=3_000.0,
    )
    assert result.errors == 0
    assert result.completed > 0
    assert servers[0].counters["applied"] > 0  # writes flowed through Zab


def test_latency_operation_factories_produce_fresh_keys():
    music = build_music(seed=64)
    operation = music_cs_operation(music, batch=1)

    def probe():
        yield from operation(0)
        yield from operation(1)

    music.sim.run_until_complete(music.sim.process(probe()), limit=1e9)
    # Two different keys were written (no lock contention between samples).
    replica = music.store.replicas[0]
    assert replica.local_row("music_data", "lat-0", None) is not None
    assert replica.local_row("music_data", "lat-1", None) is not None


def test_cockroach_operation_factory_round_trips():
    from repro.baselines.cockroach import build_cockroach
    from repro.net import PROFILE_LUS, Network
    from repro.sim import RandomStreams, Simulator

    sim = Simulator()
    network = Network(sim, PROFILE_LUS, streams=RandomStreams(65))
    nodes = build_cockroach(sim, network, list(PROFILE_LUS.site_names))
    operation = cockroach_cs_operation(nodes, batch=2)

    def probe():
        yield from operation(0)

    sim.run_until_complete(sim.process(probe()), limit=1e9)
    assert nodes[0].committed.get("crdb-lat-data-0") is not None
