"""End-to-end soak: every layer together under injected faults.

A 9-node sharded store, MUSIC replicas with failure detection, library
and remote clients, recipes, multi-key sections and a flapping WAN link
— all at once, with global invariants checked at the end.  This is the
"would a downstream user's composite workload survive" test.
"""

import pytest

from repro.core import MusicConfig, build_music
from repro.core.multikey import enter_multi
from repro.errors import ReproError
from repro.faults import FaultSchedule, flaky_link_profile
from repro.recipes import AtomicCounter, AtomicQueue


@pytest.fixture(scope="module")
def soak_result():
    config = MusicConfig(
        failure_detection_enabled=True,
        detector_scan_interval_ms=2_000.0,
        lease_timeout_ms=8_000.0,
        orphan_timeout_ms=8_000.0,
    )
    music = build_music(nodes_per_site=3, music_config=config, seed=202,
                        anti_entropy=True)
    sim = music.sim

    faults = FaultSchedule(sim, music.network)
    flaky_link_profile(faults, "Ohio", "Oregon", start=5_000.0, end=40_000.0,
                       period=8_000.0, duty=0.3)
    faults.crash_at(12_000.0, "store-1-1")
    faults.recover_at(25_000.0, "store-1-1")
    faults.arm()

    stats = {
        "counter_increments": 0,
        "queue_produced": 0,
        "queue_consumed": [],
        "transfers": 0,
        "remote_writes": 0,
        "errors": 0,
    }

    def resilient(op_generator_factory, repeats, on_success):
        def loop():
            done = 0
            while done < repeats:
                try:
                    result = yield from op_generator_factory()
                    on_success(result)
                    done += 1
                except ReproError:
                    stats["errors"] += 1
                    yield sim.timeout(400.0)

        return loop

    # 1. Counter increments from every site (library clients).
    def make_counter_worker(site):
        counter = AtomicCounter(music.client(site), "soak")

        def op():
            value = yield from counter.increment()
            return value

        return resilient(op, 3,
                         lambda _v: stats.__setitem__(
                             "counter_increments", stats["counter_increments"] + 1))

    # 2. A producer/consumer queue spanning sites.
    producer_queue = AtomicQueue(music.client("Ohio"), "soak-work")

    def producer_op():
        length = yield from producer_queue.enqueue(stats["queue_produced"])
        return length

    def consumer_loop():
        queue = AtomicQueue(music.client("Oregon"), "soak-work")
        empty_streak = 0
        while empty_streak < 12:
            try:
                ok, item = yield from queue.dequeue()
            except ReproError:
                stats["errors"] += 1
                yield sim.timeout(500.0)
                continue
            if ok:
                stats["queue_consumed"].append(item)
                empty_streak = 0
            else:
                empty_streak += 1
                yield sim.timeout(800.0)

    # 3. Multi-key transfers preserving a conserved sum.
    def transfer_op_factory(site):
        client = music.client(site)

        def op():
            cs = yield from enter_multi(client, ["acct-a", "acct-b"], timeout_ms=60_000.0)
            values = yield from cs.get_all()
            a = values["acct-a"] if values["acct-a"] is not None else 100
            b = values["acct-b"] if values["acct-b"] is not None else 100
            yield from cs.put_all({"acct-a": a - 5, "acct-b": b + 5})
            yield from cs.exit()
            return a + b

        return op

    # 4. A remote (REST-mode) client writing its own keys.
    remote = music.service_client("N.California", client_id="soak-app")

    def remote_op():
        key = f"remote-{stats['remote_writes']}"
        ref = yield from remote.create_lock_ref(key)
        granted = yield from remote.acquire_lock_blocking(key, ref, timeout_ms=60_000.0)
        assert granted
        yield from remote.critical_put(key, ref, {"n": stats["remote_writes"]})
        yield from remote.release_lock(key, ref)
        return key

    procs = []
    for site in music.profile.site_names:
        procs.append(sim.process(make_counter_worker(site)(), name=f"ctr-{site}"))
        procs.append(sim.process(
            resilient(transfer_op_factory(site), 2,
                      lambda _s: stats.__setitem__("transfers", stats["transfers"] + 1))(),
            name=f"xfer-{site}"))
    procs.append(sim.process(
        resilient(producer_op, 5,
                  lambda _l: stats.__setitem__("queue_produced",
                                               stats["queue_produced"] + 1))(),
        name="producer"))
    procs.append(sim.process(consumer_loop(), name="consumer"))
    procs.append(sim.process(
        resilient(remote_op, 4,
                  lambda _k: stats.__setitem__("remote_writes",
                                               stats["remote_writes"] + 1))(),
        name="remote"))

    for proc in procs:
        sim.run_until_complete(proc, limit=5e8)

    return music, stats


def test_soak_all_workloads_completed(soak_result):
    _music, stats = soak_result
    assert stats["counter_increments"] == 9
    assert stats["queue_produced"] == 5
    assert stats["transfers"] == 6
    assert stats["remote_writes"] == 4


def test_soak_counter_lost_nothing(soak_result):
    music, _stats = soak_result
    counter = AtomicCounter(music.client("Ohio"), "soak")

    def check():
        value = yield from counter.get()
        return value

    final = music.sim.run_until_complete(music.sim.process(check()), limit=5e8)
    assert final == 9


def test_soak_queue_exactly_once(soak_result):
    _music, stats = soak_result
    consumed = stats["queue_consumed"]
    assert sorted(consumed) == [0, 1, 2, 3, 4]
    assert len(consumed) == len(set(consumed))


def test_soak_transfers_conserved_sum(soak_result):
    music, _stats = soak_result
    client = music.client("N.California")

    def check():
        cs = yield from enter_multi(client, ["acct-a", "acct-b"], timeout_ms=60_000.0)
        values = yield from cs.get_all()
        yield from cs.exit()
        return values

    values = music.sim.run_until_complete(music.sim.process(check()), limit=5e8)
    assert values["acct-a"] + values["acct-b"] == 200
    assert values["acct-a"] == 100 - 5 * 6


def test_soak_remote_writes_durable(soak_result):
    music, stats = soak_result
    client = music.client("Ohio")

    def check():
        results = []
        for index in range(stats["remote_writes"]):
            cs = yield from client.critical_section(f"remote-{index}",
                                                    timeout_ms=60_000.0)
            value = yield from cs.get()
            yield from cs.exit()
            results.append(value)
        return results

    results = music.sim.run_until_complete(music.sim.process(check()), limit=5e8)
    assert results == [{"n": i} for i in range(4)]
