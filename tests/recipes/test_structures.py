"""Tests for the atomic data-structure recipes."""

from repro.core import MusicConfig, build_music
from repro.recipes import AtomicCounter, AtomicMap, AtomicQueue, LeaderElection


def run(music, generator, limit=1e9):
    return music.sim.run_until_complete(music.sim.process(generator), limit=limit)


class TestAtomicCounter:
    def test_add_and_get(self):
        music = build_music()
        counter = AtomicCounter(music.client("Ohio"), "c")

        def task():
            yield from counter.add(5)
            value = yield from counter.increment()
            final = yield from counter.get()
            return value, final

        assert run(music, task()) == (6, 6)

    def test_concurrent_increments_lose_nothing(self):
        music = build_music()

        def incrementer(site):
            counter = AtomicCounter(music.client(site), "shared")
            for _ in range(3):
                yield from counter.increment()

        procs = [music.sim.process(incrementer(s))
                 for s in ("Ohio", "N.California", "Oregon")]
        for proc in procs:
            music.sim.run_until_complete(proc, limit=1e9)

        counter = AtomicCounter(music.client("Ohio"), "shared")

        def check():
            value = yield from counter.get()
            return value

        assert run(music, check()) == 9

    def test_eventual_read_is_cheap(self):
        music = build_music()
        counter = AtomicCounter(music.client("Ohio"), "c")

        def task():
            yield from counter.add(1)
            start = music.sim.now
            value = yield from counter.get_eventual()
            return value, music.sim.now - start

        value, elapsed = run(music, task())
        assert value == 1
        assert elapsed < 5.0  # no lock, no WAN quorum


class TestAtomicMap:
    def test_item_operations(self):
        music = build_music()
        mapping = AtomicMap(music.client("Ohio"), "m")

        def task():
            yield from mapping.put_item("a", 1)
            yield from mapping.put_item("b", 2)
            removed = yield from mapping.remove_item("a")
            missing = yield from mapping.remove_item("zzz")
            snapshot = yield from mapping.snapshot()
            b = yield from mapping.get_item("b")
            return removed, missing, snapshot, b

        removed, missing, snapshot, b = run(music, task())
        assert removed is True
        assert missing is False
        assert snapshot == {"b": 2}
        assert b == 2

    def test_compound_update_is_atomic(self):
        music = build_music()

        def swapper(site, rounds):
            mapping = AtomicMap(music.client(site), "m")
            for _ in range(rounds):
                def swap(m):
                    m["x"], m["y"] = m.get("y", 0), m.get("x", 1)
                    return m

                yield from mapping.update(swap)

        procs = [music.sim.process(swapper(s, 2)) for s in ("Ohio", "Oregon")]
        for proc in procs:
            music.sim.run_until_complete(proc, limit=1e9)

        mapping = AtomicMap(music.client("Ohio"), "m")

        def check():
            snapshot = yield from mapping.snapshot()
            return snapshot

        snapshot = run(music, check())
        # 4 swaps of the initial (1, 0): values are a permutation, never
        # a torn write.
        assert sorted(snapshot.values()) == [0, 1]


class TestAtomicQueue:
    def test_fifo_order(self):
        music = build_music()
        queue = AtomicQueue(music.client("Ohio"), "q")

        def task():
            for item in ("a", "b", "c"):
                yield from queue.enqueue(item)
            out = []
            for _ in range(4):
                ok, item = yield from queue.dequeue()
                out.append((ok, item))
            return out

        out = run(music, task())
        assert out == [(True, "a"), (True, "b"), (True, "c"), (False, None)]

    def test_concurrent_consumers_never_duplicate(self):
        music = build_music()
        producer_queue = AtomicQueue(music.client("Ohio"), "work")
        consumed = []

        def producer():
            for index in range(6):
                yield from producer_queue.enqueue(index)

        run(music, producer())

        def consumer(site):
            queue = AtomicQueue(music.client(site), "work")
            while True:
                ok, item = yield from queue.dequeue()
                if not ok:
                    return
                consumed.append(item)

        procs = [music.sim.process(consumer(s)) for s in ("Ohio", "Oregon")]
        for proc in procs:
            music.sim.run_until_complete(proc, limit=1e9)
        assert sorted(consumed) == [0, 1, 2, 3, 4, 5]
        assert len(consumed) == len(set(consumed))


class TestLeaderElection:
    def test_single_candidate_wins(self):
        music = build_music()
        election = LeaderElection(music.client("Ohio"), "svc", "node-a")

        def task():
            won = yield from election.campaign()
            still = yield from election.assert_leadership()
            leader = yield from election.current_leader()
            yield from election.resign()
            return won, still, leader

        assert run(music, task()) == (True, True, "node-a")

    def test_second_candidate_waits_for_resignation(self):
        music = build_music()
        first = LeaderElection(music.client("Ohio"), "svc", "a")
        second = LeaderElection(music.client("Oregon"), "svc", "b")
        events = []

        def candidate_a():
            yield from first.campaign()
            events.append(("a-leads", music.sim.now))
            yield music.sim.timeout(2_000.0)
            yield from first.resign()

        def candidate_b():
            yield music.sim.timeout(500.0)
            yield from second.campaign()
            events.append(("b-leads", music.sim.now))
            yield from second.resign()

        procs = [music.sim.process(candidate_a()), music.sim.process(candidate_b())]
        for proc in procs:
            music.sim.run_until_complete(proc, limit=1e9)
        assert events[0][0] == "a-leads"
        assert events[1][0] == "b-leads"
        assert events[1][1] > 2_000.0  # b only after a resigned

    def test_dead_leader_superseded_via_preemption(self):
        config = MusicConfig(
            failure_detection_enabled=True,
            detector_scan_interval_ms=1_000.0,
            lease_timeout_ms=3_000.0,
            orphan_timeout_ms=3_000.0,
        )
        music = build_music(music_config=config)
        dead = LeaderElection(music.client("Ohio"), "svc", "doomed")
        successor = LeaderElection(music.client("Oregon"), "svc", "successor")

        def doomed():
            yield from dead.campaign()
            # dies silently, never resigns

        run(music, doomed())

        def takeover():
            won = yield from successor.campaign(timeout_ms=60_000.0)
            leader = yield from successor.current_leader()
            deposed = yield from dead.assert_leadership()
            return won, leader, deposed

        won, leader, deposed = run(music, takeover())
        assert won is True
        assert leader == "successor"
        assert deposed is False  # the old leader learns it was deposed
