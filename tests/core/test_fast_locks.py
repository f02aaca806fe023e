"""The DESIGN §8 contention hot path: feature behavior with
``fast_locks`` on (the default), and the bit-identical guarantee with it
off.

The features-off timings — the paper's polling protocol,
:data:`POLLING` — are pinned against golden stamps recorded from the
seed tree: any code on that path that moves an event, draws extra
randomness, or reorders a quorum round trips these exact floats.
"""

from repro import MusicConfig, build_music
from tests.helpers import run

# The paper's polling protocol: every feature switch off.
POLLING = MusicConfig(fast_locks=False)

# Completion times (sim ms) of 5 sequential critical sections from one
# Ohio client, alternating two keys — identical for any seed because a
# lone client's schedule is latency-determined.
GOLDEN_SINGLE = [
    547.4631707999998,
    1094.9261048000003,
    1642.3893092000003,
    2189.8522767999993,
    2737.3154811999916,
]
# Completion times of 6 contended critical sections (Ohio + Oregon, 3
# rounds each, one hot key) at seed 3 — this one *is* seed-sensitive:
# poll jitter and CAS backoff draws shape the interleaving.
GOLDEN_CONTENDED_SEED3 = [
    276.4644402,
    642.478934978,
    1014.877802882,
    1585.844869296,
    2187.799596696,
    2789.754324096,
]


def _single_client_stamps(seed):
    music = build_music(seed=seed, music_config=POLLING)
    sim = music.sim
    client = music.client("Ohio")
    stamps = []

    def proc():
        for i in range(5):
            key = f"k{i % 2}"
            ref = yield from client.create_lock_ref(key)
            yield from client.acquire_lock_blocking(key, ref)
            yield from client.critical_put(key, ref, {"v": i})
            yield from client.release_lock(key, ref)
            stamps.append(sim.now)

    run(sim, proc())
    return stamps


def _contended_stamps(seed):
    music = build_music(seed=seed, music_config=POLLING)
    sim = music.sim
    clients = [music.client("Ohio"), music.client("Oregon")]
    stamps = []

    def worker(client):
        for _ in range(3):
            cs = yield from client.critical_section("hot", timeout_ms=1e8)
            value = yield from cs.get()
            yield from cs.put((value or 0) + 1)
            yield from cs.exit()
            stamps.append(round(sim.now, 9))

    procs = [sim.process(worker(client)) for client in clients]
    for proc in procs:
        sim.run_until_complete(proc, limit=1e9)
    return stamps


def test_features_off_timings_are_bit_identical_to_the_seed():
    """With the hot path off, every simulated event stays exactly where
    the seed tree put it."""
    assert _single_client_stamps(3) == GOLDEN_SINGLE
    assert _single_client_stamps(7) == GOLDEN_SINGLE
    assert _contended_stamps(3) == GOLDEN_CONTENDED_SEED3


# -- LWT group commit --------------------------------------------------------


def test_concurrent_mints_batch_into_distinct_sequential_refs():
    config = MusicConfig(fast_locks=True)
    music = build_music(music_config=config, obs=True)
    sim = music.sim
    client = music.client("Ohio")
    refs = []

    def mint():
        ref = yield from client.create_lock_ref("hot")
        refs.append(ref)

    procs = [sim.process(mint()) for _ in range(6)]
    for proc in procs:
        sim.run_until_complete(proc, limit=1e9)
    assert sorted(refs) == [1, 2, 3, 4, 5, 6]
    flushes = music.obs.metrics.counter(
        "lockstore.batch.flushes", node="music-0-0"
    ).value
    assert flushes >= 1  # the accumulated ops really rode a group commit


def test_a_release_beside_a_mint_in_flight_goes_out_at_once(monkeypatch):
    """A release that arrives while a same-key mint of its coordinator
    is in flight does not wait for it: its quorum row delete goes out at
    once, and no LWT of its own follows.  A mint queued meanwhile still
    flushes alone after the mint in flight.  The release pushes its
    successor (with the poll timer stretched to 30 s, only a push
    grants within it) and the history audits clean."""
    monkeypatch.setattr(MusicConfig, "acquire_poll_interval_ms", 30_000.0)
    monkeypatch.setattr(MusicConfig, "acquire_poll_max_ms", 30_000.0)
    music = build_music(music_config=MusicConfig(fast_locks=True), obs=True, audit=True)
    sim = music.sim
    holder, second, third = (music.client("Ohio") for _ in range(3))
    entered = sim.event()
    granted = {}

    def hold_then_release():
        cs = yield from holder.critical_section("k")
        entered.succeed()
        yield sim.timeout(10.0)  # the second mint's LWT is in flight
        yield from cs.exit()

    def mint_then_acquire(client, delay):
        yield entered
        yield sim.timeout(delay)
        ref = yield from client.create_lock_ref("k")
        yield from client.acquire_lock_blocking("k", ref)
        granted[ref] = sim.now
        yield from client.release_lock("k", ref)

    procs = [
        sim.process(hold_then_release()),
        sim.process(mint_then_acquire(second, 0.0)),
        sim.process(mint_then_acquire(third, 10.0)),
    ]
    for proc in procs:
        sim.run_until_complete(proc, limit=1e9)

    spans = music.obs.tracer.spans
    release = [
        span for span in spans
        if span.name == "music.releaseLock" and span.start_ms < granted[2]
    ]
    dequeues = [span for span in spans if span.name == "lockstore.dequeue"]
    flushes = [span for span in spans if span.name == "lockstore.batchFlush"]
    assert len(release) == 1
    (mint,) = [
        span for span in spans
        if span.name == "lockstore.enqueue" and span.start_ms < release[0].start_ms < span.end_ms
    ]
    # The release's delete went out while the mint was still in flight,
    # as one quorum write.
    first = min(dequeues, key=lambda span: span.start_ms)
    assert release[0].start_ms <= first.start_ms < mint.end_ms
    assert [span.name for span in spans if span.parent_id == first.span_id] == ["store.put"]
    assert len(flushes) == 1 and flushes[0].attrs["size"] == 1
    assert mint.end_ms <= flushes[0].start_ms
    assert sorted(granted) == [2, 3]
    assert granted[2] < 30_000.0  # pushed, not polled
    assert music.auditor.clean, music.auditor.render_report()


# -- the grant's skipped flag read (the hand-off, DESIGN.md §8) -------------


def _grant_counters(music, site="Ohio"):
    replica = music.replica_at(site)
    metrics = music.obs.metrics
    return (
        metrics.counter("music.fastpath.hits", node=replica.node_id).value,
        metrics.counter("music.fastpath.misses", node=replica.node_id).value,
    )


def test_fast_path_skips_the_flag_read_after_a_clean_grant():
    config = MusicConfig(fast_locks=True)
    music = build_music(music_config=config, obs=True)
    client = music.client("Ohio")

    def sections():
        for i in range(3):
            cs = yield from client.critical_section("k")
            yield from cs.put(i)
            yield from cs.exit()

    run(music.sim, sections())
    hits, misses = _grant_counters(music)
    # The first grant has no hand-off row and pays the quorum flag read;
    # each later grant's head read shows the row its predecessor's clean
    # release wrote, naming the ref below, and skips the read.
    assert misses == 1
    assert hits == 2


def test_forced_release_invalidates_the_fast_path():
    config = MusicConfig(fast_locks=True)
    music = build_music(music_config=config, obs=True)
    client = music.client("Ohio")
    replica = music.replica_at("Ohio")

    def scenario():
        cs = yield from client.critical_section("k")
        yield from cs.put("A")
        yield from cs.exit()
        # A stalled holder gets preempted: the forced marker write must
        # push the next grant off the fast path (flag=True is pending).
        ref2 = yield from client.create_lock_ref("k")
        granted = yield from client.acquire_lock_blocking("k", ref2)
        assert granted
        yield from replica.forced_release("k", ref2)
        cs3 = yield from client.critical_section("k")
        value = yield from cs3.get()
        yield from cs3.exit()
        return value

    assert run(music.sim, scenario()) == "A"
    hits, misses = _grant_counters(music)
    # grant1 misses (no row), grant2 hits (the row names ref 1), grant3
    # must miss again: its peek shows no row naming ref 2, and the
    # forcedRelease marker names ref 2.
    assert misses == 2
    assert hits == 1


# -- push-based grant notification -------------------------------------------


def test_release_push_wakes_the_waiter_before_the_poll_backoff(monkeypatch):
    # Make polling hopeless: without the push, the waiter's next poll
    # after the release would be a full backed-off interval away.
    music = build_music(music_config=MusicConfig(fast_locks=True), obs=True)
    monkeypatch.setattr(MusicConfig, "acquire_poll_interval_ms", 30_000.0)
    monkeypatch.setattr(MusicConfig, "acquire_poll_max_ms", 30_000.0)
    sim = music.sim
    holder = music.client("Ohio")
    waiter = music.client("Oregon")
    granted_at = []
    entered = sim.event()

    def hold_then_release():
        cs = yield from holder.critical_section("k")
        entered.succeed()
        yield sim.timeout(1_000.0)
        yield from cs.exit()

    def wait():
        # Queued behind the holder, so the release names it successor.
        yield entered
        cs = yield from waiter.critical_section("k", timeout_ms=20_000.0)
        granted_at.append(sim.now)
        yield from cs.exit()

    procs = [sim.process(hold_then_release()), sim.process(wait())]
    for proc in procs:
        sim.run_until_complete(proc, limit=1e9)
    assert granted_at, "the waiter never got the lock"
    # Release lands around t=1s; a poll-only waiter would sleep to its
    # 30s interval, so a grant well before that proves the push woke it.
    assert granted_at[0] < 2_000.0
    notifies = sum(
        music.obs.metrics.counter(
            "music.push.notifies", node=replica.node_id
        ).value
        for replica in music.replicas
    )
    assert notifies >= 1
