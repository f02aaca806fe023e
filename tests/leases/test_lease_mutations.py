"""Mutation tests: the lease checkers must catch broken lease code.

Same discipline as ``tests/obs/test_audit_mutations.py``: run one
scenario against the real replica (audit must be clean) and against a
subclassed replica with exactly one safety ingredient deleted (the
audit must flag it).  Mutant (a) removes the ECF-window expiry check
from the lease tier's serve path (``LeaseManager.window_open``) —
LeaseSafety must fire.  Mutant (b)
drops the push-grant cache invalidation — MonotonicReads must fire.
Every scenario runs audit-only and with ``obs=True`` beside the audit:
same history, same violations, span ids only in the second.
"""

from repro import MusicConfig, build_music
from repro.core.replica import MusicReplica
from repro.errors import NotLockHolder
from tests.helpers import assert_replay_equivalent, in_both_audit_modes, run


def assert_caught(auditor, invariant):
    """The auditor flagged ``invariant`` with a traceable violation."""
    assert not auditor.clean
    assert auditor.violation_counts.get(invariant, 0) >= 1, (
        f"expected a {invariant} violation; got {auditor.violation_counts}"
    )
    violation = next(v for v in auditor.violations if v.invariant == invariant)
    assert violation.source == "runtime"
    # Client-side events (cached reads) have no tracer span, but every
    # violation must at least carry the event trail that led to it.
    assert violation.trace or violation.trace_spans, (
        "violation should carry its evidence trail"
    )


# -- mutants ---------------------------------------------------------------


class NoExpiryCheck(MusicReplica):
    """Mutant (a): the lease tier serves any mirrored value, its window
    always open — ignoring the lease expiry and the revocation wait-out,
    the core unsafety leases guard against."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.lease_manager.window_open = lambda view, now_clock_ms: True


class DroppedInvalidation(MusicReplica):
    """Mutant (b): the push grant arrives but the replica forgets to
    drop its read cache (the audit receipt is still emitted, so the
    checker can see the invalidation *should* have happened)."""

    def _drop_cached_reads(self, key):
        pass


# -- scenario (a): forced takeover races the leaseholder's reads -----------


def _forced_takeover_run(replica_class=MusicReplica, obs=None):
    """An Ohio leaseholder reads in a tight loop while Oregon forcibly
    releases its lock and writes.  Returns (music, values served by the
    lease tier at Ohio)."""
    config = MusicConfig()
    config.read_lease_ms = 150.0
    music = build_music(
        music_config=config, seed=21, read_leases=True, audit=True, obs=obs,
        replica_class=replica_class,
    )
    sim = music.sim
    holder = music.client("Ohio")
    ohio = music.replica_at("Ohio")
    oregon = music.replica_at("Oregon")
    oregon_client = music.client("Oregon")
    state = {}
    lease_served = []

    def holder_proc():
        ref = yield from holder.create_lock_ref("k")
        granted = yield from holder.acquire_lock_blocking("k", ref)
        assert granted
        yield from holder.critical_put("k", ref, "PRE")
        state["ref"] = ref
        # Poll every 2ms so some read lands in every protocol window —
        # including the one between the forced dequeue committing at
        # the quorum and its effects reaching Ohio.
        for _ in range(400):
            yield sim.timeout(2.0)
            before = ohio.counters["lease_hits"]
            try:
                ok, value, _ = yield from ohio.critical_get("k", ref)
            except NotLockHolder:
                return
            if not ok:
                return
            if ohio.counters["lease_hits"] > before:
                lease_served.append(value)

    def takeover_proc():
        while "ref" not in state:
            yield sim.timeout(5.0)
        yield sim.timeout(150.0)
        yield from oregon.forced_release("k", state["ref"])
        cs = yield from oregon_client.critical_section("k", timeout_ms=60_000.0)
        yield from cs.put("POST")
        yield from cs.exit()

    procs = [sim.process(holder_proc()), sim.process(takeover_proc())]
    for proc in procs:
        sim.run_until_complete(proc, limit=1e9)
    sim.run(until=sim.now + 1_000.0)
    return music, lease_served


def test_forced_takeover_baseline_is_clean():
    for music, lease_served in in_both_audit_modes(_forced_takeover_run):
        # The lease tier actually served reads, and only pre-takeover state.
        assert lease_served and all(v == "PRE" for v in lease_served)
        kinds = {event.kind for event in music.auditor.events}
        assert {"lease_read", "forced_release"} <= kinds
        assert music.auditor.clean, music.auditor.render_report()
        assert_replay_equivalent(music.auditor)


def test_removing_the_expiry_check_trips_lease_safety():
    for music, lease_served in in_both_audit_modes(
        _forced_takeover_run, replica_class=NoExpiryCheck
    ):
        # The mutant keeps serving its mirror after the ECF window closed.
        assert lease_served
        assert_caught(music.auditor, "LeaseSafety")
        assert_replay_equivalent(music.auditor)


# -- scenario (b): a cached read outliving its invalidation ----------------


def _stale_cache_run(replica_class=MusicReplica, obs=None):
    """A writer updates a key under a critical section; a remote reader
    uses a generous staleness bound, so only the push-grant invalidation
    keeps its cache honest.  Returns (music, (first, second)) reads."""
    music = build_music(
        seed=5, read_leases=True, audit=True, obs=obs, replica_class=replica_class
    )
    sim = music.sim
    writer = music.client("Ohio")
    reader = music.client("Oregon")

    def scenario():
        cs = yield from writer.critical_section("k")
        yield from cs.put(1)
        yield from cs.exit()
        yield sim.timeout(200.0)
        first = yield from reader.get("k", staleness_ms=10_000.0)
        cs = yield from writer.critical_section("k")
        yield from cs.put(2)
        yield from cs.exit()                   # push grant should invalidate
        yield sim.timeout(500.0)
        second = yield from reader.get("k", staleness_ms=10_000.0)
        return first, second

    values = run(sim, scenario())
    return music, values


def test_stale_cache_baseline_is_clean():
    for music, values in in_both_audit_modes(_stale_cache_run):
        assert values == (1, 2)
        assert music.auditor.clean, music.auditor.render_report()
        assert_replay_equivalent(music.auditor)


def test_dropping_push_invalidation_trips_monotonic_reads():
    for music, values in in_both_audit_modes(
        _stale_cache_run, replica_class=DroppedInvalidation
    ):
        # The mutant serves the cached 1 even though the invalidation push
        # arrived before the read's cache entry was fetched... after it.
        assert values == (1, 1)
        assert_caught(music.auditor, "MonotonicReads")
        assert_replay_equivalent(music.auditor)
