"""Mutation regression tests: each seeded ECF bug must be *caught*.

A clean audit only means something if a broken implementation fails it.
Each test here re-introduces one of the paper's Section IV-B hazards —
δ=0 forcedRelease stamps, a skipped acquire-time synchronization, a
forcedRelease that dequeues without the quorum flag write, and a
bypassed queue-head guard — or breaks one of the hand-off's serve
rules or the early grant read's, and asserts the auditor flags it with a violation naming the
invariant, in both audited modes: ``audit=True``
alone (the checker and nothing else) and ``obs=True, audit=True``, which
files the same violations and also names the guilty trace spans.
"""

import pytest

from repro import MusicConfig, build_music
from repro.core.replica import DATA_TABLE, VALUE_ROW, MusicReplica
from repro.leases import Mirror
from repro.lockstore import LockStore
from repro.lockstore.lockstore import FORCED_ROW, HANDOFF_ROW, LOCK_TABLE
from repro.store import Consistency
from repro.store.paxos import LwtProposer
from repro.store.types import Update
from tests.core.test_handoff import retried_op_scenario, section
from tests.helpers import assert_replay_equivalent, in_both_audit_modes, run


def fault_run(seed=31, **build_kw):
    """A false-failure-detection scenario: an isolated-but-alive Ohio
    lockholder is preempted by the detectors, then Oregon takes over."""
    config = MusicConfig(
        failure_detection_enabled=True,
        detector_scan_interval_ms=1_000.0,
        lease_timeout_ms=3_000.0,
        orphan_timeout_ms=3_000.0,
        **build_kw.pop("config_kw", {}),
    )
    music = build_music(music_config=config, seed=seed, audit=True, **build_kw)
    sim, net = music.sim, music.network
    ohio, oregon = music.client("Ohio"), music.client("Oregon")

    def setup():
        cs = yield from ohio.critical_section("k")
        yield from cs.put("A")
        # ...and never exits: the holder stalls while Ohio is isolated.

    run(sim, setup())
    net.isolate_site("Ohio")
    sim.run(until=sim.now + 10_000.0)  # detectors preempt the holder

    def takeover():
        cs = yield from oregon.critical_section("k", timeout_ms=60_000.0)
        yield from cs.get()
        yield from cs.put("B")
        yield from cs.exit()

    run(sim, takeover())
    net.heal_all()
    sim.run(until=sim.now + 2_000.0)
    return music


def assert_caught(auditor, invariant):
    assert invariant in auditor.violation_counts, auditor.violation_counts
    offenders = [v for v in auditor.violations if v.invariant == invariant]
    assert offenders, "violation records were capped away"
    for violation in offenders:
        assert violation.source == "runtime"
        assert violation.invariant == invariant  # names the invariant...
        # ...and, when the run was traced, the guilty spans
        assert bool(violation.trace_spans) == (auditor.tracer is not None)
        assert violation.trace  # ...and the key's event history
    return offenders[0]


def test_unmutated_run_is_clean():
    """The baseline: the same scenario audits clean without a mutant."""
    for music in in_both_audit_modes(fault_run):
        assert music.auditor.clean, music.auditor.render_report()
        # The preemption actually happened (the mutants below rely on it).
        kinds = {event.kind for event in music.auditor.events}
        assert "forced_release" in kinds
        assert "sync" in kinds
        assert_replay_equivalent(music.auditor)


def test_delta_zero_forced_release_is_caught():
    """δ=0 stamps tie the forced flag write with the released holder's
    own reset — the exact race the Section IV-B rule exists to break."""
    for music in in_both_audit_modes(fault_run, config_kw=dict(delta=0.0)):
        violation = assert_caught(music.auditor, "ForcedReleaseDelta")
        assert "δ=0" in violation.detail
        assert_replay_equivalent(music.auditor)


def test_skipped_acquire_sync_is_caught():
    class NoSyncReplica(MusicReplica):
        def _synchronize(self, key, lock_ref):
            return iter(())  # "optimize away" the acquire-time sync

    for music in in_both_audit_modes(fault_run, replica_class=NoSyncReplica):
        violation = assert_caught(music.auditor, "SyncRequired")
        assert "without synchronizing" in violation.detail
        assert_replay_equivalent(music.auditor)


def test_release_without_quorum_flag_write_is_caught():
    class NoQuorumRelease(MusicReplica):
        def forced_release(self, key, lock_ref):
            # Dequeue the presumed-failed holder without first
            # completing the synchFlag quorum write.
            entry = yield from self.lock_store.peek(key)
            if entry is not None and lock_ref < entry.lock_ref:
                return True
            self.counters["forced_releases"] += 1
            with self.obs.tracer.span(
                "music.forcedRelease", node=self.node_id, site=self.site,
                key=key,
            ):
                yield from self.lock_store.dequeue(key, lock_ref)
                audit = self.obs.audit
                if audit.enabled:
                    audit.emit(
                        "forced_release", key=key, node=self.node_id,
                        lock_ref=lock_ref,
                        stamp=self._stamp(lock_ref + self.config.delta, 0.0),
                    )
            return True

    for music in in_both_audit_modes(fault_run, replica_class=NoQuorumRelease):
        violation = assert_caught(music.auditor, "ForcedReleaseOrder")
        assert "without first" in violation.detail
        assert_replay_equivalent(music.auditor)


def test_bypassed_queue_head_guard_is_caught():
    class UnguardedReplica(MusicReplica):
        def _guard(self, key, lock_ref):
            # Skip the lockRef-vs-queue-head check: proceed on an empty
            # head decode.
            return (None, None, None, None)
            yield

    def intrusion(obs):
        music = fault_run(replica_class=UnguardedReplica, obs=obs)

        def intruder():
            # A criticalPut under a lockRef that was never granted.  The
            # real guard returns proceed=False for it; the mutant lets the
            # quorum write through, which the auditor must flag.
            replica = music.replicas[0]
            yield from replica.critical_put("k", 99, "INTRUDER")

        run(music.sim, intruder())
        return music

    for music in in_both_audit_modes(intrusion):
        violation = assert_caught(music.auditor, "Exclusivity")
        assert "never granted" in violation.detail
        assert violation.lock_ref == 99
        assert_replay_equivalent(music.auditor)


def _batched_mint_scenario(obs=None):
    """Five concurrent mints in batch mode (one direct under the busy
    token, four riding the flush) followed by one more mint against
    whatever guard value the flush left behind."""
    config = MusicConfig(fast_locks=True)
    music = build_music(music_config=config, audit=True, obs=obs)
    sim = music.sim
    client = music.client("Ohio")
    refs = []

    def mint():
        ref = yield from client.create_lock_ref("hot")
        refs.append(ref)

    procs = [sim.process(mint()) for _ in range(5)]
    for proc in procs:
        sim.run_until_complete(proc, limit=1e9)
    run(sim, mint())
    return music, refs


def test_batched_mint_run_is_clean():
    """Baseline for the atomicity mutant: with the real guard target the
    same contended-mint scenario yields distinct sequential refs and a
    clean audit."""
    for music, refs in in_both_audit_modes(_batched_mint_scenario):
        assert music.auditor.clean, music.auditor.render_report()
        assert sorted(refs) == [1, 2, 3, 4, 5, 6]
        assert_replay_equivalent(music.auditor)


def test_non_atomic_batch_mint_is_caught():
    """A batch flush that hands out n refs but advances the guard by
    less than n breaks the all-or-nothing LWT contract: the next mint
    re-reads the stale guard and re-mints a ref the batch already handed
    out.  The auditor must flag the duplicate as a FIFO violation."""
    original = LockStore.__dict__["_batch_guard_target"]
    LockStore._batch_guard_target = staticmethod(
        lambda base, enqueues: base + min(enqueues, 1)
    )
    try:
        runs = in_both_audit_modes(_batched_mint_scenario)
    finally:
        LockStore._batch_guard_target = original
    for music, refs in runs:
        assert len(refs) != len(set(refs))  # the duplicate mint happened...
        violation = assert_caught(music.auditor, "LockQueueFIFO")
        assert "minted after" in violation.detail  # ...and was flagged
        assert_replay_equivalent(music.auditor)


def _fast_path_scenario(replica_class=MusicReplica, obs=None):
    """A stalled holder whose last store write the auditor never saw,
    then a forcedRelease: the next grant's synchronization is the only
    thing standing between the new holder and the unsynchronized store."""
    config = MusicConfig(fast_locks=True)
    music = build_music(
        music_config=config, audit=True, obs=obs, replica_class=replica_class
    )
    client = music.client("Ohio")
    replica = music.replica_at("Ohio")

    def scenario():
        cs = yield from client.critical_section("k")
        yield from cs.put("A")
        yield from cs.exit()
        # The second holder takes the lock and stalls mid-section...
        ref2 = yield from client.create_lock_ref("k")
        granted = yield from client.acquire_lock_blocking("k", ref2)
        assert granted
        # ...after a store write the client-side audit obligation never
        # recorded (the holder died between the quorum write and the
        # ack): the store diverges from the auditor's true value.
        yield from replica.coordinator.put(
            DATA_TABLE, "k", VALUE_ROW, {"value": "DIVERGED"},
            replica._stamp(ref2, 1.0), consistency=Consistency.QUORUM,
        )
        # The detector path preempts the stalled holder (quorum flag
        # write, then dequeue): no release of it hands the store on.
        yield from replica.forced_release("k", ref2)
        # The next holder must re-synchronize before reading.
        ref3 = yield from client.create_lock_ref("k")
        granted = yield from client.acquire_lock_blocking("k", ref3)
        assert granted
        yield from client.critical_get("k", ref3)
        yield from client.release_lock("k", ref3)

    run(music.sim, scenario())
    return music


def test_fast_path_scenario_is_clean_without_mutant():
    """Baseline: the real hand-off check finds no row naming the
    preempted ref, misses the fast path, reads flag=True and
    synchronizes — the post-preemption read audits clean."""
    for music in in_both_audit_modes(_fast_path_scenario):
        assert music.auditor.clean, music.auditor.render_report()
        # The scenario exercised the machinery it claims to: a forced
        # release happened and the next grant took the slow path + sync.
        kinds = {event.kind for event in music.auditor.events}
        assert "forced_release" in kinds
        assert "sync" in kinds
        assert_replay_equivalent(music.auditor)


def test_broken_fast_path_hand_off_check_is_caught():
    """A fast path that ignores the hand-off rules skips the grant-time
    flag read *and* the synchronization, so the new holder reads
    whatever the preempted holder left behind — the auditor must flag
    the stale read against the true value."""

    class AlwaysFastReplica(MusicReplica):
        def _handed_on(self, lock_ref, forced, handoff):
            return True  # "the store was always handed on defined"

    for music in in_both_audit_modes(
        _fast_path_scenario, replica_class=AlwaysFastReplica
    ):
        violation = assert_caught(music.auditor, "LatestState")
        assert "DIVERGED" in violation.detail
        assert_replay_equivalent(music.auditor)


def test_mutant_violations_render_with_span_trees():
    """The report pipeline end-to-end: a caught mutant's report names
    the invariant and renders the guilty span tree with ▶ markers —
    which takes the spans, so the run asks for ``obs=True`` as well."""
    music = fault_run(config_kw=dict(delta=0.0), obs=True)
    spans = music.network.obs.tracer.spans
    report = music.auditor.render_report(spans=spans)
    assert "ForcedReleaseDelta" in report
    assert "span tree of trace" in report
    assert "▶" in report
    assert_replay_equivalent(music.auditor)


# -- the hand-off's serve rules (DESIGN.md §8) ------------------------------
#
# Each hand-off and early-read scenario runs with read leases off and on:
# one mirror serves both.  With leases on, a stale value an open window
# serves is a lease read, so LeaseSafety names it; the hand-off's own
# serves, and every serve with leases off, are criticalGets LatestState
# checks.

LEASE_MODES = pytest.mark.parametrize("read_leases", [False, True], ids=["leases-off", "leases-on"])


def _mirrored(mirror_class):
    """A replica whose mirror is a ``mirror_class``."""

    class Mutant(MusicReplica):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.mirror = mirror_class(self.lease_manager)

    return Mutant


def _serving(*skipped):
    """A replica whose hand-off serve skips the named rules: "b" (the row
    names the ref below), "c" (no forced dequeue at or above it) or "e"
    (the section wrote nothing)."""

    class Skipping(Mirror):
        @staticmethod
        def handed_row(lock_ref, forced, handoff):
            if handoff is None:
                return None
            released, kept = handoff
            if released != lock_ref - 1 and "b" not in skipped:
                return None
            if forced is not None and forced >= released and "c" not in skipped:
                return None
            return kept

        def fill(self, key, lock_ref, value, stamp):
            entry = self._entries.get(key)
            source = None if entry is None else entry.source
            super().fill(key, lock_ref, value, stamp)
            if entry is not None and "e" in skipped:
                entry.source = source

        def serve(self, key, lock_ref, min_stamp, *args):
            if "e" in skipped:
                min_stamp = None
            return super().serve(key, lock_ref, min_stamp, *args)

    return _mirrored(Skipping)


def _own_put_scenario(replica_class=MusicReplica, obs=None, read_leases=False):
    """A section that puts, then gets: the hand-off is older than its
    own write."""
    music = build_music(audit=True, obs=obs, replica_class=replica_class, read_leases=read_leases)
    client = music.client("Ohio")
    run(music.sim, section(client, "get", "A"))
    run(music.sim, section(client, "B", "get"))
    return music


def _retried_op_scenario(replica_class=MusicReplica, obs=None, read_leases=False):
    music = build_music(audit=True, obs=obs, replica_class=replica_class, read_leases=read_leases)
    retried_op_scenario(music)
    return music


def _late_marker_scenario(replica_class=MusicReplica, obs=None, read_leases=False):
    """A ref granted here unsynchronized, then synchronized by another
    replica after a forced dequeue of its predecessor, whose marker
    reaches this replica only after the grant: the store moved past the
    value the hand-off row carries (a write the audit never saw, as in
    ``_fast_path_scenario``, is what the synchronization fixes)."""
    music = build_music(audit=True, obs=obs, replica_class=replica_class, read_leases=read_leases)
    client = music.client("Ohio")
    here, there = music.replica_at("Ohio"), music.replica_at("Oregon")
    run(music.sim, section(client, "get", "A"))

    def scenario():
        ref = yield from client.create_lock_ref("k")
        assert (yield from client.acquire_lock_blocking("k", ref))
        yield from there.coordinator.put(
            DATA_TABLE, "k", VALUE_ROW, {"value": "DIVERGED"},
            there._stamp(ref - 1, there.config.period_ms / 2), consistency=Consistency.QUORUM,
        )
        yield from there._synchronize("k", ref)
        marker = Update(LOCK_TABLE, "k", FORCED_ROW, {"ref": ref - 1}, (1e18, there.node_id))
        for node in here.coordinator.replicas("k"):
            music.store.by_id[node].apply_update(marker)
        yield from client.critical_get("k", ref)
        yield from client.release_lock("k", ref)

    run(music.sim, scenario())
    return music


def _forced_before_release_scenario(replica_class=MusicReplica, obs=None, read_leases=False):
    """A forced dequeue lands between the holder's last guard and its
    release, which reads no head of its own on the hot path: the
    release writes a hand-off row naming the forced ref.  The successor
    was granted at Oregon before it, with the sync the forced flag asks
    for (of a write of the holder's the audit never saw), and its acquire
    reaches Ohio again afterwards: Ohio's grant sees that row and the
    marker beside it.  Returns what the successor's get at Ohio read."""
    music = build_music(audit=True, obs=obs, replica_class=replica_class, read_leases=read_leases)
    ohio, oregon = music.client("Ohio"), music.client("Oregon")
    there = music.replica_at("Oregon")

    def scenario():
        held = yield from ohio.critical_section("k")
        yield from held.put("A")
        yield from there.coordinator.put(
            DATA_TABLE, "k", VALUE_ROW, {"value": "DIVERGED"},
            there._stamp(held.lock_ref, there.config.period_ms / 2),
            consistency=Consistency.QUORUM,
        )
        yield from there.forced_release("k", held.lock_ref)
        ref = yield from oregon.create_lock_ref("k")
        assert (yield from oregon.acquire_lock_blocking("k", ref))
        yield from held.exit()
        yield music.sim.timeout(1_000.0)  # the delete and its row land everywhere
        rows = yield from there.coordinator.get(
            LOCK_TABLE, "k", HANDOFF_ROW, Consistency.QUORUM
        )
        assert rows[HANDOFF_ROW].cell_stamp("value")[0] == held.lock_ref
        assert (yield from ohio.acquire_lock("k", ref))
        value = yield from ohio.critical_get("k", ref)
        yield from ohio.release_lock("k", ref)
        return value

    return music, run(music.sim, scenario())


@LEASE_MODES
def test_a_forced_dequeue_before_a_release_that_reads_no_head_is_clean(read_leases):
    for music, read in in_both_audit_modes(
        _forced_before_release_scenario, read_leases=read_leases
    ):
        assert read == "DIVERGED"
        assert music.auditor.clean, music.auditor.render_report()
        assert_replay_equivalent(music.auditor)


@LEASE_MODES
def test_a_hand_off_row_written_after_a_forced_dequeue_served_is_caught(read_leases):
    for music, read in in_both_audit_modes(
        _forced_before_release_scenario, replica_class=_serving("c"), read_leases=read_leases
    ):
        assert read == "A"
        violation = assert_caught(music.auditor, "LatestState")
        assert "DIVERGED" in violation.detail
        assert_replay_equivalent(music.auditor)


@LEASE_MODES
def test_the_hand_off_scenarios_are_clean_without_a_mutant(read_leases):
    for scenario in (_own_put_scenario, _retried_op_scenario, _late_marker_scenario):
        for music in in_both_audit_modes(scenario, read_leases=read_leases):
            assert music.auditor.clean, music.auditor.render_report()
            assert_replay_equivalent(music.auditor)


@LEASE_MODES
def test_a_hand_off_served_over_the_sections_own_write_is_caught(read_leases):
    for music in in_both_audit_modes(
        _own_put_scenario, replica_class=_serving("e"), read_leases=read_leases
    ):
        violation = assert_caught(music.auditor, "LatestState")
        assert "observed 'A'" in violation.detail
        assert_replay_equivalent(music.auditor)


@LEASE_MODES
def test_a_hand_off_row_naming_a_lower_ref_served_is_caught(read_leases):
    for music in in_both_audit_modes(
        _retried_op_scenario, replica_class=_serving("b"), read_leases=read_leases
    ):
        violation = assert_caught(music.auditor, "LatestState")
        assert "observed 'A'" in violation.detail
        assert_replay_equivalent(music.auditor)


@LEASE_MODES
def test_a_hand_off_served_beside_a_forced_marker_is_caught(read_leases):
    for music in in_both_audit_modes(
        _late_marker_scenario, replica_class=_serving("c"), read_leases=read_leases
    ):
        violation = assert_caught(music.auditor, "LatestState")
        assert "DIVERGED" in violation.detail
        assert_replay_equivalent(music.auditor)


# -- the early grant read (DESIGN.md §8) ------------------------------------


def _queued_mint_scenario(replica_class=MusicReplica, obs=None, read_leases=False):
    """Oregon mints while Ohio holds the lock and has written once, so
    the queue its mint decides on shows Ohio's ref; Ohio writes again
    before its replica releases it handing nothing on, so Oregon's grant
    reads."""
    music = build_music(audit=True, obs=obs, replica_class=replica_class, read_leases=read_leases)
    ohio, oregon = music.client("Ohio"), music.client("Oregon")
    holder = music.replica_at("Ohio")

    def scenario():
        cs = yield from ohio.critical_section("k")
        yield from cs.put("A")
        ref = yield from oregon.create_lock_ref("k")
        yield from cs.put("B")
        yield from holder.release_lock("k", cs.lock_ref)
        assert (yield from oregon.acquire_lock_blocking("k", ref))
        value = yield from oregon.critical_get("k", ref)
        yield from oregon.release_lock("k", ref)
        return value

    return music, run(music.sim, scenario())


def _missed_forced_scenario(replica_class=MusicReplica, obs=None, read_leases=False):
    """Oregon's mint decides at the head and starts its grant read; then,
    before the grant, a forced dequeue of the ref below, which the
    decided queue did not show, takes effect with a synchronization
    elsewhere: the store moved past what the early read saw, and only
    the forced epoch shows it (injected, as in ``_late_marker_scenario``).
    Ohio's release returns at its local ack: its delete lands at every
    replica before Oregon mints, so the mint's promises show the queue
    empty."""
    music = build_music(audit=True, obs=obs, replica_class=replica_class, read_leases=read_leases)
    ohio, oregon = music.client("Ohio"), music.client("Oregon")
    here, there = music.replica_at("Oregon"), music.replica_at("Ohio")
    run(music.sim, section(ohio, "get", "A"))
    music.sim.run(until=music.sim.now + 1_000.0)

    def scenario():
        ref = yield from oregon.create_lock_ref("k")
        assert here._early_reads["k"][0] == ref
        yield from there.coordinator.put(
            DATA_TABLE, "k", VALUE_ROW, {"value": "DIVERGED"},
            there._stamp(ref - 1, there.config.period_ms / 2), consistency=Consistency.QUORUM,
        )
        yield from there._synchronize("k", ref)
        marker = Update(LOCK_TABLE, "k", FORCED_ROW, {"ref": ref - 1}, (1e18, there.node_id))
        for node in here.coordinator.replicas("k"):
            music.store.by_id[node].apply_update(marker)
        assert (yield from oregon.acquire_lock_blocking("k", ref))
        value = yield from oregon.critical_get("k", ref)
        yield from oregon.release_lock("k", ref)
        return value

    return music, run(music.sim, scenario())


def _late_write_scenario(replica_class=MusicReplica, obs=None, read_leases=False):
    """A preempted holder's write lands between its successor's grant
    read, which finds the flag set, and the synchronization's own read:
    the sync rewrites that write's value, not the grant read's."""
    music = build_music(audit=True, obs=obs, replica_class=replica_class, read_leases=read_leases)
    client = music.client("Ohio")
    replica = music.replica_at("Ohio")
    synchronize = replica._synchronize

    def late_write_then_sync(key, lock_ref):
        yield from replica.coordinator.put(
            DATA_TABLE, key, VALUE_ROW, {"value": "LATE"},
            replica._stamp(lock_ref - 1, 2.0), consistency=Consistency.QUORUM,
        )
        yield from synchronize(key, lock_ref)

    replica._synchronize = late_write_then_sync

    def scenario():
        cs = yield from client.critical_section("k")
        yield from cs.put("A")
        yield from cs.exit()
        preempted = yield from client.create_lock_ref("k")
        assert (yield from client.acquire_lock_blocking("k", preempted))
        yield from replica.forced_release("k", preempted)
        ref = yield from client.create_lock_ref("k")
        assert replica._early_reads["k"][0] == ref
        assert (yield from client.acquire_lock_blocking("k", ref))
        value = yield from client.critical_get("k", ref)
        yield from client.release_lock("k", ref)
        return value

    return music, run(music.sim, scenario())


def _stale_local_acceptor_scenario(obs=None, read_leases=False):
    """Ohio writes "B" while Ohio and Oregon are partitioned, so Oregon's
    store replica misses it (the put's quorum is Ohio's and
    N.California's).  Healed, Oregon's first section gets: its mint's
    accept quorum is Oregon's replica and N.California's, and only the
    latter holds "B".  Ohio's release returns at its local ack: the heal
    waits for its delete to reach N.California, so Oregon's mint finds
    the queue empty."""
    music = build_music(audit=True, obs=obs, read_leases=read_leases)
    ohio, oregon = music.client("Ohio"), music.client("Oregon")

    def scenario():
        yield from section(ohio, "A")
        music.network.partition_sites("Ohio", "Oregon")
        yield from section(ohio, "B")
        yield music.sim.timeout(100.0)
        music.network.heal_all()
        (read,) = yield from section(oregon, "get")
        return read

    return music, run(music.sim, scenario())


def _accepting(mutant):
    """A ``LwtProposer._propose`` that hands a read's accept round to
    ``mutant(original, self, *args)``; every other round is the real one."""
    original = LwtProposer._propose

    def propose(self, replicas, needed, target, mutation, read_table=None):
        if read_table is None:
            return original(self, replicas, needed, target, mutation)
        return mutant(original, self, replicas, needed, target, mutation, read_table)

    return propose


def _local_accept_only(original, self, replicas, needed, target, mutation, read_table):
    replies = yield from original(self, replicas, needed, target, mutation, read_table)
    site = self.node.site
    return [(dst, reply) for dst, reply in replies if self.node.network.site_of(dst) == site]


def _one_accept(original, self, replicas, needed, target, mutation, read_table):
    return (yield from original(self, replicas, 1, target, mutation, read_table))


def assert_stale(music, read_leases, value="A"):
    """The mutant served the stale ``value`` and the audit caught it:
    under an open window with leases on, else as a criticalGet."""
    violation = assert_caught(music.auditor, "LeaseSafety" if read_leases else "LatestState")
    assert f"observed {value!r}" in violation.detail
    assert_replay_equivalent(music.auditor)


@LEASE_MODES
def test_the_early_read_scenarios_are_clean_without_a_mutant(read_leases):
    for scenario, value in (
        (_queued_mint_scenario, "B"), (_missed_forced_scenario, "DIVERGED"),
        (_late_write_scenario, "LATE"), (_stale_local_acceptor_scenario, "B"),
    ):
        for music, read in in_both_audit_modes(scenario, read_leases=read_leases):
            assert read == value
            assert music.auditor.clean, music.auditor.render_report()
            assert_replay_equivalent(music.auditor)


@LEASE_MODES
def test_an_accept_round_read_taken_behind_a_queued_ref_is_caught(read_leases):
    original = LockStore.__dict__["_queue_empty"]
    LockStore._queue_empty = staticmethod(lambda rows: True)
    try:
        runs = in_both_audit_modes(_queued_mint_scenario, read_leases=read_leases)
    finally:
        LockStore._queue_empty = original
    for music, read in runs:
        assert read == "A"
        assert_stale(music, read_leases)


@LEASE_MODES
def test_an_early_read_taken_across_a_changed_forced_epoch_is_caught(read_leases):
    class IgnoresEpoch(MusicReplica):
        def _take_early(self, key, lock_ref, epoch):
            early = self._early_reads.pop(key, None)
            return early if early is not None and early[0] == lock_ref else None

    for music, read in in_both_audit_modes(
        _missed_forced_scenario, replica_class=IgnoresEpoch, read_leases=read_leases
    ):
        assert read == "A"
        assert_stale(music, read_leases)


class ServesAfterSync(Mirror):
    """A mirror that keeps a grant's read for the hand-off even after
    the grant's synchronization rewrote the value."""

    def granted(self, key, lock_ref, kept, synced):
        super().granted(key, lock_ref, kept, False)


@LEASE_MODES
def test_a_grant_read_served_after_a_sync_is_caught(read_leases):
    for music, read in in_both_audit_modes(
        _late_write_scenario, replica_class=_mirrored(ServesAfterSync), read_leases=read_leases
    ):
        assert read == "A"
        assert_stale(music, read_leases)


@LEASE_MODES
def test_an_accept_round_read_merging_only_the_local_acceptor_is_caught(monkeypatch, read_leases):
    monkeypatch.setattr(LwtProposer, "_propose", _accepting(_local_accept_only))
    for music, read in in_both_audit_modes(_stale_local_acceptor_scenario, read_leases=read_leases):
        assert read == "A"
        assert_stale(music, read_leases)


@LEASE_MODES
def test_a_mint_returning_before_its_accept_quorum_is_caught(monkeypatch, read_leases):
    monkeypatch.setattr(LwtProposer, "_propose", _accepting(_one_accept))
    for music, read in in_both_audit_modes(_stale_local_acceptor_scenario, read_leases=read_leases):
        assert read == "A"
        assert_stale(music, read_leases)
