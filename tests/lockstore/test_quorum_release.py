"""The hot path's release: one quorum row delete (DESIGN.md §7).

Each of the four points the change rests on is pinned here:

- (i) the tombstone is stamped above every cell the row can carry, so
  the delete commutes with the mint's insert, the grant's startTime and
  a forced dequeue; a tombstone stamped below a cell leaves the row
  visible and the queue stalls (the seeded mutation);
- (ii) the release's audit event and its push go out with the delete,
  before a quorum acknowledges it, and the release returns at its local
  replica's ack: nothing waits on the quorum;
- (iii) a pushed successor is granted only once its own replica has
  applied the delete;
- (iv) forcedRelease stays an LWT.

The audit's blind spot, a delete reported as sent but never written, is
seen by the queue cross-check alone (the lost-delete mutation).

And the liveness of a delete that reached one replica only: it spreads
by hinted handoff once the isolated releaser heals, or by the tombstone
repair of a merged read when the releaser crashed.
"""

import itertools

import pytest

from repro.core import MusicClient, MusicConfig, build_music
from repro.errors import ReproError
from repro.lockstore import LOCK_TABLE
from repro.lockstore.lockstore import FORCED_ROW, LockStore
from repro.store import StoreConfig
from repro.store.types import DeleteRow, Row
from tests.helpers import assert_queue_model_matches_store, run

# One lock row's writes, as stamps: the mint's ballot-stamped insert,
# the grant's clock-stamped startTime (another node's clock may run
# ahead), and a forced dequeue's ballot-stamped tombstone.
INSERT = (5_000_000.0, "music-1-0")
START = (9_000_000.0, "music-0-0")
FORCED = (7_000_000.0, "music-2-0")


def _row_after(writes):
    row = Row()
    for write in writes:
        write(row)
    return row


@pytest.mark.parametrize("order", list(itertools.permutations(range(4))))
def test_the_release_tombstone_commutes_with_every_write_of_the_row(order):
    released = build_music().replica_at("Ohio").lock_store._release_stamp()
    writes = [
        lambda row: row.apply_cell("enqueued_at", 1.0, INSERT),
        lambda row: row.apply_cell("startTime", 2.0, START),
        lambda row: row.delete(FORCED),
        lambda row: row.delete(released),
    ]
    row = _row_after(writes[index] for index in order)
    assert not row.live and row.tombstone == released


def _holder_and_waiter(music, holder_site="Ohio", waiter_site="Oregon"):
    """A holder client homed at one replica only (no failover), and a
    waiter at another site; returns their processes' shared record."""
    sim = music.sim
    record = {}
    holder = MusicClient(
        [music.replica_at(holder_site)], holder_site, client_id="holder",
        config=music.config, streams=music.streams,
    )
    waiter = music.client(waiter_site, "waiter")
    entered = sim.event()

    def hold():
        section = yield from holder.critical_section("k")
        record["holder"] = section.lock_ref
        entered.succeed()
        yield sim.timeout(400.0)  # the waiter is queued and asleep
        record["released_at"] = sim.now
        try:
            yield from section.exit()
            record["returned_at"] = sim.now
        except ReproError:
            pass  # the releaser was cut off: what it sent is all there is

    def wait():
        yield entered
        section = yield from waiter.critical_section("k", timeout_ms=600_000.0)
        record["granted_at"] = sim.now
        yield from section.exit()

    return record, [sim.process(hold()), sim.process(wait())]


def _deletes_sent(music, src):
    """Watch the lock-row deletes ``src`` sends: their send times."""
    sent = []

    def tap(message):
        if message.src == src and message.kind == "store_write" and any(
            isinstance(update, DeleteRow) for update in message.body["updates"]
        ):
            sent.append(message.sent_at)

    music.network.add_tap(tap)
    return sent


def _finish(music, processes):
    for process in processes:
        music.sim.run_until_complete(process, limit=1e9)


def _lock_row(music, site, lock_ref):
    replica = next(r for r in music.store.replicas if r.site == site)
    row = replica.local_row(LOCK_TABLE, "k", lock_ref)
    return row if row is not None and row.live else None


def test_a_tombstone_stamped_below_a_cell_leaves_the_queue_stalled(monkeypatch):
    """The seeded mutation: a tombstone stamped as a releaser whose clock
    runs a second behind the granting replica's would stamp it is below
    the grant's startTime cell, so the row stays visible everywhere and
    the next waiter is never granted."""
    monkeypatch.setattr(
        LockStore, "_release_stamp",
        lambda self: (self._stamp()[0] - 1_000_000.0, self._writer),
    )
    music = build_music(seed=1, audit=True)
    record, processes = _holder_and_waiter(music)
    music.sim.run(until=20_000.0, strict=False)
    assert "granted_at" not in record
    for site in music.profile.site_names:
        assert _lock_row(music, site, record["holder"]) is not None


def test_a_lost_delete_is_seen_by_the_queue_cross_check_alone(monkeypatch):
    """The audit's blind spot (DESIGN.md §7): a release is reported as
    its delete is sent, so a delete that is never written leaves the
    audit clean while the lockRef stays queued in the store.  Only
    ``assert_queue_model_matches_store`` compares the two."""

    def lose_the_delete(self, key, lock_ref, on_sent=None, handoff=None):
        on_sent(None, lock_ref)
        yield from ()

    monkeypatch.setattr(LockStore, "_release_row", lose_the_delete)
    music = build_music(seed=1, audit=True)

    def section():
        held = yield from music.client("Ohio").critical_section("k")
        yield from held.exit()
        return held.lock_ref

    lock_ref = run(music.sim, section())
    assert music.auditor.clean, music.auditor.render_report()
    with pytest.raises(AssertionError) as failure:
        assert_queue_model_matches_store(music, ("k",))
    assert failure.value.args == (("k", [lock_ref]),)


def test_the_release_event_and_push_go_out_with_the_delete():
    music = build_music(seed=1, audit=True)
    sent = _deletes_sent(music, "music-0-0")
    pushes = []
    music.network.add_tap(
        lambda message: pushes.append(message.sent_at)
        if message.kind == "music.grantPush" else None
    )
    record, processes = _holder_and_waiter(music)
    _finish(music, processes)
    (release,) = [
        event for event in music.auditor.events
        if event.kind == "release" and event.lock_ref == record["holder"]
    ]
    assert len(sent) == 3 and pushes
    # Emitted before any replica can apply the delete, and the push is
    # on the wire before the first WAN ack could be back.
    assert record["released_at"] <= release.t_ms <= sent[0]
    assert pushes[0] <= sent[0] < pushes[0] + 1.0
    assert music.auditor.clean, music.auditor.render_report()


def test_a_pushed_successor_is_granted_only_once_its_replica_applied_the_delete():
    music = build_music(seed=1, audit=True)
    network, sim = music.network, music.sim
    held, deliver = [], network._deliver_cb
    applied_at = {}

    def hold_back(message):
        # The delete reaches the waiter's store replica a second late;
        # the push is not held.
        if message.dst == "store-2-0" and message.kind == "store_write" and any(
            isinstance(update, DeleteRow) for update in message.body["updates"]
        ):
            held.append(message)
            if len(held) == 1:
                sim.call_at(sim.now + 1_000.0, release_held)
            return
        deliver(message)

    def release_held():
        applied_at.setdefault("t", sim.now)
        for message in held:
            deliver(message)

    network._deliver_cb = hold_back
    record, processes = _holder_and_waiter(music)
    _finish(music, processes)
    assert held and record["granted_at"] >= applied_at["t"]
    assert music.auditor.clean, music.auditor.render_report()


def test_forced_release_stays_an_lwt():
    music = build_music(seed=1)
    kinds = []
    music.network.add_tap(lambda message: kinds.append(message.kind))
    client = music.client("Ohio")
    replica = music.replica_at("Oregon")

    def preempt():
        section = yield from client.critical_section("k")
        del kinds[:]
        yield from replica.forced_release("k", section.lock_ref)
        return section.lock_ref

    lock_ref = run(music.sim, preempt())
    assert "paxos_prepare" in kinds and "paxos_commit" in kinds
    marker = next(r for r in music.store.replicas if r.site == "Oregon").local_row(
        LOCK_TABLE, "k", FORCED_ROW
    )
    assert marker.visible_values() == {"ref": lock_ref}


def test_an_isolated_releasers_delete_reaches_the_successor_by_hinted_handoff():
    """Only the releaser's own store replica applies the delete before
    its site is cut off (the release has returned at its ack).  Once the
    site heals, the releaser's hints carry the tombstone to the other
    replicas, and the successor's fuse poll finds it granted."""
    music = build_music(seed=1, audit=True)
    network, sim = music.network, music.sim
    sent = _deletes_sent(music, "music-0-0")

    def cut_off(message):
        if len(sent) == 1 and message.kind == "store_write":
            sim.call_at(sim.now + 2.0, lambda: network.isolate_site("Ohio"))
            sim.call_at(sim.now + 2_000.0, network.heal_all)

    network.add_tap(cut_off)
    record, processes = _holder_and_waiter(music)
    _finish(music, processes)
    assert _lock_row(music, "Ohio", record["holder"]) is None
    bound = (
        StoreConfig.rpc_timeout_ms + StoreConfig.hint_replay_interval_ms
        + 2 * MusicConfig.acquire_poll_max_ms
    )
    waited = record["granted_at"] - sent[0]
    assert StoreConfig.rpc_timeout_ms < waited < bound, waited
    assert music.replica_at("Ohio").coordinator.counters["hints_replayed"] >= 1
    assert music.auditor.clean, music.auditor.render_report()
    assert_queue_model_matches_store(music, ("k",))


def test_a_release_cut_off_from_its_remote_replicas_returns_at_its_local_ack():
    """Ohio is cut off as the release's delete is sent: the delete
    reaches Ohio's store replica only, and the release returns at its
    ack, well inside a millisecond.  The quorum's failure a timeout
    later is counted, and once the site heals the delete's hints reach
    the other replicas and the waiter is granted."""
    music = build_music(seed=1, audit=True)
    network, sim = music.network, music.sim
    sent, cut = _deletes_sent(music, "music-0-0"), []

    def cut_off(message):
        if sent and not cut:  # the delete's first message is on the wire
            cut.append(sim.now)
            network.isolate_site("Ohio")
            sim.call_at(sim.now + 2_000.0, network.heal_all)

    network.add_tap(cut_off)
    record, processes = _holder_and_waiter(music)
    _finish(music, processes)
    coordinator = music.replica_at("Ohio").coordinator
    assert record["returned_at"] - sent[0] < 1.0
    assert coordinator.counters["unacked_returns"] == 1
    assert coordinator.counters["hints_replayed"] == 2
    waited = record["granted_at"] - sent[0]
    bound = (
        StoreConfig.rpc_timeout_ms + StoreConfig.hint_replay_interval_ms
        + 2 * MusicConfig.acquire_poll_max_ms
    )
    assert StoreConfig.rpc_timeout_ms < waited < bound, waited
    assert music.auditor.clean, music.auditor.render_report()
    assert_queue_model_matches_store(music, ("k",))


def test_a_crashed_releasers_delete_reaches_the_successor_by_tombstone_repair():
    """The releaser at N.California crashes once its own store replica
    has applied the delete.  The detectors' quorum peeks at Ohio and
    Oregon merge N.California's tombstone and send it to the replicas
    that still served the row, so the successor is granted within a
    scan interval and a fuse poll — no forcedRelease needed."""
    config = MusicConfig(failure_detection_enabled=True, detector_scan_interval_ms=1_000.0)
    music = build_music(seed=1, audit=True, music_config=config)
    network, sim = music.network, music.sim
    sent = _deletes_sent(music, "music-1-0")

    def crash(message):
        if len(sent) == 1 and message.kind == "store_write":
            sim.call_at(sim.now + 2.0, lambda: network.fail_node("music-1-0"))

    network.add_tap(crash)
    record, processes = _holder_and_waiter(music, holder_site="N.California")
    _finish(music, processes)
    waited = record["granted_at"] - sent[0]
    assert waited < config.detector_scan_interval_ms + 2 * MusicConfig.acquire_poll_max_ms
    repairs = sum(r.coordinator.counters["tombstone_repairs"] for r in music.replicas)
    assert repairs >= 1
    assert sum(r.counters["forced_releases"] for r in music.replicas) == 0
    assert music.auditor.clean, music.auditor.render_report()
    assert_queue_model_matches_store(music, ("k",))
