"""The lock store of Section III-B / VI, realized over store LWTs.

Each key has a lock-table partition shaped like Fig. 2:

- a ``guard`` row holding a 64-bit counter whose value is constant
  across the rows of a key (the trick that yields per-key unique,
  increasing lock references with *one* consensus operation instead of
  a time-based UUID, avoiding the overflow problem of Appendix X-A3);
- one row per outstanding lockRef (clustering key = the integer
  lockRef), carrying ``enqueued_at`` and, once granted, ``startTime``.

Operations map to the paper's primitives:

- ``generate_and_enqueue``  = lsGenerateAndEnqueue: one LWT batch that
  increments the guard and inserts the queue row atomically;
- ``head`` / ``peek``       = lsPeek: an eventual read of the *local*
  replica (cheap; may briefly lag the consensus order) — ``head`` is
  the one partition read every caller shares, returning the first
  queued lockRef plus the two marker rows below; ``peek`` and
  ``peek_quorum`` are its entry-only forms;
- ``dequeue``               = lsDequeue: an LWT row delete (no-op if
  the lockRef is no longer queued); on the hot path a clean release is
  one quorum row delete instead, batched with the hand-off row and
  returning at the local replica's ack (DESIGN.md §7);
- ``set_start_time``        — records the lease start when a lock is
  granted, used for the T-bound on critical sections (Section VI).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..errors import LockContention, ReproError
from ..sim import NodeClock
from ..store import Condition, Consistency, StoreCoordinator
from ..store.paxos import no_accept_read
from ..store.types import DeleteRow, Update

__all__ = ["FORCED_ROW", "HANDOFF_ROW", "LOCK_TABLE", "LockEntry", "LockStore"]

LOCK_TABLE = "music_locks"
GUARD_ROW = "guard"
# The forced-release marker (DESIGN.md §7): written atomically with a
# *forced* dequeue (same LWT mutation batch), never by a clean release.
# Its cell stamp is the per-key forced-release epoch an early grant read
# is taken under, and its value the forcibly released lockRef, the
# revocation a hand-off and a replica's mirror entries die by (§8): a
# local read cannot show the row gone without it.  Like the guard it is
# a string clustering, so queue reads (which keep only int clusterings)
# never see it.
FORCED_ROW = "__forced__"
# The hand-off row (DESIGN.md §7): written by a hot-path clean release in
# the same quorum batch as its row delete, its one cell the (value,
# stamp) the holder last acknowledged.  The cell is stamped by the
# released lockRef, so the newest release a replica applied wins, and
# its stamp is where the ref is read from: every read of the partition
# carries the row, so it holds nothing more.  The successor's guard read
# returns it.
HANDOFF_ROW = "__handoff__"
# Guard-read + CAS rounds a mint tries before raising LockContention.
MAX_ENQUEUE_ATTEMPTS = 20


@dataclass(frozen=True, slots=True)
class LockEntry:
    """One queued lockRef as seen by a peek (shared by every peek that
    decoded the same read, so it cannot be changed)."""

    lock_ref: int
    enqueued_at: Optional[float]
    start_time: Optional[float]


# What a head read decodes to: (first entry, forced epoch, forced ref,
# hand-off) — the hand-off is (released ref, (value, stamp)), or None
# when no release here handed one on.
HandOff = Tuple[int, Tuple[Any, Any]]
Head = Tuple[Optional[LockEntry], Any, Optional[int], Optional[HandOff]]


def _successor(rows: Any, lock_ref: int, decided: bool = False) -> Optional[int]:
    """The lockRef a dequeue LWT of ``lock_ref`` hands the lock to: the
    queue head once ``lock_ref`` is removed, read from the LWT's
    condition ``rows`` (if ``decided``, rows read after it applied).
    None if ``lock_ref`` did not head those rows, or there were none."""
    if rows is None:
        return None
    queued = LockStore._lock_refs(rows)
    if decided:
        queued.append(lock_ref)
    if not queued or min(queued) != lock_ref:
        return None
    return min((ref for ref in queued if ref != lock_ref), default=None)


class LockStore:
    """Lock-queue operations bound to one coordinator (one MUSIC replica)."""

    def __init__(
        self,
        coordinator: StoreCoordinator,
        clock: NodeClock,
        batched: bool = False,
        on_head: Optional[Tuple[str, Callable[[str, int, Any, Any, float], None]]] = None,
    ) -> None:
        self.coordinator = coordinator
        self.clock = clock
        # The hot path (DESIGN.md §7): mint group commit, three-round
        # LWTs (the read rides the promise) and a clean release as one
        # quorum row delete; off keeps the seed's path bit-identical.  At
        # most one mint per key of this coordinator is in flight: mints
        # arriving meanwhile wait in the key's list, and the hand-off
        # mints for them in one batch (:meth:`_flush`).
        self.batched = batched
        # (table, hook): an uncontended three-round mint (_head_read)
        # mints a ref that already heads the linearized queue, so it
        # reads ``table``'s partition of the key in its accept round,
        # returns at its local commit, and calls ``hook`` with (key,
        # lockRef, forced epoch, the read's rows, when it started).
        self.on_head = on_head
        self.sim = coordinator.sim
        # key -> the events of the mints waiting (absent: idle).
        self._queued: Dict[str, List[Any]] = {}
        # key -> (the rows of its last head read, their decode).  A
        # single-replica read of an unchanged partition hands back the
        # same read-only view object, so its decode is reused; any other
        # read is a new object and is decoded afresh.
        self._heads: Dict[str, Tuple[Any, Head]] = {}
        self._writer = coordinator.node.node_id
        self.obs = coordinator.node.obs
        # Guard conflicts per key, batch flushes per writer: the tally
        # names its own labels (TALLY_NAMES["lockstore"]).
        self.counters = {
            "enqueue_conflicts": defaultdict(int), "batch_flushes": defaultdict(int),
        }
        self.obs.tally("lockstore", self)

    def _stamp(self) -> Tuple[float, str]:
        """A lock-table stamp in the same units as CAS ballot stamps
        (microseconds), so non-LWT cell writes (startTime) normally
        dominate the LWT row insert they follow."""
        return (self.clock.now() * 1000.0, self._writer)

    # -- lsGenerateAndEnqueue ---------------------------------------------------

    def generate_and_enqueue(self, key: str) -> Generator[Any, Any, int]:
        """Atomically mint the next lockRef for ``key`` and enqueue it:
        the paper's guarded LWT batch (see :meth:`_mint`).

        With LWT group commit enabled, a mint that finds a same-key LWT
        of this coordinator in flight waits for it, then shares one guard
        CAS with the other mints queued meanwhile.
        """
        if self.batched:
            if key in self._queued:
                ref = yield from self._wait_turn(key)
                return ref
            self._queued[key] = []
        try:
            mint = self._mint(key, 1)
            tracer = self.obs.tracer
            if tracer.enabled:
                mint = tracer.around(mint, "lockstore.enqueue", node=self._writer, key=key)
            refs = yield from mint
        finally:
            if self.batched:
                self._handoff(key)
        return refs[0]

    @staticmethod
    def _queue_empty(rows: Any) -> bool:
        """Whether a mint's promise rows show no queued lockRef.  Kept as
        a hook point so a mutation test can take the accept-round read
        whatever the decided queue shows."""
        return not any(isinstance(clustering, int) for clustering in rows)

    def _head_read(self, key: str, rows: Any) -> Optional[str]:
        """What a mint of ``key`` reads in its accept round, asked on its
        promise rows: ``on_head``'s table if the mint is uncontended,
        else nothing.  Uncontended: the rows show no queued lockRef (they are
        a quorum read repaired to the newest commit, so that is the
        queue the mint decides on) and no mint of the key waits behind
        it here.  A mint waiting here would prepare while the commit
        still spreads, and repair the acceptors that lack it: returning
        before the commit saves the key nothing (DESIGN.md §7)."""
        if self.on_head is None or not self._queue_empty(rows) or self._queued.get(key):
            return None
        table, _hook = self.on_head
        return table

    @staticmethod
    def _batch_guard_target(base: int, enqueues: int) -> int:
        """The guard value after minting ``enqueues`` refs above ``base``.

        Kept as a hook point so mutation tests can break batch atomicity
        (advance the guard by less than the refs handed out) and prove
        the runtime auditor flags the duplicate mint.
        """
        return base + enqueues

    def _mint(self, key: str, count: int) -> Generator[Any, Any, List[int]]:
        """Mint ``count`` consecutive lockRefs in one LWT: read the guard
        with an eventual read, then conditionally advance it and insert
        the queue rows, retrying the whole sequence if another client won
        the race.  A plain mint is the ``count=1`` batch."""
        for attempt in range(MAX_ENQUEUE_ATTEMPTS):
            rows = yield from self.coordinator.get(
                LOCK_TABLE, key, clustering=GUARD_ROW, consistency=Consistency.ONE
            )
            guard = None
            if GUARD_ROW in rows:
                guard = rows[GUARD_ROW].visible_values().get("value")
            base = guard or 0
            stamp = self._stamp()
            refs = [base + 1 + i for i in range(count)]
            enqueued_at = self.clock.now()
            mutations: List[Any] = [
                Update(
                    LOCK_TABLE, key, GUARD_ROW,
                    {"value": self._batch_guard_target(base, count)}, stamp,
                )
            ]
            for ref in refs:
                mutations.append(
                    Update(
                        LOCK_TABLE, key, ref,
                        {"enqueued_at": enqueued_at, "startTime": None}, stamp,
                    )
                )
            # The batch linearizes at the guard CAS's decide point, not
            # after the commit acks: a rival mint can observe the new
            # guard (and emit its own event) during our commit round,
            # and the auditor linearizes by event order.  So the enqueue
            # audit events fire there, ascending (the FIFO checker
            # requires mint order == linearization order).
            audit = self.obs.audit
            emitted = []

            def committing(rows, refs=refs, attempt=attempt, recovered=False) -> None:
                emitted.append(True)
                if audit.enabled:
                    for ref in refs:
                        audit.emit(
                            "enqueue", key=key, node=self._writer,
                            lock_ref=ref, attempts=attempt + 1,
                            recovered=recovered,
                        )

            result = yield from self.coordinator.cas(
                LOCK_TABLE,
                key,
                Condition("col_eq", GUARD_ROW, column="value", expected=guard),
                mutations,
                # Lock-table stamps must follow the CAS linearization
                # order, not coordinator clocks (which may disagree).
                stamp_with_ballot=True,
                on_committing=committing,
                on_recovered=self._recovered,
                # The hot path's read rides the promise; an uncontended
                # mint also reads in its accept round (_head_read).
                read_in_promise=self._head_read if self.batched else None,
            )
            if result.applied:
                if result.read is not None:
                    marker = result.current.get(FORCED_ROW)
                    epoch = None if marker is None else marker.cell_stamp("ref")
                    _table, hook = self.on_head
                    hook(key, refs[0], epoch, *result.read)
                tracer = self.obs.tracer
                if tracer.enabled:
                    tracer.current_span().set(attempts=attempt + 1)
                if not emitted:
                    # A rival coordinator's recovery completed our
                    # partially-accepted proposal: the mint took effect
                    # earlier than now, so the events carry
                    # recovered=True (their emission time is not their
                    # linearization time).
                    committing(result.current, recovered=True)
                return refs
            # Someone else advanced the guard first; re-read and retry.
            # Guard contention is the LWT contention rate of the
            # motivation: another client won this key's lockRef race.
            self.counters["enqueue_conflicts"][key] += 1
        raise LockContention(
            f"could not mint {count} lockRef(s) for {key!r} after "
            f"{MAX_ENQUEUE_ATTEMPTS} attempts"
        )

    # -- lsPeek -----------------------------------------------------------------

    def head(
        self, key: str, consistency: str = Consistency.LOCAL_ONE
    ) -> Generator[Any, Any, Head]:
        """The one lock-partition head read: ``(entry, forced_epoch,
        forced_ref, handoff)``, all decoded from a single partition
        read, once per version of the partition a replica publishes.

        ``entry`` is the first queued lockRef (None on an empty queue).
        At the default ``LOCAL_ONE`` this is the cheap polling primitive
        of acquireLock: it never crosses the WAN, so it may lag behind
        the consensus order — the callers treat a stale answer as
        "retry later", which is safe.

        ``forced_epoch`` is the LWW stamp of the ``FORCED_ROW`` marker
        cell and ``forced_ref`` the lockRef it names, the last one a
        forced dequeue applied here removed (both None if no
        forcedRelease ever applied here).  CAS ballot stamps grow
        strictly per partition, so every applied forced dequeue changes
        the epoch.  ``handoff`` is the ``HANDOFF_ROW`` as ``(released
        ref, (value, stamp))``.  All three ride the read the peek
        performs anyway, so a guard that consults them costs exactly
        what the plain guard costs.

        On the hot path a local read is trusted only without a gap below
        its head (:meth:`_gap`); one with a gap is read again at QUORUM.
        """
        local = self.batched and consistency != Consistency.QUORUM
        read = self.coordinator.get(LOCK_TABLE, key, consistency=consistency, tombstones=local)
        tracer = self.obs.tracer
        if tracer.enabled:
            read = tracer.around(read, "lockstore.peek", node=self._writer, key=key)
        reply = yield from read
        rows, dead = reply if local else (reply, None)
        memo = self._heads.get(key)
        if memo is not None and memo[0] is rows:
            return memo[1]
        epoch = forced = handoff = None
        marker = rows.get(FORCED_ROW)
        if marker is not None:
            epoch = marker.cell_stamp("ref")
            forced = marker.visible_values().get("ref")
        marker = rows.get(HANDOFF_ROW)
        if marker is not None:
            handoff = int(marker.cell_stamp("value")[0]), marker.visible_values().get("value")
        refs = self._lock_refs(rows)
        entry = None
        if refs:
            first_ref = min(refs)
            if dead is not None and self._gap(first_ref, forced, handoff, dead):
                return (yield from self.head(key, Consistency.QUORUM))
            entry = self._entry(first_ref, rows[first_ref])
        head = entry, epoch, forced, handoff
        self._heads[key] = rows, head
        return head

    @staticmethod
    def _gap(first_ref: int, forced: Optional[int], handoff: Optional[HandOff], dead: Any) -> bool:
        """Whether a local read whose first queued ref is ``first_ref`` may
        lack a lower one that is still queued: a replica that missed a
        mint's commit can apply a later one (DESIGN.md §7).  Each marker
        row names a ref that headed the queue, so every ref at or below
        the newest it names is dead; each ref above that and below
        ``first_ref`` must show its tombstone in ``dead``."""
        floor = max(forced or 0, handoff[0] if handoff is not None else 0)
        return any(ref not in dead for ref in range(floor + 1, first_ref))

    def last_head(self, key: str) -> Optional[Head]:
        """The decode of the last head read of ``key`` here, None if the
        memo holds none (no I/O)."""
        memo = self._heads.get(key)
        return None if memo is None else memo[1]

    def places_behind(self, key: str, lock_ref: int) -> int:
        """How many places behind the queue head the last head read of
        ``key`` here found ``lock_ref``, at least 1 (no I/O)."""
        memo = self._heads.get(key)
        entry = None if memo is None else memo[1][0]
        if entry is None or entry.lock_ref >= lock_ref:
            return 1
        return lock_ref - entry.lock_ref

    def peek(self, key: str) -> Generator[Any, Any, Optional[LockEntry]]:
        """lsPeek: the first lockRef in the *local* replica's queue."""
        entry, _, _, _ = yield from self.head(key)
        return entry

    def peek_quorum(self, key: str) -> Generator[Any, Any, Optional[LockEntry]]:
        """A quorum peek (used by failure detection to avoid acting on
        an arbitrarily stale local view)."""
        entry, _, _, _ = yield from self.head(key, Consistency.QUORUM)
        return entry

    def queue(self, key: str) -> Generator[Any, Any, list]:
        """The whole local queue in lockRef order (diagnostics/tests)."""
        rows = yield from self.coordinator.get(
            LOCK_TABLE, key, consistency=Consistency.LOCAL_ONE
        )
        return [self._entry(ref, rows[ref]) for ref in sorted(self._lock_refs(rows))]

    @staticmethod
    def _lock_refs(rows: Dict) -> List[int]:
        """The queued lockRefs of a lock-partition read: its integer
        clustering keys (the guard and the marker rows are strings)."""
        return [clustering for clustering in rows if isinstance(clustering, int)]

    @staticmethod
    def _entry(lock_ref: int, row) -> LockEntry:
        values = row.visible_values()
        return LockEntry(
            lock_ref=lock_ref,
            enqueued_at=values.get("enqueued_at"),
            start_time=values.get("startTime"),
        )

    # -- lsDequeue ----------------------------------------------------------------

    def dequeue(
        self,
        key: str,
        lock_ref: int,
        forced: bool = False,
        on_committing=None,
        handoff: Optional[Tuple[Any, Any]] = None,
    ) -> Generator[Any, Any, bool]:
        """Remove ``lock_ref`` from the queue.

        Returns True whether the row was removed now or already gone
        (the paper's "no-op if lockRef not in queue").

        A clean release on the hot path is one quorum row delete
        (:meth:`_release_row`); anything else is the exists-conditioned
        LWT delete.  ``forced=True`` marks a forcedRelease preemption:
        the delete also writes the key's forced-release marker row in
        the *same* LWT, so a replica that applies the preemption sees the
        forced ref beside a hand-off row it revokes, and a new epoch that
        an early grant read taken before it does not match: either way
        the grant falls back to the quorum synchFlag read.  The marker is
        written only when the delete actually applies — a forced dequeue
        that loses the exists race to a clean release preempted nobody.

        ``on_committing`` is called once with the successor: the lockRef
        this dequeue hands the lock to, or None if ``lock_ref`` was not
        the head of the queue the dequeue read (a waiter leaving from the
        middle hands nobody the lock).  An LWT calls it at its decide
        point (see :meth:`StoreCoordinator.cas`), or on return when a
        rival's recovery decided it; a quorum delete calls it as the
        delete is sent.

        ``handoff``, the ``(value, stamp)`` the holder hands on, is
        written to ``HANDOFF_ROW`` by the quorum delete's batch (only
        there: every other dequeue hands nothing on).
        """
        if self.batched and not forced:
            yield from self._release_row(key, lock_ref, on_committing, handoff)
        else:
            yield from self._dequeue_cas(key, lock_ref, forced, on_committing)
        return True

    def _release_stamp(self) -> Tuple[float, str]:
        """A released row's tombstone: above every cell the row can carry
        — the mint's ballot-stamped insert and the grant's startTime,
        whose clock may run ahead of ours.  A lockRef is never minted
        again, so nothing written to the row later has to survive.  (The
        mutation tests stamp it below a cell and see the queue stall.)"""
        return (math.inf, self._writer)

    def _release_row(
        self, key: str, lock_ref: int, on_sent=None, handoff=None
    ) -> Generator[Any, Any, None]:
        """The hot path's clean release: one quorum write of an
        unconditioned row delete, which commutes with every concurrent
        mint and forced dequeue (DESIGN.md §7), and of the hand-off row
        when ``handoff`` is given: one batch, so a replica that applies
        the release applies both.  ``on_sent`` is called as
        the delete is sent, since a successor's replica may apply it
        before a quorum acks.  It gets the successor the last head read
        of ``key`` here shows and, unless ``lock_ref`` leaves from behind
        a queued ref, ``lock_ref`` itself: that read may lack a mint that
        has not reached this replica yet, so the push also wakes the
        first waiter above ``lock_ref`` at each replica.  The release
        returns at the local replica's ack, and the quorum settles
        behind it: nothing waits on it (DESIGN.md §7)."""
        memo = self._heads.get(key)
        queued = [] if memo is None else self._lock_refs(memo[0])
        if on_sent is not None:
            if any(ref < lock_ref for ref in queued):
                on_sent(None)  # leaving from mid-queue hands nobody the lock
            else:
                on_sent(min((ref for ref in queued if ref > lock_ref), default=None), lock_ref)
        if all(ref == lock_ref for ref in queued):
            # The release leaves the memo no queued ref: a later head read
            # here decodes afresh, so a key's memo lives while its queue does.
            self._heads.pop(key, None)
        batch: List[Any] = [DeleteRow(LOCK_TABLE, key, lock_ref, self._release_stamp())]
        if handoff is not None:
            stamp = (float(lock_ref), self._writer)
            batch.append(Update(LOCK_TABLE, key, HANDOFF_ROW, {"value": handoff}, stamp))
        delete = self.coordinator.write(batch, Consistency.QUORUM, local=True)
        tracer = self.obs.tracer
        if tracer.enabled:
            delete = tracer.around(delete, "lockstore.dequeue", node=self._writer, key=key)
        yield from delete

    def _dequeue_cas(
        self, key: str, lock_ref: int, forced: bool = False, on_committing=None
    ) -> Generator[Any, Any, None]:
        """The exists-conditioned dequeue LWT; a forced dequeue is the
        plain one plus the marker mutation.  An unapplied CAS means the
        row was already gone: still a success."""
        stamp = self._stamp()
        mutations: List[Any] = [DeleteRow(LOCK_TABLE, key, lock_ref, stamp)]
        if forced:
            mutations.append(Update(LOCK_TABLE, key, FORCED_ROW, {"ref": lock_ref}, stamp))
        fired = []

        def hook(rows: Any) -> None:
            fired.append(True)
            on_committing(_successor(rows, lock_ref))

        lwt = self.coordinator.cas(
            LOCK_TABLE,
            key,
            Condition("exists", clustering=lock_ref),
            mutations,
            stamp_with_ballot=True,  # the tombstone must beat the insert
            on_committing=None if on_committing is None else hook,
            on_recovered=self._recovered,
            read_in_promise=no_accept_read if self.batched else None,
        )
        tracer = self.obs.tracer
        if tracer.enabled:
            attrs = {"forced": True} if forced else {}
            lwt = tracer.around(lwt, "lockstore.dequeue", node=self._writer, key=key, **attrs)
        result = yield from lwt
        if on_committing is not None and not fired:
            # Decided before this proposer saw it: its read phase found
            # the queue as the dequeue left it.
            on_committing(_successor(result.current, lock_ref, decided=True))

    def _recovered(self, mutation: Sequence[Any]) -> None:
        """Report the dequeues of a rival's LWT that this coordinator
        decided by completing its in-progress proposal.  That decide is
        where they take effect, and their own proposer may learn of it
        only after a successor was granted."""
        audit = self.obs.audit
        if not audit.enabled:
            return
        forced = any(update.clustering == FORCED_ROW for update in mutation)
        for update in mutation:
            if isinstance(update, DeleteRow):
                audit.emit(
                    "forced_release" if forced else "release", key=update.partition,
                    node=self._writer, lock_ref=update.clustering, recovered=True,
                )

    # -- mint group commit (DESIGN.md §7) ---------------------------------------

    def _wait_turn(self, key: str) -> Generator[Any, Any, int]:
        """Queue a mint behind the key's mint in flight; its lockRef."""
        event = self.sim.event(name=f"lwtbatch:enqueue:{key}")
        self._queued[key].append(event)
        ref = yield event
        return ref

    def _handoff(self, key: str) -> None:
        """End the key's mint in flight: flush the mints that queued
        behind it, or go idle."""
        waiting = self._queued.pop(key)
        if waiting:
            self._queued[key] = []
            self.sim.process(self._flush(key, waiting), name=f"lwtbatch:{key}")

    def _flush(self, key: str, waiting: List[Any]) -> Generator[Any, Any, None]:
        """Mint one lockRef for each of the ``waiting`` in one guard CAS."""
        try:
            mint = self._mint(key, len(waiting))
            tracer = self.obs.tracer
            if tracer.enabled:
                mint = tracer.around(
                    mint, "lockstore.batchFlush", node=self._writer, key=key,
                    size=len(waiting),
                )
            refs = yield from mint
            self.counters["batch_flushes"][self._writer] += 1
            for event, ref in zip(waiting, refs):
                event.succeed(ref)
        except ReproError as error:
            # Surface the store-layer failure to every waiter; clients
            # treat it exactly like a non-batched LWT failure (retry or
            # fail over).
            for event in waiting:
                event.fail(error)
        finally:
            self._handoff(key)

    # -- lease bookkeeping -----------------------------------------------------------

    def set_start_time(self, key: str, lock_ref: int, start_time: float) -> Generator[Any, Any, None]:
        """Record the lease start for a granted lockRef.

        An eventual write: the value still reaches every replica, but the
        grant does not wait for the WAN (the paper's measured grant cost
        is only the synchFlag quorum read, Fig. 5b).  Lease enforcement
        tolerates a briefly-missing startTime — the detector falls back
        to the orphan timeout and criticalPut re-reads at quorum.
        """
        yield from self.coordinator.put(
            LOCK_TABLE,
            key,
            lock_ref,
            {"startTime": start_time},
            self._stamp(),
            consistency=Consistency.ONE,
        )

    def get_entry(
        self, key: str, lock_ref: int, consistency: str = Consistency.LOCAL_ONE
    ) -> Generator[Any, Any, Optional[LockEntry]]:
        """Read one queue row (e.g. to recover a startTime not yet local)."""
        rows = yield from self.coordinator.get(
            LOCK_TABLE, key, clustering=lock_ref, consistency=consistency
        )
        if lock_ref not in rows:
            return None
        return self._entry(lock_ref, rows[lock_ref])
