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
  the lockRef is no longer queued);
- ``set_start_time``        — records the lease start when a lock is
  granted, used for the T-bound on critical sections (Section VI).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Collection, Dict, Generator, List, Optional, Sequence, Tuple

from ..errors import LockContention, ReproError
from ..sim import NodeClock
from ..store import Condition, Consistency, StoreCoordinator
from ..store.types import DeleteRow, Update

__all__ = ["FORCED_ROW", "LEASE_ROW", "LOCK_TABLE", "LockEntry", "LockStore"]

LOCK_TABLE = "music_locks"
GUARD_ROW = "guard"
# The read-lease revocation row (DESIGN.md §10): written atomically with
# a forced dequeue when the lock store runs with ``lease_rows=True``,
# carrying the highest forcibly-revoked lockRef.  A leaseholder's local
# guard read returns it from the same partition read, so a revoked
# holder's lease dies the moment the preemption reaches its replica —
# fused into the same LWT as the dequeue, there is no window where the
# queue row is gone but the revocation is invisible.
LEASE_ROW = "__lease__"
# The forced-release epoch marker (DESIGN.md §9): written atomically
# with a *forced* dequeue (same LWT mutation batch), never by a clean
# release.  Its cell stamp is the per-key forced-release epoch the
# synchFlag fast path compares against; like the guard it is a string
# clustering, so queue reads (which keep only int clusterings) never
# see it.
FORCED_ROW = "__forced__"
# Group commit's extra accumulation window before a flush, so ops
# landing just behind the queued ones share the round too.
BATCH_WINDOW_MS = 2.0
# Cap on ops per group-commit flush: a slow coordinator otherwise grows
# ever-larger mint batches, minting long runs of consecutive lockRefs
# that serialize the grant order onto one site (and its quorum
# geometry).  Excess ops simply wait for the next self-clocked flush.
BATCH_MAX_OPS = 4
# Guard-read + CAS rounds a mint tries before raising LockContention.
MAX_ENQUEUE_ATTEMPTS = 20


@dataclass
class _BatchOp:
    """One queue mutation waiting in a group-commit batch."""

    kind: str  # "enqueue" | "dequeue"
    lock_ref: Optional[int]
    event: Any  # sim Event resolved with the op's result
    on_committing: Optional[Any] = None  # advisory hook, see coordinator.cas


@dataclass(frozen=True, slots=True)
class LockEntry:
    """One queued lockRef as seen by a peek (shared by every peek that
    decoded the same read, so it cannot be changed)."""

    lock_ref: int
    enqueued_at: Optional[float]
    start_time: Optional[float]


# What a head read decodes to: (first entry, forced epoch, revoked ref).
Head = Tuple[Optional[LockEntry], Any, Optional[int]]


def _successor(
    rows: Any, lock_ref: int, gone: Collection[int], minted: Sequence[int] = (),
    decided: bool = False,
) -> Optional[int]:
    """The lockRef a dequeue of ``lock_ref`` hands the lock to: the queue
    head once its LWT has removed ``gone`` and added ``minted``, read
    from the ``rows`` the LWT's condition was evaluated on (or, if
    ``decided``, read after the LWT applied).  None if ``lock_ref`` did
    not head those rows, or there were none."""
    if rows is None:
        return None
    queued = LockStore._lock_refs(rows)
    if decided:
        queued += gone
    if not queued or min(queued) != lock_ref:
        return None
    return min([ref for ref in queued if ref not in gone] + list(minted), default=None)


class LockStore:
    """Lock-queue operations bound to one coordinator (one MUSIC replica)."""

    def __init__(
        self,
        coordinator: StoreCoordinator,
        clock: NodeClock,
        batched: bool = False,
        lease_rows: bool = False,
    ) -> None:
        self.coordinator = coordinator
        self.clock = clock
        # Read leases (DESIGN.md §10): forced dequeues also write the
        # LEASE_ROW revocation marker.  Off by default — the extra
        # mutation would not change timings, but the schema stays
        # byte-identical to the seed unless the feature is on.
        self.lease_rows = lease_rows
        # LWT group commit (DESIGN.md §9): off keeps the one-round-per-op
        # seed path bit-identical.  The commit is self-clocking: an op
        # finding the key idle runs the plain one-op LWT immediately
        # (holding the key's busy token); ops arriving while an LWT is
        # in flight queue up and are flushed as one guarded batch when
        # the token frees.
        self.batched = batched
        self.sim = coordinator.sim
        self._batches: Dict[str, List[_BatchOp]] = {}
        self._busy: Dict[str, bool] = {}
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
        # Ballot-loss priority (batch mode only; 1.0 = seed schedule):
        # dequeues sit on the serial lock-handover chain, so they
        # re-contest a lost ballot quickly, while mint batches — whose
        # latency is hidden by queue wait — yield the partition.
        self._dequeue_backoff_scale = 0.25 if batched else 1.0
        self._mint_backoff_scale = 2.0 if batched else 1.0

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
        of this coordinator in flight rides its flush instead, sharing
        one Paxos round with the other queued ops.
        """
        if self.batched:
            if self._busy.get(key):
                ref = yield from self._submit_op(key, _BatchOp("enqueue", None, None))
                return ref
            self._busy[key] = True
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
    def _batch_guard_target(base: int, enqueues: int) -> int:
        """The guard value after minting ``enqueues`` refs above ``base``.

        Kept as a hook point so mutation tests can break batch atomicity
        (advance the guard by less than the refs handed out) and prove
        the runtime auditor flags the duplicate mint.
        """
        return base + enqueues

    def _mint(
        self, key: str, count: int, dequeues: Sequence[_BatchOp] = ()
    ) -> Generator[Any, Any, List[int]]:
        """Mint ``count`` consecutive lockRefs (and apply ``dequeues``)
        in one LWT: read the guard with an eventual read, then
        conditionally advance it and insert the queue rows, retrying the
        whole sequence if another client won the race.  A plain mint is
        the ``count=1``, no-dequeue batch."""
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
            for op in dequeues:
                mutations.append(DeleteRow(LOCK_TABLE, key, op.lock_ref, stamp))
            # The whole batch linearizes at the guard CAS's decide
            # point, not after the commit acks: a rival mint can observe
            # the new guard (and emit its own event) during our commit
            # round, and the auditor linearizes by event order.  So the
            # enqueue audit events (ascending — the FIFO checker
            # requires mint order == linearization order) and the
            # dequeues' decided-hooks all fire there, each told its
            # successor: the queue head after the whole batch.
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
                gone = {op.lock_ref for op in dequeues}
                for op in dequeues:
                    if op.on_committing is not None:
                        op.on_committing(
                            _successor(rows, op.lock_ref, gone, refs, decided=recovered)
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
                backoff_scale=self._mint_backoff_scale,
                on_recovered=self._recovered,
            )
            if result.applied:
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
        revoked_ref)``, all decoded from a single partition read, once
        per version of the partition a replica publishes.

        ``entry`` is the first queued lockRef (None on an empty queue).
        At the default ``LOCAL_ONE`` this is the cheap polling primitive
        of acquireLock: it never crosses the WAN, so it may lag behind
        the consensus order — the callers treat a stale answer as
        "retry later", which is safe.

        ``forced_epoch`` is the LWW stamp of the ``FORCED_ROW`` marker
        cell (None if no forcedRelease ever applied here).  CAS ballot
        stamps grow strictly per partition, so every applied forced
        dequeue changes it.  ``revoked_ref`` is the highest lockRef a
        forced dequeue has revoked as written to ``LEASE_ROW`` (None if
        none).  Both ride the read the peek performs anyway, so a guard
        that consults them costs exactly what the plain guard costs.
        """
        read = self.coordinator.get(LOCK_TABLE, key, consistency=consistency)
        tracer = self.obs.tracer
        if tracer.enabled:
            read = tracer.around(read, "lockstore.peek", node=self._writer, key=key)
        rows = yield from read
        memo = self._heads.get(key)
        if memo is not None and memo[0] is rows:
            return memo[1]
        epoch = revoked = None
        marker = rows.get(FORCED_ROW)
        if marker is not None:
            epoch = marker.cell_stamp("ref")
        marker = rows.get(LEASE_ROW)
        if marker is not None:
            revoked = marker.visible_values().get("revoked")
        refs = self._lock_refs(rows)
        entry = None
        if refs:
            first_ref = min(refs)
            entry = self._entry(first_ref, rows[first_ref])
        head = entry, epoch, revoked
        self._heads[key] = rows, head
        return head

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
        entry, _, _ = yield from self.head(key)
        return entry

    def peek_quorum(self, key: str) -> Generator[Any, Any, Optional[LockEntry]]:
        """A quorum peek (used by failure detection to avoid acting on
        an arbitrarily stale local view)."""
        entry, _, _ = yield from self.head(key, Consistency.QUORUM)
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
    ) -> Generator[Any, Any, bool]:
        """Remove ``lock_ref`` from the queue via an LWT delete.

        Returns True whether the row was removed now or already gone
        (the paper's "no-op if lockRef not in queue").

        ``forced=True`` marks a forcedRelease preemption: the delete also
        bumps the key's forced-release epoch row in the *same* LWT, so a
        fast-path replica whose cached epoch predates the preemption is
        guaranteed to see a changed marker stamp and fall back to the
        quorum synchFlag read.  The marker is written only when the
        delete actually applies — a forced dequeue that loses the exists
        race to a clean release preempted nobody and must not invalidate
        fast-path caches.

        ``on_committing`` (advisory decided-hook; see
        :meth:`StoreCoordinator.cas`) is called once with the successor:
        the lockRef this dequeue hands the lock to, or None if
        ``lock_ref`` was not the head of the queue the LWT read (a waiter
        leaving from the middle hands nobody the lock).  One a rival's LWT
        recovery decided is called on return, from the rows that showed it.
        """
        # Group commit covers clean releases only: take the busy token
        # so concurrent mints queue behind this dequeue instead of
        # racing its ballot (the dequeue itself runs the plain LWT —
        # release latency is on the lock handover path).
        token = self.batched and not forced
        if token:
            if self._busy.get(key):
                # A same-key LWT from this coordinator is already in
                # flight (or accumulating): ride the next flush rather
                # than racing its ballot — two proposers from one node
                # can only lose rounds to each other.
                result = yield from self._submit_op(
                    key, _BatchOp("dequeue", lock_ref, None, on_committing)
                )
                return result
            self._busy[key] = True
        try:
            yield from self._dequeue_cas(key, lock_ref, forced, on_committing)
        finally:
            if token:
                self._handoff(key)
        return True

    def _dequeue_cas(
        self, key: str, lock_ref: int, forced: bool = False, on_committing=None
    ) -> Generator[Any, Any, None]:
        """The one exists-conditioned dequeue LWT; a forced dequeue is
        the plain one plus the marker mutations.  An unapplied CAS means
        the row was already gone: still a success."""
        stamp = self._stamp()
        mutations: List[Any] = [DeleteRow(LOCK_TABLE, key, lock_ref, stamp)]
        if forced:
            mutations.append(Update(LOCK_TABLE, key, FORCED_ROW, {"ref": lock_ref}, stamp))
            if self.lease_rows:
                # Lease revocation fused into the preemption LWT: a
                # replica whose local partition still shows the old
                # queue row cannot see it without also seeing this.
                mutations.append(
                    Update(
                        LOCK_TABLE, key, LEASE_ROW,
                        {"revoked": lock_ref, "by": self._writer}, stamp,
                    )
                )
        gone, fired = (lock_ref,), []

        def hook(rows: Any) -> None:
            fired.append(True)
            on_committing(_successor(rows, lock_ref, gone))

        lwt = self.coordinator.cas(
            LOCK_TABLE,
            key,
            Condition("exists", clustering=lock_ref),
            mutations,
            stamp_with_ballot=True,  # the tombstone must beat the insert
            on_committing=None if on_committing is None else hook,
            on_recovered=self._recovered,
            # In batch mode the dequeue is the lock handover: on a ballot
            # loss re-contest quickly instead of ceding the partition to
            # off-chain mints (which back off longer).
            backoff_scale=self._dequeue_backoff_scale,
        )
        tracer = self.obs.tracer
        if tracer.enabled:
            attrs = {"forced": True} if forced else {}
            lwt = tracer.around(lwt, "lockstore.dequeue", node=self._writer, key=key, **attrs)
        result = yield from lwt
        if on_committing is not None and not fired:
            # Decided before this proposer saw it: its read phase found
            # the queue as the dequeue left it.
            on_committing(_successor(result.current, lock_ref, gone, decided=True))

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

    # -- LWT group commit (DESIGN.md §9) ----------------------------------------

    def _submit_op(self, key: str, op: _BatchOp) -> Generator[Any, Any, Any]:
        op.event = self.sim.event(name=f"lwtbatch:{op.kind}:{key}")
        self._batches.setdefault(key, []).append(op)
        result = yield op.event
        return result

    def _handoff(self, key: str) -> None:
        """Release the key's busy token: flush anything that queued up
        while the last LWT was in flight, or go idle."""
        if self._batches.get(key):
            self.sim.process(self._flush(key), name=f"lwtbatch:{key}")
        else:
            self._busy[key] = False

    def _flush(self, key: str) -> Generator[Any, Any, None]:
        """Commit every queued op for ``key`` in one guarded LWT."""
        yield self.sim.timeout(BATCH_WINDOW_MS)
        queued = self._batches.get(key, [])
        # Bounded flush: the excess waits for the next self-clocked one.
        ops = queued[:BATCH_MAX_OPS]
        if len(queued) > BATCH_MAX_OPS:
            self._batches[key] = queued[BATCH_MAX_OPS:]
        else:
            self._batches.pop(key, None)
        try:
            if ops:
                yield from self._flush_ops(key, ops)
        except ReproError as error:
            # Surface the store-layer failure to every waiter; clients
            # treat it exactly like a non-batched LWT failure (retry or
            # fail over).
            for op in ops:
                if not op.event.triggered:
                    op.event.fail(error)
        finally:
            self._handoff(key)

    def _flush_ops(self, key: str, ops: List[_BatchOp]) -> Generator[Any, Any, None]:
        enqueues = [op for op in ops if op.kind == "enqueue"]
        dequeues = [op for op in ops if op.kind == "dequeue"]
        if not enqueues:
            # Pure-dequeue batch: the exists-per-ref condition of the
            # plain path is both cheaper and insensitive to concurrent
            # mints from other coordinators, so run it per op.
            for op in dequeues:
                yield from self._dequeue_cas(
                    key, op.lock_ref, on_committing=op.on_committing
                )
                op.event.succeed(True)
            return
        mint = self._mint(key, len(enqueues), dequeues)
        tracer = self.obs.tracer
        if tracer.enabled:
            mint = tracer.around(
                mint, "lockstore.batchFlush", node=self._writer, key=key, size=len(ops)
            )
        refs = yield from mint
        self.counters["batch_flushes"][self._writer] += 1
        for op, ref in zip(enqueues, refs):
            op.event.succeed(ref)
        for op in dequeues:
            op.event.succeed(True)

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
