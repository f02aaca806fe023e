"""The MUSIC replica: ECF critical sections over the back-end stores.

This is a direct implementation of the algorithms of Section IV:

- ``create_lock_ref``  — one consensus write (LWT batch) to mint and
  enqueue a per-key unique increasing lockRef;
- ``acquire_lock``     — a *local* peek (cheap, called repeatedly while
  polling) plus, on grant, a quorum read of the key's synchFlag; if a
  previous lockholder was preempted mid-put, the data store is
  synchronized (quorum read + quorum re-write + flag reset) before the
  new lockholder enters;
- ``critical_put`` / ``critical_get`` — guarded quorum writes/reads of
  the data store, stamped with v2s(lockRef, time) vector timestamps and
  bounded by the lease T;
- ``release_lock``     — consensus dequeue;
- ``forced_release``   — preemption of a (presumed) failed lockholder:
  sets the synchFlag with a (lockRef + δ) stamp *before* dequeuing, so
  the flag write can never race with the next holder's flag read;
- ``put`` / ``get``    — the unlocked eventual-consistency convenience
  operations of Section VI (no ECF guarantees).

Guards follow the paper exactly: a request whose lockRef is later than
the local queue head returns False ("not first yet, or local store not
yet updated" — retry); one whose lockRef is earlier raises
:class:`NotLockHolder` ("youAreNoLongerLockHolder").  A preempted but
still-live client *can* slip a quorum put past a stale local peek; its
write carries an old lockRef in its stamp and therefore cannot override
the synchronized value — that is how the Exclusivity property survives
false failure detection (Section IV-B).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Iterable, Mapping, Optional, Tuple

from ..errors import LeaseExpired, NotLockHolder
from ..leases import NULL_LEASES, CachedRead, LeaseManager, ReadCache
from ..lockstore import LockEntry, LockStore
from ..net import Network, Node
from ..sim import NodeClock, Simulator
from ..store import Consistency, Stamp, StoreCluster, StoreCoordinator
from ..store.replica import ALL_ROWS
from .config import MusicConfig
from .push import NO_PUSH, ReleasePush
from .timestamps import UNLOCKED_LOCK_REF, VectorTimestamp, check_overflow, v2s

__all__ = ["MusicReplica", "DATA_TABLE", "VALUE_ROW", "SYNCH_ROW"]

# Sentinel distinguishing "no cached flag epoch" from a cached epoch of
# None (no forcedRelease ever applied to the key).
_NO_EPOCH = object()

DATA_TABLE = "music_data"
# Clustering keys inside a key's data-table partition: the value row and
# the synchFlag row are separate rows so the flag's quorum read stays
# small regardless of the value size (the paper stores them as separate
# columns; separate rows give the same cost split in our store model).
VALUE_ROW = None
SYNCH_ROW = "__synch__"

# Tiny time offset (well under any realistic T) used to order the two
# writes of a synchronization within one acquire.
_TICK = 1e-6


def _queue_order(lock_ref: int, head: Optional[LockEntry]) -> int:
    """Where ``lock_ref`` stands against a queue head — the one
    comparison every ECF operation makes (pure: no I/O, no state).

    ``0``: it is the head.  ``> 0``: not first yet, or the lock-store
    replica that was read lags — retry.  ``< 0``: the queue has moved
    past it, so it was released or forcibly released.
    """
    if head is None:
        return 1
    return lock_ref - head.lock_ref


def _cell_of(
    rows: Mapping, clustering: Any = VALUE_ROW, column: str = "value"
) -> Tuple[Any, Optional[Stamp]]:
    """``(value, stamp)`` of one cell of a data-partition read — by
    default the key's value; ``(None, None)`` if never written or
    deleted."""
    row = rows.get(clustering)
    cell = None if row is None else row.visible_cell(column)
    if cell is None:
        return None, None
    return cell.value, cell.stamp


class MusicReplica(Node):
    """One MUSIC replica, serving ECF operations for colocated clients."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: str,
        site: str,
        store: StoreCluster,
        config: Optional[MusicConfig] = None,
        cores: int = 8,
        clock: Optional[NodeClock] = None,
        peer_ids: Iterable[str] = (),
    ) -> None:
        super().__init__(sim, network, node_id, site, cores=cores, clock=clock)
        config = config or MusicConfig()
        self.config = config
        self.store = store
        self.coordinator: StoreCoordinator = store.coordinator_for(self)
        # What the feature switches ask for is resolved here, once, into
        # the attributes the one path below reads; no method consults
        # ``config.<feature>`` again.
        leases_on = config.read_leases
        self.lock_store = LockStore(
            self.coordinator, self.clock,
            batched=config.fast_locks, lease_rows=leases_on,
        )
        # lsPeek consistency of acquire and the guards: local by
        # default, quorum under the ablation knob.
        self._peek_at = (
            Consistency.QUORUM if config.peek_quorum else Consistency.LOCAL_ONE
        )
        # The synchFlag fast path trusts the forced-release epoch of the
        # read that proved us queue head; the quorum-peek ablation
        # bypasses it (its peek has no single local source), and
        # always_sync asks for the flag read's sync on every grant.
        self._flag_fast_path = config.fast_locks and not (config.peek_quorum or config.always_sync)
        # A forced dequeue also writes the marker rows: the epoch the
        # fast path compares against, the revocation leases die by.
        self._forced_markers = config.fast_locks or leases_on
        self._always_sync = config.always_sync
        # Lease starts cached per (key, lockRef) once granted here.
        self._leases: Dict[Tuple[str, int], float] = {}
        # Push grants (DESIGN.md §9): the release channel to this
        # replica's waiters and to ``peer_ids``, or NO_PUSH.
        self.push: Any = (
            ReleasePush(self, peer_ids, self.lock_store) if config.push_grants else NO_PUSH
        )
        # Read scale-out leases (DESIGN.md §10).  The one path below
        # calls both tiers unconditionally; with the feature off they
        # are the null object, which holds no state and reads no clock.
        self.lease_manager: Any = NULL_LEASES
        self.read_cache: Any = NULL_LEASES
        # Rows a criticalGet's quorum read fetches: the value row — and,
        # with leases on, the synchFlag row too (the revocation evidence
        # that lets the same round re-anchor the lease).
        self._get_rows: Any = VALUE_ROW
        if leases_on:
            self.lease_manager = LeaseManager(
                read_lease_ms=config.read_lease_ms,
                period_ms=config.period_ms,
                delta=config.delta,
            )
            self.read_cache = ReadCache()
            self._get_rows = ALL_ROWS
            # Invalidation piggybacks on the release-push stream.
            self.push.add_listener(self._lease_invalidate)
        # synchFlag fast path (DESIGN.md §9): per-key forced-release
        # epoch under which this replica last established flag=False at
        # quorum.  Key absent = no fast-path evidence.
        self._flag_epoch: Dict[str, Any] = {}
        # This replica's tally (its push's too): the metrics of
        # TALLY_NAMES["music"].
        self.counters = dict.fromkeys((
            "forced_releases", "syncs", "lease_hits", "lease_misses",
            "cache_hits", "cache_misses", "cache_invalidations",
            "fastpath_hits", "fastpath_misses", "push_notifies",
        ), 0)
        self.obs.tally("music", self, node=node_id)

    # -- helpers ------------------------------------------------------------

    def _traced(self, op: Generator[Any, Any, Any], name: str, key: str) -> Any:
        """``op`` inside its ``music.*`` span: asked for only when tracing."""
        return self.obs.tracer.around(op, name, node=self.node_id, site=self.site, key=key)

    def _stamp(self, lock_ref: float, offset: float) -> Stamp:
        """A store stamp carrying v2s((lockRef, offset))."""
        scalar = lock_ref * self.config.period_ms + offset
        return (scalar, self.node_id)

    def _not_holder(self, key: str, lock_ref: int) -> NotLockHolder:
        """The paper's "youAreNoLongerLockHolder" for a lockRef the queue
        has moved past; whoever learns that drops its bookkeeping."""
        self._leases.pop((key, lock_ref), None)
        return NotLockHolder(f"lockRef {lock_ref} on {key!r} was forcibly released")

    # -- createLockRef (cost: lockRef consensus write) -----------------------------

    def create_lock_ref(self, key: str) -> Generator[Any, Any, int]:
        """Mint and enqueue a lockRef, good for one critical section."""
        mint = self.lock_store.generate_and_enqueue(key)
        if self.obs.tracer.enabled:
            mint = self._traced(mint, "music.createLockRef", key)
        lock_ref = yield from mint
        check_overflow(lock_ref, self.config.period_ms)
        return lock_ref

    # -- acquireLock (cost: synchFlag quorum read; local peek while polling) --------

    def acquire_lock(self, key: str, lock_ref: int) -> Generator[Any, Any, bool]:
        """True once ``lock_ref`` is first in the queue and the data store
        is synchronized; False to poll again; NotLockHolder if preempted."""
        op = self._acquire(key, lock_ref)
        return self._traced(op, "music.acquireLock", key) if self.obs.tracer.enabled else op

    def _acquire(self, key: str, lock_ref: int) -> Generator[Any, Any, bool]:
        tracer = self.obs.tracer
        head, epoch, _ = yield from self.lock_store.head(key, self._peek_at)
        order = _queue_order(lock_ref, head)
        if order:
            if order < 0:
                raise self._not_holder(key, lock_ref)
            if tracer.enabled:
                tracer.current_span().set(granted=False)
            return False

        fast = self._flag_fast_path and self._fast_path_valid(key, epoch)
        grant = self._grant(key, lock_ref, epoch, fast)
        if tracer.enabled:
            grant = self._traced(grant, "music.grant", key)
        flag = yield from grant
        if tracer.enabled:
            tracer.current_span().set(granted=True)
        audit = self.obs.audit
        if audit.enabled:
            audit.emit("grant", key=key, node=self.node_id, lock_ref=lock_ref, flag=flag, fast=fast)
        return True

    def _grant(
        self, key: str, lock_ref: int, epoch: Any, fast: bool
    ) -> Generator[Any, Any, bool]:
        """The grant of a lockRef found at the queue head: the synchFlag
        read (and sync) unless ``fast``, then the lease start; returns
        the flag read."""
        grant_started = self.sim.now
        flag, anchor_clock, flag_stamp = False, None, None
        if fast:
            # The cached epoch matches the marker seen by the peek that
            # proved us queue head: no forcedRelease applied since this
            # replica last saw flag=False at quorum, so the flag cannot
            # have been set (only forcedRelease sets it) and the store
            # is defined.
            tracer = self.obs.tracer
            if tracer.enabled:
                tracer.current_span().set(fast=True)
            self.counters["fastpath_hits"] += 1
        else:
            # A read lease anchors at the local-clock time this quorum
            # flag read *started* (DESIGN.md §10).
            anchor_clock = self.lease_manager.anchor_start(self.clock)
            flag_rows = yield from self.coordinator.get(
                DATA_TABLE, key, clustering=SYNCH_ROW,
                consistency=Consistency.QUORUM,
            )
            flag, flag_stamp = _cell_of(flag_rows, SYNCH_ROW, "flag")
            flag = bool(flag)
            audit = self.obs.audit
            if audit.enabled:
                audit.emit("flag_read", key=key, node=self.node_id, lock_ref=lock_ref,
                           flag=flag, started_ms=grant_started)
            if flag or self._always_sync:
                yield from self._synchronize(key, lock_ref)
            if self._flag_fast_path:
                # flag=False now holds at quorum (read clean or just
                # re-established by the sync); remember the peek-time
                # epoch as the evidence horizon.
                self._flag_epoch[key] = epoch
                self.counters["fastpath_misses"] += 1

        start_time = self.clock.now()
        yield from self.lock_store.set_start_time(key, lock_ref, start_time)
        self._leases[(key, lock_ref)] = start_time
        if anchor_clock is not None:
            self.lease_manager.anchor(key, lock_ref, anchor_clock, flag_stamp)
        return flag

    def _fast_path_valid(self, key: str, epoch: Any) -> bool:
        """True when the cached flag epoch proves the grant-time quorum
        flag read can be skipped (see DESIGN.md §9 for the argument)."""
        cached = self._flag_epoch.get(key, _NO_EPOCH)
        return cached is not _NO_EPOCH and cached == epoch

    def _synchronize(self, key: str, lock_ref: int) -> Generator[Any, Any, None]:
        """Re-establish 'the data store is defined as the true value'.

        A previous lockholder died mid-criticalPut, so the store may
        hold the old or the new value at fewer than a quorum of
        replicas.  A quorum read may or may not catch the in-flight
        write; either way its result is re-written under the *new*
        lockRef's stamp, resolving the non-determinism in the definition
        of the true value (Section III-A) and overriding any still-
        propagating writes from the preempted lockholder.
        """
        self.counters["syncs"] += 1
        op = self._synchronized(key, lock_ref)
        return self._traced(op, "music.synchronize", key) if self.obs.tracer.enabled else op

    def _synchronized(self, key: str, lock_ref: int) -> Generator[Any, Any, None]:
        audit = self.obs.audit
        rows = yield from self.coordinator.get(
            DATA_TABLE, key, clustering=VALUE_ROW,
            consistency=Consistency.QUORUM,
        )
        current, _ = _cell_of(rows)
        value_stamp = self._stamp(lock_ref, 0.0)
        yield from self.quorum_put(key, current, value_stamp)
        if audit.enabled:
            audit.emit("sync", key=key, node=self.node_id, lock_ref=lock_ref,
                       stamp=value_stamp, value=current)
        flag_stamp = self._stamp(lock_ref, _TICK)
        yield from self.coordinator.put(
            DATA_TABLE, key, SYNCH_ROW, {"flag": False},
            flag_stamp, consistency=Consistency.QUORUM,
        )
        if audit.enabled:
            audit.emit("flag_write", key=key, node=self.node_id, lock_ref=lock_ref,
                       stamp=flag_stamp, flag=False, reason="sync")

    # -- criticalPut (cost: value quorum write) ----------------------------------

    def critical_put(
        self, key: str, lock_ref: int, value: Any
    ) -> Generator[Any, Any, Optional[Stamp]]:
        """Write the latest value of ``key`` as the current lockholder.

        Returns the stamp the write was acknowledged under (the client's
        session watermark for lease serves, the transaction layer's
        version token); ``None`` when the guard says retry.
        """
        op = self._critical_write(key, lock_ref, value, self._put_value)
        return self._traced(op, "music.criticalPut", key) if self.obs.tracer.enabled else op

    def _put_value(self, key: str, value: Any, stamp: Stamp) -> Generator[Any, Any, Stamp]:
        """criticalPut's store write — the one step of the operation a
        subclass replaces (MSCP's LWT)."""
        return self.quorum_put(key, value, stamp)

    def _critical_write(
        self, key: str, lock_ref: int, value: Any, write: Callable
    ) -> Generator[Any, Any, Optional[Stamp]]:
        proceed = yield from self._guard(key, lock_ref)
        if not proceed:
            tracer = self.obs.tracer
            if tracer.enabled:
                tracer.current_span().set(guarded=True)
            return None
        start_time = self._leases.get((key, lock_ref))
        if start_time is None:
            start_time = yield from self._lease_start(key, lock_ref)
        offset = self.clock.now() - start_time
        if offset >= self.config.period_ms:
            raise LeaseExpired(
                f"critical section for lockRef {lock_ref} on {key!r} exceeded "
                f"T={self.config.period_ms}ms"
            )
        stamp = self._stamp(lock_ref, max(offset, _TICK))
        yield from write(key, value, stamp)
        audit = self.obs.audit
        if audit.enabled:
            audit.emit("critical_put", key=key, node=self.node_id, lock_ref=lock_ref,
                       stamp=stamp, value=value)
        # Write-through into the lease mirror and the bounded-staleness
        # cache.
        self.lease_manager.fill(key, lock_ref, value, stamp)
        self.read_cache.fill(key, value, stamp, self.sim.now)
        return stamp

    def critical_delete(
        self, key: str, lock_ref: int
    ) -> Generator[Any, Any, Optional[Stamp]]:
        """Delete the value of ``key`` as the lockholder: Section VI's
        companion of criticalPut is a criticalPut of ``None`` under its
        own op name — and always the plain quorum write, whatever a
        subclass makes of ``_put_value``."""
        op = self._critical_write(key, lock_ref, None, self.quorum_put)
        return self._traced(op, "music.criticalDelete", key) if self.obs.tracer.enabled else op

    # -- criticalGet (cost: value quorum read) -----------------------------------

    def critical_get(
        self, key: str, lock_ref: int, min_stamp: Optional[Stamp] = None,
    ) -> Generator[Any, Any, Tuple[bool, Any, Optional[Stamp]]]:
        """Read the latest (true) value of ``key`` as the lockholder.

        Returns ``(True, value, stamp)`` on success — the stamp is the
        version token of what was served, ``None`` for a never-written
        key — and ``(False, None, None)`` when the caller should retry
        (local queue not caught up yet).

        With ``read_leases`` on, the read is served from the local lease
        mirror while the holder's lease window is provably inside the
        ECF window; ``min_stamp`` is the client's session watermark (the
        stamp of its last acknowledged critical write to this key) — a
        lease serve must be at least that fresh, so a failover to a
        replica with a stale mirror falls through to the quorum.
        """
        op = self._critical_get(key, lock_ref, min_stamp)
        return self._traced(op, "music.criticalGet", key) if self.obs.tracer.enabled else op

    def _critical_get(
        self, key: str, lock_ref: int, min_stamp: Optional[Stamp]
    ) -> Generator[Any, Any, Tuple[bool, Any, Optional[Stamp]]]:
        proceed = yield from self._guard(key, lock_ref)
        tracer = self.obs.tracer
        if not proceed:
            if tracer.enabled:
                tracer.current_span().set(guarded=True)
            return (False, None, None)
        audit = self.obs.audit
        leases = self.lease_manager
        view = leases.serve(key, lock_ref, min_stamp, self.clock)
        if view is not None:
            value, stamp = view.value, view.value_stamp
            self.counters["lease_hits"] += 1
            if audit.enabled:
                audit.emit("lease_read", key=key, node=self.node_id, lock_ref=lock_ref,
                           stamp=stamp, value=value)
            if tracer.enabled:
                tracer.current_span().set(lease=True)
            return (True, value, stamp)
        anchor_clock = leases.anchor_start(self.clock)
        if anchor_clock is not None:
            self.counters["lease_misses"] += 1
        rows = yield from self.coordinator.get(
            DATA_TABLE, key, clustering=self._get_rows,
            consistency=Consistency.QUORUM,
        )
        value, stamp = _cell_of(rows)
        if audit.enabled:
            audit.emit("critical_get", key=key, node=self.node_id, lock_ref=lock_ref, value=value)
        if anchor_clock is not None:
            _, flag_stamp = _cell_of(rows, SYNCH_ROW, "flag")
            if leases.anchor(key, lock_ref, anchor_clock, flag_stamp):
                leases.fill(key, lock_ref, value, stamp)
        return (True, value, stamp)

    def _guard(self, key: str, lock_ref: int) -> Generator[Any, Any, bool]:
        """The critical ops' guard: one lock-partition head read, then
        the shared queue-head check.  Per the paper, a lockRef later
        than the head returns False ("not first yet, or local store not
        yet updated" — retry) and an earlier one raises NotLockHolder.

        The same read carries the lease-revocation marker a forced
        dequeue wrote (DESIGN.md §10), so a revoked lease can never
        satisfy a serve that follows this guard.
        """
        head, _, revoked = yield from self.lock_store.head(key, self._peek_at)
        if revoked is not None:
            self.lease_manager.revoke_up_to(key, revoked)
        order = _queue_order(lock_ref, head)
        if order < 0:
            raise self._not_holder(key, lock_ref)
        return order == 0

    def _lease_start(self, key: str, lock_ref: int) -> Generator[Any, Any, float]:
        """This lockRef's grant time, read from the lock store and kept
        in ``_leases`` (a critical write reads it there first)."""
        entry = yield from self.lock_store.get_entry(key, lock_ref)
        if entry is None or entry.start_time is None:
            entry = yield from self.lock_store.get_entry(
                key, lock_ref, consistency=Consistency.QUORUM
            )
        if entry is not None and entry.start_time is not None:
            start_time = entry.start_time
        else:
            # No recorded grant reachable (e.g. the startTime write
            # lost a stamp race under heavy clock skew, a hazard the
            # production system shares by mixing LWT and non-LWT
            # writes in the lock table).  Lease enforcement is
            # advisory: start the lease now rather than failing the
            # lockholder; the queue-head guard still gates access.
            start_time = self.clock.now()
        self._leases[(key, lock_ref)] = start_time
        return start_time

    # -- releaseLock (cost: lockRef consensus write) --------------------------------

    def _decided_hook(
        self, event: str, key: str, lock_ref: int, stamp: Optional[Stamp] = None
    ) -> Callable[..., None]:
        """The decided-hook of a release/forcedRelease dequeue.

        The lock store calls it the moment the dequeue is *decided*
        (proposal accepted) with the successor the dequeue hands the
        lock to, and the release channel (``self.push``) wakes that
        lockRef's waiter, overlapping the wake-up with the commit round's
        WAN acks — the push is advisory, so a waiter that polls too early
        just polls again.  The audit event must fire at the same decide
        point: a push-woken successor can be granted during the commit
        round, and the auditor linearizes by event order.  A dequeue
        decided by a rival's recovery calls it when its proposer learns.
        """
        audit = self.obs.audit

        def decided(successor: Optional[int]) -> None:
            if audit.enabled:
                fields = {} if stamp is None else {"stamp": stamp}
                audit.emit(
                    event, key=key, node=self.node_id, lock_ref=lock_ref, **fields
                )
            self.push.push(key, successor)

        return decided

    def release_lock(self, key: str, lock_ref: int) -> Generator[Any, Any, bool]:
        op = self._release(key, lock_ref)
        return self._traced(op, "music.releaseLock", key) if self.obs.tracer.enabled else op

    def _release(self, key: str, lock_ref: int) -> Generator[Any, Any, bool]:
        head, _, _ = yield from self.lock_store.head(key)
        # A lockRef the queue has moved past was already forcibly
        # released: nothing to dequeue, only bookkeeping to drop.
        if _queue_order(lock_ref, head) >= 0:
            decided = self._decided_hook("release", key, lock_ref)
            yield from self.lock_store.dequeue(key, lock_ref, on_committing=decided)
        self.lease_manager.revoke(key)
        self._leases.pop((key, lock_ref), None)
        return True

    # -- forcedRelease (internal; cost: flag quorum write + consensus write) ---------

    def forced_release(self, key: str, lock_ref: int) -> Generator[Any, Any, bool]:
        """Preempt a (presumed failed) lockholder.

        The synchFlag is set under a ``lockRef + δ`` stamp and the
        quorum write *completes before* the dequeue, so the next
        lockholder's flag read is guaranteed to see it; δ < 1 ensures
        the next lockholder's own flag reset still wins (Section IV-B).
        """
        head, _, _ = yield from self.lock_store.head(key)
        if _queue_order(lock_ref, head) < 0:
            return True  # previously released
        self.counters["forced_releases"] += 1
        preempt = self._preempt(key, lock_ref)
        if self.obs.tracer.enabled:
            preempt = self._traced(preempt, "music.forcedRelease", key)
        yield from preempt
        return True

    def _preempt(self, key: str, lock_ref: int) -> Generator[Any, Any, None]:
        forced_stamp = self._stamp(lock_ref + self.config.delta, 0.0)
        yield from self.coordinator.put(
            DATA_TABLE, key, SYNCH_ROW, {"flag": True},
            forced_stamp, consistency=Consistency.QUORUM,
        )
        audit = self.obs.audit
        if audit.enabled:
            audit.emit("flag_write", key=key, node=self.node_id, lock_ref=lock_ref,
                       stamp=forced_stamp, flag=True, reason="forced")
        # Under the fast path the dequeue also bumps the key's
        # forced-release epoch marker (atomically, same LWT) so cached
        # flag epochs elsewhere go stale.  Our own cache is dropped
        # regardless: this replica just wrote flag=True.
        self._flag_epoch.pop(key, None)
        # The flag write above has acknowledged at quorum: drop our own
        # lease on the key and wait out every window anchored before the
        # ack (see LeaseManager.wait_out_ms).
        self.lease_manager.revoke(key)
        if self.lease_manager.wait_out_ms:
            yield self.sim.timeout(self.lease_manager.wait_out_ms)
        decided = self._decided_hook("forced_release", key, lock_ref, forced_stamp)
        yield from self.lock_store.dequeue(
            key, lock_ref, forced=self._forced_markers, on_committing=decided
        )

    # -- lease invalidation on the release channel (DESIGN.md §10) ---------------

    def _lease_invalidate(self, key: str) -> None:
        """Invalidate lease + cached reads for a key whose critical
        section just ended (push grant observed).  The audit receipt is
        emitted *before* the drop, so an implementation that loses the
        drop still leaves the evidence MonotonicReads checks against."""
        audit = self.obs.audit
        if audit.enabled:
            audit.emit("lease_invalidate", key=key, node=self.node_id)
        self.lease_manager.revoke(key)
        self._drop_cached_reads(key)

    def _drop_cached_reads(self, key: str) -> None:
        # Kept separate from the audit receipt above so mutation tests
        # can no-op exactly the cache drop.
        if self.read_cache.invalidate(key):
            self.counters["cache_invalidations"] += 1

    # -- unlocked convenience ops (Section VI, "Additional Functions") ---------------

    def put(self, key: str, value: Any) -> Generator[Any, Any, None]:
        """Eventual write with no ECF guarantees (stamped below any CS write)."""
        now = self.clock.now()
        if now >= self.config.period_ms:
            raise OverflowError(
                "unlocked put past T would break v2s ordering; raise period_ms"
            )
        stamp = (v2s(VectorTimestamp(UNLOCKED_LOCK_REF, now), self.config.period_ms),
                 self.node_id)
        yield from self.coordinator.put(
            DATA_TABLE, key, VALUE_ROW, {"value": value}, stamp,
            consistency=Consistency.ONE,
        )

    def get(self, key: str) -> Generator[Any, Any, Any]:
        """Eventual read (possibly stale) with no ECF guarantees."""
        rows = yield from self.coordinator.get(
            DATA_TABLE, key, clustering=VALUE_ROW, consistency=Consistency.ONE
        )
        return _cell_of(rows)[0]

    def quorum_get(
        self, key: str
    ) -> Generator[Any, Any, Tuple[Any, Optional[Stamp]]]:
        """Quorum read of ``(value, stamp)`` with no lock guard.

        The optimistic transaction engines (``repro.txn``) use this for
        snapshot/read-set reads: they need the version *stamp* of what
        they saw (to validate against at commit) but hold no lock, so
        the criticalGet guard does not apply.
        """
        rows = yield from self.coordinator.get(
            DATA_TABLE, key, clustering=VALUE_ROW, consistency=Consistency.QUORUM
        )
        return _cell_of(rows)

    def quorum_put(
        self, key: str, value: Any, stamp: Stamp
    ) -> Generator[Any, Any, Stamp]:
        """Quorum write under a caller-supplied stamp, no lock guard;
        returns the stamp once acknowledged.

        The transaction engines mint their own monotonic stamps (from a
        commit sequence, or from the epoch sealer's CS lockRef space)
        and install validated writes through this path — same store
        machinery as criticalPut, different fencing discipline.
        """
        yield from self.coordinator.put(
            DATA_TABLE, key, VALUE_ROW, {"value": value}, stamp,
            consistency=Consistency.QUORUM,
        )
        return stamp

    def get_bounded(
        self, key: str, staleness_ms: float
    ) -> Generator[Any, Any, CachedRead]:
        """Bounded-staleness read (``read_leases`` tier, Section VI++).

        A cache hit within the caller's staleness bound is served
        instantly from this replica's read cache (no store RPC at all);
        a miss does a nearest-replica read-through and fills the cache.
        Invalidation piggybacks on push grants (:meth:`_lease_invalidate`),
        so cached values survive at most the push latency past the
        critical section that overwrote them — and never the bound.
        """
        entry = self.read_cache.lookup(key, self.sim.now, staleness_ms)
        if entry is not None:
            self.counters["cache_hits"] += 1
            return CachedRead(entry.value, entry.stamp, entry.fetched_ms,
                              hit=True, node=self.node_id)
        self.counters["cache_misses"] += 1
        rows = yield from self.coordinator.get(
            DATA_TABLE, key, clustering=VALUE_ROW, consistency=Consistency.ONE
        )
        value, stamp = _cell_of(rows)
        fetched = self.sim.now
        self.read_cache.fill(key, value, stamp, fetched)
        return CachedRead(value, stamp, fetched, hit=False, node=self.node_id)

    def get_all_keys(self, table: Optional[str] = None) -> Generator[Any, Any, list]:
        """All keys of the data table (eventual; used by job schedulers)."""
        return self.coordinator.scan_keys(table or DATA_TABLE)
