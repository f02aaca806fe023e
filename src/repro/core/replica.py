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
  bounded by the lease T (a get may be served by the local mirror, §8);
- ``release_lock``     — consensus dequeue (on the hot path, one
  quorum row delete, batched with the hand-off row);
- ``forced_release``   — preemption of a (presumed) failed lockholder:
  sets the synchFlag with a (lockRef + δ) stamp *before* dequeuing, so
  the flag write can never race with the next holder's flag read;
- ``put`` / ``get``    — Section VI's unlocked operations, no ECF
  guarantees (mixed in from :mod:`repro.core.unlocked`).

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

from collections import defaultdict
from typing import Any, Callable, Dict, Generator, Iterable, Optional, Tuple

from ..errors import LeaseExpired, NotLockHolder
from ..leases import NULL_LEASES, LeaseManager, Mirror, ReadCache
from ..lockstore import LockEntry, LockStore
from ..net import Network, Node
from ..sim import NodeClock, Simulator
from ..store import Consistency, Stamp, StoreCluster, StoreCoordinator
from ..store.replica import ALL_ROWS
from .config import MusicConfig
from .push import NO_PUSH, ReleasePush
from .timestamps import check_overflow
from .unlocked import DATA_TABLE, SYNCH_ROW, VALUE_ROW, UnlockedOps, cell_of

__all__ = ["MusicReplica", "DATA_TABLE", "VALUE_ROW", "SYNCH_ROW"]

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


class MusicReplica(UnlockedOps, Node):
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
        # The hot path hands a section's value on (DESIGN.md §8): a
        # grant's read fetches the value row beside the synchFlag, an
        # uncontended mint takes that read in its accept round, and the
        # value fills the mirror until the section's first write.
        self._hot_path = config.fast_locks
        # Per key, the grant read a mint took in its accept round:
        # (lockRef, forced epoch, rows, start time).
        self._early_reads: Dict[str, Tuple[int, Any, Any, float]] = {}
        self.lock_store = LockStore(
            self.coordinator, self.clock, batched=config.fast_locks,
            on_head=(DATA_TABLE, self._keep_early) if config.fast_locks else None,
        )
        # lsPeek consistency of acquire and the guards: local by
        # default, quorum under the ablation knob.
        self._peek_at = (
            Consistency.QUORUM if config.peek_quorum else Consistency.LOCAL_ONE
        )
        # The synchFlag fast path trusts the hand-off row of the read that
        # proved us queue head; the quorum-peek ablation bypasses it, and
        # always_sync asks for the flag read's sync on every grant.
        self._flag_fast_path = config.fast_locks and not (config.peek_quorum or config.always_sync)
        # A forced dequeue also writes the marker row: the epoch an early
        # read is taken under, the revocation hand-offs and mirror
        # entries die by.
        self._forced_markers = config.fast_locks or leases_on
        self._always_sync = config.always_sync
        # Lease starts cached per (key, lockRef) once granted here.
        self._leases: Dict[Tuple[str, int], float] = {}
        # Push grants (DESIGN.md §8): the release channel to this
        # replica's waiters and to ``peer_ids``, or NO_PUSH.
        self.push: Any = (
            ReleasePush(self, peer_ids, self.lock_store) if config.push_grants else NO_PUSH
        )
        # Read scale-out leases (DESIGN.md §8).  The one path below
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
            self.push.add_listener(self._invalidate_reads)
        # The local-serve mirror (DESIGN.md §8): per key, what a get may
        # answer without a quorum read, under a lease window or the
        # hand-off.  A release observed here drops what it ended.
        self.mirror = Mirror(self.lease_manager)
        self.push.add_listener(self._forget)
        # This replica's tally (its push's too): the metrics of
        # TALLY_NAMES["music"].
        self.counters = dict.fromkeys((
            "forced_releases", "syncs", "lease_hits", "lease_misses",
            "cache_hits", "cache_misses", "cache_invalidations",
            "fastpath_hits", "fastpath_misses", "push_notifies",
            "handoff_misses",
        ), 0)
        # Gets the hand-off served, per source: "grant" or "row".
        self.counters["handoff_hits"] = defaultdict(int)
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
        self._forget(key, lock_ref)
        return NotLockHolder(f"lockRef {lock_ref} on {key!r} was forcibly released")

    def _forget(self, key: str, lock_ref: int, only: bool = False) -> None:
        """Drop the early read and mirror entry of ``key``'s sections up
        to ``lock_ref`` (``only``: of that section alone); a release
        listener (DESIGN.md §8)."""
        early = self._early_reads.get(key)
        if early is not None and (early[0] == lock_ref if only else early[0] <= lock_ref):
            del self._early_reads[key]
        self.mirror.drop(key, lock_ref, only)

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
        head, epoch, forced, handoff = yield from self.lock_store.head(key, self._peek_at)
        order = _queue_order(lock_ref, head)
        if order:
            if order < 0:
                raise self._not_holder(key, lock_ref)
            if tracer.enabled:
                tracer.current_span().set(granted=False)
            return False
        if (key, lock_ref) in self._leases:
            # Granted here already (a multi-key section's re-check): the
            # head check is the whole answer, no flag read, no startTime.
            if tracer.enabled:
                tracer.current_span().set(granted=True)
            return True

        fast = self._flag_fast_path and self._handed_on(lock_ref, forced, handoff)
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
        read (and sync) unless ``fast``, then the lease start and, on the
        hot path, the hand-off; returns the flag read."""
        flag, rows = False, None
        if fast:
            # The predecessor released cleanly, every op acknowledged at
            # first attempt, and no forcedRelease shows since: the store
            # is defined at its last op (only forcedRelease sets the flag).
            tracer = self.obs.tracer
            if tracer.enabled:
                tracer.current_span().set(fast=True)
            self.counters["fastpath_hits"] += 1
        else:
            rows, started = yield from self._grant_read(key, lock_ref, epoch)
            flag, flag_stamp = cell_of(rows, SYNCH_ROW, "flag")
            flag = bool(flag)
            audit = self.obs.audit
            if audit.enabled:
                audit.emit("flag_read", key=key, node=self.node_id, lock_ref=lock_ref,
                           flag=flag, started_ms=started)
            if flag or self._always_sync:
                yield from self._synchronize(key, lock_ref)
            if self._flag_fast_path:
                self.counters["fastpath_misses"] += 1
            # A read lease anchors at the local-clock time this quorum
            # read *started* (DESIGN.md §8).
            anchor_ms = self.lease_manager.anchor_at(self.clock, started)
            self.mirror.anchor(key, lock_ref, anchor_ms, flag_stamp)

        start_time = self.clock.now()
        yield from self.lock_store.set_start_time(key, lock_ref, start_time)
        self._leases[(key, lock_ref)] = start_time
        if self._hot_path:
            kept = None if rows is None else cell_of(rows)
            self.mirror.granted(key, lock_ref, kept, flag or self._always_sync)
        return flag

    def _handed_on(self, lock_ref: int, forced: Optional[int], handoff: Any) -> bool:
        """Whether the head read proving ``lock_ref`` queue head shows the
        store handed on defined, so the grant skips its quorum flag read:
        a hand-off row the mirror may serve (DESIGN.md §8)."""
        return self.mirror.handed_row(lock_ref, forced, handoff) is not None

    def _keep_early(self, key: str, lock_ref: int, epoch: Any, rows: Any, started: float) -> None:
        """The lock store's mint hook: ``lock_ref`` heads the queue its
        mint decided on, under forced ``epoch``, and ``rows`` are the
        data partition as its accept quorum held it (read from
        ``started``): they stand for its grant read.  DESIGN.md §8
        argues why."""
        self._early_reads[key] = (lock_ref, epoch, rows, started)

    def _take_early(self, key: str, lock_ref: int, epoch: Any) -> Optional[Tuple]:
        """Take ``key``'s early read off; it stands for ``lock_ref``'s
        grant read if taken for this ref under the forced epoch the
        grant's proving head read shows."""
        early = self._early_reads.pop(key, None)
        return early if early is not None and early[:2] == (lock_ref, epoch) else None

    def _grant_read(self, key: str, lock_ref: int, epoch: Any) -> Generator[Any, Any, Tuple]:
        """The grant's data read and when it started: the mint's accept
        round's, or a quorum read now."""
        early = self._take_early(key, lock_ref, epoch)
        if early is not None:
            return early[2:]
        started = self.sim.now
        rows = yield from self.coordinator.get(
            DATA_TABLE, key, clustering=ALL_ROWS if self._hot_path else SYNCH_ROW,
            consistency=Consistency.QUORUM,
        )
        return rows, started

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
        current, _ = cell_of(rows)
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
        head = yield from self._guard(key, lock_ref)
        if not head:
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
        # Write-through into the mirror (ending its hand-off) and the
        # bounded-staleness cache.
        self.mirror.fill(key, lock_ref, value, stamp)
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

        The read is served from the local mirror while its entry's
        evidence holds (:meth:`Mirror.serve`): with ``read_leases`` on, a
        lease window provably inside the ECF window; on the hot path, the
        hand-off.  ``min_stamp`` is the client's session watermark (the
        stamp of its last acknowledged critical write to this key) — a
        lease serve must be at least that fresh, so a failover to a
        replica with a stale mirror falls through to the quorum, and
        the hand-off serves only a section that wrote nothing.
        """
        op = self._critical_get(key, lock_ref, min_stamp)
        return self._traced(op, "music.criticalGet", key) if self.obs.tracer.enabled else op

    def _critical_get(
        self, key: str, lock_ref: int, min_stamp: Optional[Stamp]
    ) -> Generator[Any, Any, Tuple[bool, Any, Optional[Stamp]]]:
        head = yield from self._guard(key, lock_ref)
        tracer = self.obs.tracer
        if not head:
            if tracer.enabled:
                tracer.current_span().set(guarded=True)
            return (False, None, None)
        audit = self.obs.audit
        served = self.mirror.serve(key, lock_ref, min_stamp, self.clock, head[2], head[3])
        if served is not None:
            evidence, value, stamp = served
            if evidence == "lease":
                self.counters["lease_hits"] += 1
                if audit.enabled:
                    audit.emit("lease_read", key=key, node=self.node_id, lock_ref=lock_ref,
                               stamp=stamp, value=value)
                if tracer.enabled:
                    tracer.current_span().set(lease=True)
            else:
                self.counters["handoff_hits"][evidence] += 1
                if audit.enabled:
                    audit.emit("critical_get", key=key, node=self.node_id, lock_ref=lock_ref,
                               value=value, handoff=True, source=evidence)
                if tracer.enabled:
                    tracer.current_span().set(handoff=True, source=evidence)
            return (True, value, stamp)
        started = self.sim.now
        rows = yield from self.coordinator.get(
            DATA_TABLE, key, clustering=self._get_rows,
            consistency=Consistency.QUORUM,
        )
        value, stamp = cell_of(rows)
        if audit.enabled:
            audit.emit("critical_get", key=key, node=self.node_id, lock_ref=lock_ref, value=value)
        anchor_ms = self.lease_manager.anchor_at(self.clock, started)
        if anchor_ms is not None:
            self.counters["lease_misses"] += 1
            _, flag_stamp = cell_of(rows, SYNCH_ROW, "flag")
            if self.mirror.anchor(key, lock_ref, anchor_ms, flag_stamp):
                self.mirror.fill(key, lock_ref, value, stamp)
        elif self._hot_path:
            self.counters["handoff_misses"] += 1
        return (True, value, stamp)

    def _guard(self, key: str, lock_ref: int) -> Generator[Any, Any, Any]:
        """The critical ops' guard: one lock-partition head read, then
        the shared queue-head check.  Per the paper, a lockRef later
        than the head returns None ("not first yet, or local store not
        yet updated" — retry), an earlier one raises NotLockHolder, and
        the head gets the read's decode (:meth:`LockStore.head`).

        The same read carries the ref the last forced dequeue here
        removed (DESIGN.md §7), so a revoked mirror entry can never
        satisfy a serve that follows this guard.
        """
        decoded = yield from self.lock_store.head(key, self._peek_at)
        head, _, forced, _ = decoded
        if forced is not None:
            self.mirror.drop(key, forced)
        order = _queue_order(lock_ref, head)
        if order < 0:
            raise self._not_holder(key, lock_ref)
        return decoded if order == 0 else None

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
            # No recorded grant reachable (a startTime write can lose a
            # stamp race under clock skew).  Lease enforcement is
            # advisory: start the lease now; the guard still gates.
            start_time = self.clock.now()
        self._leases[(key, lock_ref)] = start_time
        return start_time

    # -- releaseLock (cost: lockRef consensus write; hot path: quorum delete) -------

    def _decided_hook(
        self, event: str, key: str, lock_ref: int, stamp: Optional[Stamp] = None,
        gone: Optional[int] = None,
    ) -> Callable[..., None]:
        """The decided-hook of a release/forcedRelease dequeue, called
        with the successor the moment the dequeue can take effect
        anywhere: when an LWT is *decided*, or the hot path's quorum
        delete *sent* (a rival's recovery: when its proposer learns).
        The push (advisory: a waiter too early polls again) overlaps the
        wake-up with the write's WAN acks; the audit event fires at the
        same point, since a pushed successor can be granted as soon as
        its replica applies the delete and the auditor orders by event.
        A push that names no successor names ``gone``, the preempted
        ref or a released one that headed the queue here, so its
        section's replicas drop what they kept for it (None: it left
        from behind the head).
        """
        audit = self.obs.audit

        def decided(successor: Optional[int], after: Optional[int] = None) -> None:
            if audit.enabled:
                fields = {} if stamp is None else {"stamp": stamp}
                audit.emit(
                    event, key=key, node=self.node_id, lock_ref=lock_ref, **fields
                )
            self.push.push(key, successor, gone if successor is None and after is None else after)

        return decided

    def release_lock(self, key: str, lock_ref: int, handoff: Any = None) -> Generator[Any, Any, bool]:
        """Release ``lock_ref``, on the hot path handing on ``handoff``: the
        holder's last acknowledged ``(value, stamp)``, None if unknown."""
        op = self._release(key, lock_ref, handoff)
        return self._traced(op, "music.releaseLock", key) if self.obs.tracer.enabled else op

    def _release(self, key: str, lock_ref: int, handoff: Any) -> Generator[Any, Any, bool]:
        # On the hot path the last head read here (the section's last
        # guard) stands for the release's own when it shows ``lock_ref``
        # at the head: a local read is no more atomic with the delete
        # (DESIGN.md §7).
        decoded = self.lock_store.last_head(key) if self._hot_path else None
        if decoded is None or _queue_order(lock_ref, decoded[0]):
            decoded = yield from self.lock_store.head(key)
        head = decoded[0]
        # A lockRef the queue has moved past was already forcibly
        # released: nothing to dequeue, only bookkeeping to drop.
        order = _queue_order(lock_ref, head)
        if order >= 0:
            decided = self._decided_hook(
                "release", key, lock_ref, gone=None if order else lock_ref
            )
            yield from self.lock_store.dequeue(
                key, lock_ref, on_committing=decided, handoff=handoff
            )
        self._leases.pop((key, lock_ref), None)
        # A waiter leaving from behind the head ends its own section only.
        self._forget(key, lock_ref, order > 0)
        return True

    # -- forcedRelease (internal; cost: flag quorum write + consensus write) ---------

    def forced_release(self, key: str, lock_ref: int) -> Generator[Any, Any, bool]:
        """Preempt a (presumed failed) lockholder.

        The synchFlag is set under a ``lockRef + δ`` stamp and the
        quorum write *completes before* the dequeue, so the next
        lockholder's flag read is guaranteed to see it; δ < 1 ensures
        the next lockholder's own flag reset still wins (Section IV-B).
        """
        head, _, _, _ = yield from self.lock_store.head(key)
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
        # The flag write above has acknowledged at quorum: drop our own
        # entry for the section and wait out every lease window anchored
        # before the ack (see LeaseManager.wait_out_ms).
        self._forget(key, lock_ref)
        if self.lease_manager.wait_out_ms:
            yield self.sim.timeout(self.lease_manager.wait_out_ms)
        decided = self._decided_hook("forced_release", key, lock_ref, forced_stamp, lock_ref)
        yield from self.lock_store.dequeue(
            key, lock_ref, forced=self._forced_markers, on_committing=decided
        )

    # -- read-cache invalidation on the release channel (DESIGN.md §8) ----------

    def _invalidate_reads(self, key: str, gone: int) -> None:
        """Invalidate the cached reads of a key whose critical section
        just ended (push grant observed).  The audit receipt is emitted
        *before* the drop, so an implementation that loses the drop
        still leaves the evidence MonotonicReads checks against."""
        audit = self.obs.audit
        if audit.enabled:
            audit.emit("lease_invalidate", key=key, node=self.node_id)
        self._drop_cached_reads(key)

    def _drop_cached_reads(self, key: str) -> None:
        # Kept separate from the audit receipt above so mutation tests
        # can no-op exactly the cache drop.
        if self.read_cache.invalidate(key):
            self.counters["cache_invalidations"] += 1
