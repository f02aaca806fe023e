"""The MUSIC client: retries, failover, and the critical-section usage
pattern of Listing 1 — for both deployments of Fig. 1.

The client is handed its replica list and never asks which deployment
it is in.  In library mode (Section VI) the list holds the
:class:`MusicReplica` objects themselves, the nearest one colocated; in
service mode it holds :class:`~repro.core.service.ReplicaStub` objects
offering the same surface over one RPC per operation.  Per Section
III-A failure semantics, an operation nacked because a quorum of
back-end replicas (or the replica itself) was unreachable is retried —
"usually at a different MUSIC replica" — until it succeeds, the retry
budget is exhausted, or the client learns it is no longer the
lockholder.
"""

from __future__ import annotations

import random
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..errors import (
    LockContention,
    NotLockHolder,
    QuorumUnavailable,
    ReproError,
    RpcTimeout,
)
from ..sim import RandomStreams
from ..store import Stamp
from .config import MusicConfig
from .replica import MusicReplica

__all__ = ["MusicClient", "CriticalSection"]

_RETRYABLE = (QuorumUnavailable, RpcTimeout, LockContention)

# Multiplicative backoff between unsuccessful acquireLock polls.
ACQUIRE_POLL_BACKOFF = 1.5
# A pushed waiter's first sleep: the grant is a local store apply away.
APPLY_FUSE_MS = 3.0
# Attempts at a nacked operation before the client gives up on it.
OP_RETRY_LIMIT = 5


# The two lock ops as ``op(replica, *args)`` for _with_failover: module
# functions, so a call (acquireLock polls) builds no closure.
def _create_lock_ref(replica: MusicReplica, key: str) -> Generator[Any, Any, int]:
    return replica.create_lock_ref(key)


def _acquire_lock(replica: MusicReplica, key: str, lock_ref: int) -> Generator[Any, Any, bool]:
    return replica.acquire_lock(key, lock_ref)


class MusicClient:
    """A client of the MUSIC service."""

    def __init__(
        self,
        replicas: List[MusicReplica],
        site: str,
        client_id: str = "client",
        config: Optional[MusicConfig] = None,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        if not replicas:
            raise ValueError("a MUSIC client needs at least one replica")
        self.site = site
        self.client_id = client_id
        self.config = config or replicas[0].config
        # What the feature switches ask of a client, resolved once:
        # whether the read-lease session state below is kept.
        self.read_leases = self.config.read_leases
        profile = replicas[0].network.profile
        # Home replica first, then by proximity — the failover order.
        self.replicas = sorted(
            replicas, key=lambda r: profile.rtt(site, r.site)
        )
        # The jitter stream is made on first draw (see rng): an
        # uncontended client never retries or polls.
        self._streams = streams or RandomStreams(0)
        self._rng: Optional[random.Random] = None
        self.sim = replicas[0].sim
        # Session state: the per-key monotonic-prefix watermark for
        # bounded reads (read_leases only), and the per-(key, lockRef)
        # critical-write watermark gating lease and hand-off serves.
        self._session_reads: Dict[str, Tuple[Any, Any]] = {}
        self._critical_watermarks: Dict[Tuple[str, int], Stamp] = {}
        # The hand-off (DESIGN.md §7): per (key, lockRef), what its
        # release hands on, on the hot path — the (value, stamp) of the
        # section's last acknowledged op, () "unknown" once an op needed
        # a second attempt; absent while it did no op.  An unknown
        # release, like one that did no op, writes no row.
        self._hot_path = self.config.fast_locks
        self._handoffs: Dict[Tuple[str, int], Tuple[Any, ...]] = {}

    @property
    def replica(self) -> MusicReplica:
        """The currently preferred (nearest non-failed) replica."""
        for replica in self.replicas:
            if not replica.failed:
                return replica
        return self.replicas[0]

    @property
    def rng(self) -> random.Random:
        """The client's jitter stream (retry delays, poll sleeps); made
        lazily, which changes no draw: a stream depends only on (seed,
        name)."""
        rng = self._rng
        if rng is None:
            rng = self._rng = self._streams.stream(f"client:{self.client_id}")
        return rng

    # -- retry plumbing ---------------------------------------------------------

    def _with_failover(self, op_name: str, op, *args: Any) -> Generator[Any, Any, Any]:
        """Run ``op(replica, *args)`` with retries across replicas on nacks.

        Every attempt contacts a live replica: known-failed replicas are
        skipped by advancing the rotation cursor, not by burning one of
        the ``OP_RETRY_LIMIT`` attempts.  If no live replica remains the
        operation fails immediately rather than spinning the loop dry.
        """
        last_error: Optional[BaseException] = None
        cursor = 0
        try:
            for attempt in range(OP_RETRY_LIMIT):
                replica = None
                for _ in range(len(self.replicas)):
                    candidate = self.replicas[cursor % len(self.replicas)]
                    cursor += 1
                    if not candidate.failed:
                        replica = candidate
                        break
                if replica is None:
                    raise last_error or QuorumUnavailable(
                        f"{op_name}: every replica is failed"
                    )
                try:
                    result = yield from op(replica, *args)
                    return result
                except _RETRYABLE as error:
                    last_error = error
                    if attempt + 1 < OP_RETRY_LIMIT:
                        yield self.config.op_retry_delay_ms * (1 + self.rng.random())
            raise last_error or QuorumUnavailable(f"{op_name}: no replica reachable")
        finally:
            # The error's traceback holds this frame; a frame that went on
            # naming the error would make the two a cycle.
            last_error = None

    # -- MUSIC operations -------------------------------------------------------

    def create_lock_ref(self, key: str) -> Generator[Any, Any, int]:
        return self._with_failover("createLockRef", _create_lock_ref, key)

    def acquire_lock(self, key: str, lock_ref: int) -> Generator[Any, Any, bool]:
        return self._with_failover("acquireLock", _acquire_lock, key, lock_ref)

    def acquire_lock_blocking(
        self, key: str, lock_ref: int, timeout_ms: Optional[float] = None
    ) -> Generator[Any, Any, bool]:
        """Poll acquire_lock until granted.

        Returns True when granted; False if ``timeout_ms`` elapsed first
        — every sleep is clamped to the remaining deadline and the
        deadline is re-checked before the next quorum attempt, so the
        wait never overshoots ``timeout_ms``.  Raises
        :class:`NotLockHolder` if the lockRef was preempted while
        waiting.

        Without a release channel the polls back off from
        ``acquire_poll_interval_ms`` to ``acquire_poll_max_ms``.  With
        one, the push naming ``lock_ref`` the successor is the grant
        signal, and the timer a liveness fuse: ``acquire_poll_max_ms``
        per place the last denied poll found ``lock_ref`` behind the
        queue head.  A pushed waiter polls after the apply fuse, then
        backs off from it.
        """
        config = self.config
        deadline = None if timeout_ms is None else self.sim.now + timeout_ms
        interval = config.acquire_poll_interval_ms
        # The release subscription outlives individual polls, so a push
        # arriving *while* a poll is in flight is not lost.  Push grants
        # off, the waiter is None: one lookup per acquire.
        channel = self.replica.push
        waiter = channel.subscribe(key, lock_ref)
        fuse = waiter is not None
        try:
            while True:
                granted = yield from self.acquire_lock(key, lock_ref)
                if granted:
                    return True
                if deadline is not None and self.sim.now >= deadline:
                    return False
                # A release that landed during the poll round trip counts
                # as a push received now.
                pushed = waiter is not None and waiter.triggered
                if not pushed:
                    if fuse:
                        interval = config.acquire_poll_max_ms * channel.distance(key, lock_ref)
                    sleep = self._poll_sleep(interval, deadline)
                    if waiter is None:
                        yield sleep  # a bare delay: nobody else waits on it
                    else:
                        which, _ = yield self.sim.any_of(
                            [waiter, self.sim.timeout(sleep)]
                        )
                        pushed = which == 0
                if pushed:
                    # Renew (the notify consumed the waiter) at the
                    # replica preferred now.  The grant is a local store
                    # apply away (the push races the commit round).
                    channel = self.replica.push
                    waiter = channel.subscribe(key, lock_ref)
                    fuse = False
                    interval = APPLY_FUSE_MS
                    yield self._poll_sleep(interval, deadline)
                interval = min(interval * ACQUIRE_POLL_BACKOFF, config.acquire_poll_max_ms)
                if deadline is not None and self.sim.now >= deadline:
                    return False
        finally:
            if waiter is not None:
                channel.unsubscribe(key, lock_ref, waiter)

    def _poll_sleep(self, interval: float, deadline: Optional[float]) -> float:
        """``interval`` plus up to 20 % jitter, clamped to ``deadline``."""
        sleep = interval * (1 + 0.2 * self.rng.random())
        return sleep if deadline is None else min(sleep, deadline - self.sim.now)

    def _put_once(
        self, replica, key: str, lock_ref: int, value: Any, delete: bool
    ) -> Generator[Any, Any, Stamp]:
        """One criticalPut (or criticalDelete) attempt at a replica,
        returning the stamp that attempt was acknowledged under."""
        # What the section hands on is unknown until this attempt is
        # acknowledged, and stays so once an earlier attempt left it
        # unknown (this op, or one before it, was retried).
        section = (key, lock_ref)
        first = self._handoffs.get(section) != ()
        self._handoffs[section] = ()
        if delete:
            stamp = yield from replica.critical_delete(key, lock_ref)
        else:
            stamp = yield from replica.critical_put(key, lock_ref, value)
        if stamp is None:
            # Guard said "not first yet": the local lock store lags;
            # surface as retryable.
            raise QuorumUnavailable("local lock store behind; retry")
        # This session's floor for lease-served reads, so a failover to a
        # stale-mirror replica cannot serve a value older than our own
        # last write; and, once set, no get of the section is served by
        # the hand-off.
        self._critical_watermarks[(key, lock_ref)] = stamp
        if first:
            self._handoffs[section] = (value, stamp)
        return stamp

    def _get_once(
        self, replica, key: str, lock_ref: int
    ) -> Generator[Any, Any, Tuple[Any, Optional[Stamp]]]:
        """One criticalGet attempt at a replica, returning ``(value,
        stamp)`` of what it served."""
        section = (key, lock_ref)
        first = self._handoffs.get(section) != ()  # as in _put_once
        self._handoffs[section] = ()
        # None unless this section has written.
        min_stamp = self._critical_watermarks.get(section)
        ok, value, stamp = yield from replica.critical_get(key, lock_ref, min_stamp)
        if not ok:
            raise QuorumUnavailable("local lock store behind; retry")
        if first:
            self._handoffs[section] = (value, stamp)
        return (value, stamp)

    def critical_put(self, key: str, lock_ref: int, value: Any) -> Generator[Any, Any, Stamp]:
        """criticalPut, retried until acknowledged (the client obligation
        behind the 'true value' definition of Section III-A); returns
        the acknowledged write's stamp."""
        return self._with_failover("criticalPut", self._put_once, key, lock_ref, value, False)

    def critical_delete(self, key: str, lock_ref: int) -> Generator[Any, Any, Stamp]:
        """Delete the value of ``key`` as the lockholder (Section VI)."""
        return self._with_failover("criticalDelete", self._put_once, key, lock_ref, None, True)

    def critical_get(self, key: str, lock_ref: int) -> Generator[Any, Any, Any]:
        value, _ = yield from self._with_failover("criticalGet", self._get_once, key, lock_ref)
        return value

    def critical_get_stamped(
        self, key: str, lock_ref: int
    ) -> Generator[Any, Any, Tuple[Any, Optional[Stamp]]]:
        """criticalGet returning ``(value, stamp)`` — the version token
        the transaction layer records in read sets (None = never
        written)."""
        return self._with_failover("criticalGet", self._get_once, key, lock_ref)

    def txn_read(
        self, key: str
    ) -> Generator[Any, Any, Tuple[Any, Optional[Stamp]]]:
        """Unguarded quorum read of ``(value, stamp)`` (optimistic-engine
        read path; see :meth:`MusicReplica.quorum_get`)."""
        return self._with_failover(
            "txnRead", lambda replica: replica.quorum_get(key)
        )

    def txn_write(
        self, key: str, value: Any, stamp: Stamp
    ) -> Generator[Any, Any, None]:
        """Unguarded quorum write under an engine-minted stamp."""
        yield from self._with_failover(
            "txnWrite", lambda replica: replica.quorum_put(key, value, stamp)
        )

    def release_lock(self, key: str, lock_ref: int) -> Generator[Any, Any, bool]:
        self._critical_watermarks.pop((key, lock_ref), None)
        handoff = self._handoffs.pop((key, lock_ref), None) or None  # () is unknown
        if not self._hot_path:
            handoff = None  # the paper's release hands nothing on
        try:
            done = yield from self._with_failover(
                "releaseLock", lambda replica: replica.release_lock(key, lock_ref, handoff)
            )
            return done
        except NotLockHolder:
            return True  # already preempted: nothing to release

    def put(self, key: str, value: Any) -> Generator[Any, Any, None]:
        yield from self._with_failover("put", lambda replica: replica.put(key, value))

    def get(
        self, key: str, staleness_ms: Optional[float] = None
    ) -> Generator[Any, Any, Any]:
        """Eventual read; with ``read_leases`` on and a ``staleness_ms``
        bound, served from the replica read cache under monotonic-prefix
        session semantics (a later read never observes an older stamp
        than an earlier read of the same key by this client)."""
        if staleness_ms is None or not self.read_leases:
            value = yield from self._with_failover(
                "get", lambda replica: replica.get(key)
            )
            return value
        read = yield from self._with_failover(
            "getBounded", lambda replica: replica.get_bounded(key, staleness_ms)
        )
        session = False
        last = self._session_reads.get(key)
        if last is not None and read.stamp is not None and last[0] is not None \
                and read.stamp < last[0]:
            # The cache (e.g. after failover to a colder replica) went
            # backwards relative to this session: serve the remembered
            # value instead and leave the watermark alone.
            session = True
        else:
            self._session_reads[key] = (read.stamp, read.value)
        audit = self.replicas[0].obs.audit
        if audit.enabled:
            watermark = self._session_reads[key]
            audit.emit(
                "cached_read", key=key, node=read.node,
                stamp=(read.stamp if not session else watermark[0]),
                client=self.client_id,
                fetched_ms=(None if session else read.fetched_ms),
                bound_ms=staleness_ms, hit=read.hit, session=session,
            )
        if session:
            return self._session_reads[key][1]
        return read.value

    def get_all_keys(self) -> Generator[Any, Any, list]:
        return self._with_failover(
            "getAllKeys", lambda replica: replica.get_all_keys()
        )

    # -- Listing 1 as a helper -----------------------------------------------------

    def critical_section(
        self, key: str, timeout_ms: Optional[float] = None
    ) -> Generator[Any, Any, "CriticalSection"]:
        """Enter a critical section on ``key``: create + acquire (blocking).

        Returns a :class:`CriticalSection` handle; callers must ``yield
        from handle.exit()`` when done (or abandon it on failure, after
        which preemption will reclaim the lock).
        """
        lock_ref = yield from self.create_lock_ref(key)
        granted = yield from self.acquire_lock_blocking(key, lock_ref, timeout_ms)
        if not granted:
            # Give the lock back rather than leaving an orphan lockRef.
            yield from self.release_lock(key, lock_ref)
            raise ReproError(f"timed out waiting for the lock on {key!r}")
        return CriticalSection(self, key, lock_ref)


class CriticalSection:
    """A held lock: get/put/delete sugar bound to (client, key, lockRef)."""

    def __init__(self, client: MusicClient, key: str, lock_ref: int) -> None:
        self.client = client
        self.key = key
        self.lock_ref = lock_ref

    def get(self) -> Generator[Any, Any, Any]:
        return self.client.critical_get(self.key, self.lock_ref)

    def put(self, value: Any) -> Generator[Any, Any, Stamp]:
        return self.client.critical_put(self.key, self.lock_ref, value)

    def delete(self) -> Generator[Any, Any, Stamp]:
        return self.client.critical_delete(self.key, self.lock_ref)

    def exit(self) -> Generator[Any, Any, None]:
        yield from self.client.release_lock(self.key, self.lock_ref)
