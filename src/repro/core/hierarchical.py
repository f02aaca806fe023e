"""A prototype of hierarchical MUSIC (the paper's future work).

The conclusion announces "a hierarchical version of MUSIC that will
scale better across the WAN".  This module prototypes the natural
two-level design: a per-(site, key) **lock proxy** acquires the *global*
MUSIC lock once and then multiplexes it across colocated clients with
purely intra-site coordination.  While local demand continues, the
WAN cost of createLockRef/releaseLock (two LWTs ≈ 8 quorum round trips
on the paper's protocol; one three-round LWT and one quorum delete on
the hot path) is paid once per *burst* instead of once per *client
critical section*; the ordinary MUSIC critical ops still run under the
proxy's global lockRef, so cross-site Exclusivity and Latest-State are
inherited unchanged — if the proxy is preempted (declared failed), every
local section it backs is invalidated exactly like a single preempted
client.

Fairness across sites comes from two knobs: the proxy releases the
global lock when it goes idle (no local waiters), and in any case after
``max_hold_ms`` — so a remote site's createLockRef waits at most one
bounded burst.

This is the same amortization the Management Portal does by ownership
(Section VII-b), generalized into a reusable layer with bounded holds.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Dict, Generator, Optional

from ..errors import NotLockHolder, ReproError
from ..sim import Event
from .client import MusicClient
from .replica import MusicReplica

__all__ = ["SiteLockProxy", "HierarchicalClient", "LocalSection"]


class SiteLockProxy:
    """Multiplexes one key's global MUSIC lock across one site's clients."""

    def __init__(
        self,
        replica: MusicReplica,
        key: str,
        idle_release_ms: float = 200.0,
        max_hold_ms: float = 30_000.0,
    ) -> None:
        self.replica = replica
        self.sim = replica.sim
        self.key = key
        self.idle_release_ms = idle_release_ms
        self.max_hold_ms = max_hold_ms
        self.client = MusicClient([replica], replica.site,
                                  client_id=f"proxy-{replica.site}-{key}")
        self._waiters: Deque[Event] = deque()
        self._holder_busy = False
        self._lock_ref: Optional[int] = None
        self._hold_started = 0.0
        self._manager = None
        self.stats = {"global_acquisitions": 0, "local_grants": 0}

    # -- the client-facing API ------------------------------------------------

    def enter(self) -> Generator[Any, Any, "LocalSection"]:
        """Wait for local access; returns a handle bound to the global ref."""
        gate = self.sim.event(name=f"proxy-gate:{self.key}")
        self._waiters.append(gate)
        self._ensure_manager()
        yield gate
        # We are the active local holder now.
        if self._lock_ref is None:
            raise NotLockHolder(f"proxy lost the global lock on {self.key!r}")
        self.stats["local_grants"] += 1
        return LocalSection(self, self._lock_ref)

    def _local_exit(self) -> None:
        self._holder_busy = False

    # -- the proxy's manager process -------------------------------------------

    def _ensure_manager(self) -> None:
        if self._manager is None or self._manager.triggered:
            self._manager = self.sim.process(
                self._manage(), name=f"proxy:{self.replica.site}:{self.key}"
            )

    def _manage(self) -> Generator[Any, Any, None]:
        while True:
            if not self._waiters:
                # Idle: linger briefly in case another local burst comes,
                # then release the global lock for other sites.  An
                # *active* local section keeps the idle clock reset — no
                # waiters does not mean no holder.
                idled_at = self.sim.now
                while not self._waiters:
                    if self._holder_busy:
                        idled_at = self.sim.now
                    elif self._lock_ref is not None and (
                        self.sim.now - idled_at >= self.idle_release_ms
                    ):
                        yield from self._release_global()
                    if (self._lock_ref is None and not self._waiters
                            and not self._holder_busy):
                        return  # manager retires; re-spawned on demand
                    yield self.sim.timeout(self.idle_release_ms / 4)
                continue

            if self._lock_ref is None:
                acquired = yield from self._acquire_global()
                if not acquired:
                    continue

            # Fairness: give the lock back after a bounded hold.
            if self.sim.now - self._hold_started >= self.max_hold_ms:
                yield from self._wait_holder_done()
                yield from self._release_global()
                continue

            if not self._holder_busy and self._waiters:
                self._holder_busy = True
                self._waiters.popleft().succeed(None)
            yield self.sim.timeout(1.0)

    def _acquire_global(self) -> Generator[Any, Any, bool]:
        try:
            lock_ref = yield from self.client.create_lock_ref(self.key)
            granted = yield from self.client.acquire_lock_blocking(
                self.key, lock_ref, timeout_ms=self.max_hold_ms * 4
            )
        except ReproError:
            yield self.sim.timeout(100.0)
            return False
        if not granted:
            yield from self.client.release_lock(self.key, lock_ref)
            return False
        self._lock_ref = lock_ref
        self._hold_started = self.sim.now
        self.stats["global_acquisitions"] += 1
        return True

    def _wait_holder_done(self) -> Generator[Any, Any, None]:
        while self._holder_busy:
            yield self.sim.timeout(1.0)

    def _release_global(self) -> Generator[Any, Any, None]:
        if self._lock_ref is None:
            return
        lock_ref, self._lock_ref = self._lock_ref, None
        try:
            yield from self.client.release_lock(self.key, lock_ref)
        except ReproError:
            pass  # preemption will reclaim it


class LocalSection:
    """A locally-granted slice of the proxy's global critical section."""

    def __init__(self, proxy: SiteLockProxy, lock_ref: int) -> None:
        self.proxy = proxy
        self.lock_ref = lock_ref
        self._done = False

    def get(self) -> Generator[Any, Any, Any]:
        value = yield from self.proxy.client.critical_get(self.proxy.key, self.lock_ref)
        return value

    def put(self, value: Any) -> Generator[Any, Any, None]:
        yield from self.proxy.client.critical_put(self.proxy.key, self.lock_ref, value)

    def exit(self) -> Generator[Any, Any, None]:
        """Hand local access back to the proxy (the global lock stays)."""
        if not self._done:
            self._done = True
            self.proxy._local_exit()
        return
        yield  # pragma: no cover - keeps this a generator


class HierarchicalClient:
    """Client facade: local sections via this site's proxies."""

    def __init__(self, replica: MusicReplica,
                 idle_release_ms: float = 200.0,
                 max_hold_ms: float = 30_000.0) -> None:
        self.replica = replica
        self.idle_release_ms = idle_release_ms
        self.max_hold_ms = max_hold_ms
        self._proxies: Dict[str, SiteLockProxy] = {}

    def proxy_for(self, key: str) -> SiteLockProxy:
        proxy = self._proxies.get(key)
        if proxy is None:
            proxy = SiteLockProxy(
                self.replica, key,
                idle_release_ms=self.idle_release_ms,
                max_hold_ms=self.max_hold_ms,
            )
            self._proxies[key] = proxy
        return proxy

    def critical_section(self, key: str) -> Generator[Any, Any, LocalSection]:
        section = yield from self.proxy_for(key).enter()
        return section
