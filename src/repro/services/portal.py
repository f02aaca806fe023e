"""The Management Portal Service of Section VII-b: active replication
with failover via lock-reference ownership.

The ownership structuring paradigm: each user's role record is owned by
exactly one back-end replica, which holds a long-lived MUSIC lock on the
user's key and performs every update with a single criticalPut under
that lockRef.  Ownership only moves when the owner fails: the front end
retries at the next-closest back end, which *forcibly releases* the old
owner's lock, acquires its own, and records itself as owner.  Amortizing
one lock acquisition over many updates removes the two consensus
operations from the per-write path (the point of the pseudo-code in
Section VII-b), and MUSIC's ECF semantics make the forced takeover safe
even when the old owner was only *presumed* dead.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from ..core.client import MusicClient
from ..core.replica import MusicReplica
from ..errors import NotLockHolder, ReproError, RpcTimeout

__all__ = ["PortalBackend", "PortalFrontend"]


def _owner_key(user_id: str) -> str:
    return f"{user_id}-owner"


class PortalBackend:
    """One Portal back-end replica, processing role updates it owns."""

    def __init__(self, replica: MusicReplica, backend_id: str) -> None:
        self.replica = replica
        self.sim = replica.sim
        self.backend_id = backend_id
        self.client = MusicClient([replica], replica.site, client_id=backend_id)
        # Cached (lockRef per user) — ownership is sticky.
        self._lock_refs: Dict[str, int] = {}
        self.writes_processed = 0
        self.ownership_takeovers = 0
        self.alive = True

    def write(self, user_id: str, role: str) -> Generator[Any, Any, str]:
        """Process one role update; returns 'SUCCESS' or raises.

        Implements the back-end pseudo-code of Section VII-b: become the
        owner if nobody is, take over (forcedRelease + acquire) if the
        recorded owner is someone else, then criticalPut the role.
        """
        if not self.alive:
            raise RpcTimeout(f"backend {self.backend_id} is down")
        owner_details = yield from self.client.get(_owner_key(user_id))
        if owner_details is None:
            yield from self._own(user_id)
        elif owner_details["owner"] != self.backend_id:
            # The previous owner must have failed (the front end only
            # sends us traffic when it cannot reach the owner).
            self.ownership_takeovers += 1
            yield from self.replica.forced_release(user_id, owner_details["lockRef"])
            yield from self._own(user_id)
        lock_ref = self._lock_refs.get(user_id)
        if lock_ref is None:
            # We believe we own it but lost our cache (restart): re-own.
            yield from self._own(user_id)
            lock_ref = self._lock_refs[user_id]
        yield from self.client.critical_put(user_id, lock_ref, {"role": role})
        self.writes_processed += 1
        return "SUCCESS"

    def read(self, user_id: str) -> Generator[Any, Any, Optional[str]]:
        """Latest-state read under the owner's lock."""
        lock_ref = self._lock_refs.get(user_id)
        if lock_ref is None:
            yield from self._own(user_id)
            lock_ref = self._lock_refs[user_id]
        value = yield from self.client.critical_get(user_id, lock_ref)
        return None if value is None else value.get("role")

    def _own(self, user_id: str) -> Generator[Any, Any, None]:
        """own(userID) from Section VII-b: acquire and advertise."""
        lock_ref = yield from self.client.create_lock_ref(user_id)
        granted = yield from self.client.acquire_lock_blocking(user_id, lock_ref)
        if not granted:
            raise NotLockHolder(f"{self.backend_id} could not acquire {user_id!r}")
        self._lock_refs[user_id] = lock_ref
        yield from self.client.put(
            _owner_key(user_id), {"owner": self.backend_id, "lockRef": lock_ref}
        )

    def fail(self) -> None:
        """Crash this back end (front ends will observe timeouts)."""
        self.alive = False

    def recover(self) -> None:
        self.alive = True
        self._lock_refs.clear()  # the cache died with the process


class PortalFrontend:
    """A Portal REST front-end replica routing requests to owners."""

    def __init__(self, client: MusicClient, backends: List[PortalBackend],
                 retries: int = 3,
                 owner_cache_ttl_ms: float = 30_000.0,
                 owner_read_staleness_ms: Optional[float] = None) -> None:
        self.client = client
        self.sim = client.sim
        self.backends = backends
        self.retries = retries
        # Owner cache: a stale entry costs an ownership transition *per
        # write routed through it*, so entries expire after
        # ``owner_cache_ttl_ms`` — and, when the deployment runs with
        # push grants, are dropped the moment a takeover's release push
        # reaches this front end's replica (the user's lock key is the
        # user id, so a forcedRelease push names exactly the re-homed
        # user).  The cache maps user -> backend id; ages live beside it
        # so existing callers can keep treating it as a plain dict.
        self._owner_cache: Dict[str, str] = {}
        self._owner_cached_at: Dict[str, float] = {}
        self.owner_cache_ttl_ms = owner_cache_ttl_ms
        # Optional staleness bound for owner-record lookups via the
        # bounded-staleness read tier (requires read_leases).
        self.owner_read_staleness_ms = owner_read_staleness_ms
        client.replica.push.add_listener(self._on_release_push)

    def _on_release_push(self, key: str, gone: int) -> None:
        # A release/forcedRelease of ``key`` ended some critical section;
        # if it was a user's ownership lock, our routing entry for that
        # user may now point at the loser.
        self._owner_cache.pop(key, None)
        self._owner_cached_at.pop(key, None)

    def _cache_owner(self, user_id: str, backend_id: str) -> None:
        self._owner_cache[user_id] = backend_id
        self._owner_cached_at[user_id] = self.sim.now

    def write(self, user_id: str, role: str) -> Generator[Any, Any, str]:
        """The front-end pseudo-code: try the owner, then fail over."""
        ordered = yield from self._candidate_backends(user_id)
        last_error: Optional[BaseException] = None
        for backend in ordered[: self.retries + 1]:
            try:
                result = yield from backend.write(user_id, role)
                self._cache_owner(user_id, backend.backend_id)
                return result
            except (RpcTimeout, NotLockHolder, ReproError) as error:
                last_error = error
        raise last_error or RpcTimeout(f"no backend could serve {user_id!r}")

    def dashboard_role(
        self, user_id: str, staleness_ms: Optional[float] = None
    ) -> Generator[Any, Any, Optional[str]]:
        """A dashboard read of the user's role: latest-state via the
        owner when no bound is given, else the bounded-staleness read
        tier (served from the replica read cache when fresh enough)."""
        if staleness_ms is not None:
            value = yield from self.client.get(user_id, staleness_ms=staleness_ms)
            return None if value is None else value.get("role")
        ordered = yield from self._candidate_backends(user_id)
        last_error: Optional[BaseException] = None
        for backend in ordered[: self.retries + 1]:
            try:
                role = yield from backend.read(user_id)
                return role
            except (RpcTimeout, NotLockHolder, ReproError) as error:
                last_error = error
        raise last_error or RpcTimeout(f"no backend could serve {user_id!r}")

    def _candidate_backends(self, user_id: str) -> Generator[Any, Any, List[PortalBackend]]:
        owner_id = self._owner_cache.get(user_id)
        if owner_id is not None:
            cached_at = self._owner_cached_at.get(user_id)
            if (
                cached_at is None
                or self.sim.now - cached_at > self.owner_cache_ttl_ms
            ):
                # Entry aged out (or predates age tracking): re-resolve
                # rather than routing a write at a possibly-dead owner.
                self._owner_cache.pop(user_id, None)
                self._owner_cached_at.pop(user_id, None)
                owner_id = None
        if owner_id is None:
            details = yield from self.client.get(
                _owner_key(user_id), staleness_ms=self.owner_read_staleness_ms
            )
            if details is not None:
                owner_id = details["owner"]
                self._cache_owner(user_id, owner_id)
        profile = self.client.replicas[0].network.profile
        by_proximity = sorted(
            self.backends,
            key=lambda b: profile.rtt(self.client.site, b.replica.site),
        )
        if owner_id is None:
            return by_proximity
        owned = [b for b in by_proximity if b.backend_id == owner_id]
        others = [b for b in by_proximity if b.backend_id != owner_id]
        return owned + others
