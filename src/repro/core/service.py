"""MUSIC as a multi-site web service (the second deployment of Fig. 1).

Besides the library mode (client code colocated with a MUSIC replica),
the production system exposes MUSIC as a REST service: clients on their
own hosts send each operation to a nearby replica over the network.
``install_service`` registers RPC handlers on a replica;
``RemoteMusicClient`` is the client stub, offering the same operations
as the in-process client (plus retry/failover across replicas) while
paying the client-to-replica network hop the library mode avoids.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from ..errors import (
    LeaseExpired,
    LockContention,
    NotLockHolder,
    QuorumUnavailable,
    ReproError,
    RpcTimeout,
)
from ..net import Node
from ..net.node import DEFAULT_RPC_TIMEOUT_MS
from ..sim import RandomStreams
from ..store.types import payload_size
from .client import ACQUIRE_POLL_BACKOFF
from .replica import MusicReplica

__all__ = ["install_service", "RemoteMusicClient"]

# Long-poll ceiling of a push-mode ``music.waitRelease`` wait.
PUSH_WAIT_MS = 2_000.0

_ERROR_KINDS = {
    "NotLockHolder": NotLockHolder,
    "QuorumUnavailable": QuorumUnavailable,
    "LeaseExpired": LeaseExpired,
    "LockContention": LockContention,
}

# (RPC kind, replica method, which args it takes)
_OPERATIONS = {
    "music.createLockRef": ("create_lock_ref", ("key",)),
    "music.acquireLock": ("acquire_lock", ("key", "lock_ref")),
    "music.criticalPut": ("critical_put", ("key", "lock_ref", "value")),
    "music.criticalGet": ("critical_get", ("key", "lock_ref")),
    "music.criticalDelete": ("critical_delete", ("key", "lock_ref")),
    "music.releaseLock": ("release_lock", ("key", "lock_ref")),
    "music.put": ("put", ("key", "value")),
    "music.get": ("get", ("key",)),
    "music.getAllKeys": ("get_all_keys", ()),
}


def install_service(replica: MusicReplica) -> None:
    """Expose the ECF operations of ``replica`` over RPC."""

    def make_handler(method_name: str, arg_names):
        method = getattr(replica, method_name)

        def handler(msg) -> Generator[Any, Any, None]:
            body = replica.payload(msg)
            args = [body[name] for name in arg_names]
            try:
                result = yield from method(*args)
                reply = {"ok": True, "result": result}
            except ReproError as error:
                reply = {
                    "ok": False,
                    "error_kind": type(error).__name__,
                    "error": str(error),
                }
            replica.reply(msg, reply, size_bytes=payload_size(reply.get("result")) + 32)

        return handler

    def wait_release(msg) -> Generator[Any, Any, None]:
        # Long-poll for push grants: hold the request until the key's
        # next observed dequeue, or the client-supplied bound elapses.
        body = replica.payload(msg)
        waiter = replica.subscribe_release(body["key"])
        try:
            yield replica.sim.any_of(
                [waiter, replica.sim.timeout(body["wait_ms"])]
            )
        finally:
            replica.unsubscribe_release(body["key"], waiter)
        replica.reply(msg, {"ok": True, "result": None})

    for kind, (method_name, arg_names) in _OPERATIONS.items():
        replica.on(kind, make_handler(method_name, arg_names))
    replica.on("music.waitRelease", wait_release)


class RemoteMusicClient:
    """A MUSIC client on its own host, talking to replicas over RPC.

    The interface mirrors :class:`~repro.core.client.MusicClient`; nacks
    (quorum unavailability, replica timeouts) are retried at the next-
    closest replica, per Section III-A.
    """

    def __init__(
        self,
        host: Node,
        replicas: List[MusicReplica],
        config=None,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        if not replicas:
            raise ValueError("need at least one MUSIC replica")
        self.host = host
        self.sim = host.sim
        self.config = config or replicas[0].config
        profile = host.network.profile
        self.replicas = sorted(
            replicas, key=lambda r: profile.rtt(host.site, r.site)
        )
        self._rng = (streams or RandomStreams(0)).stream(f"remote:{host.node_id}")

    def _invoke(self, kind: str, body: dict) -> Generator[Any, Any, Any]:
        """One operation with failover, mirroring the library client's
        attempt accounting: known-failed replicas advance the rotation
        cursor without consuming an attempt, and exhausting the live set
        fails immediately."""
        last_error: Optional[BaseException] = None
        size = payload_size(body.get("value")) + 48
        attempts = self.config.op_retry_limit
        cursor = 0
        for attempt in range(attempts):
            replica = None
            for _ in range(len(self.replicas)):
                candidate = self.replicas[cursor % len(self.replicas)]
                cursor += 1
                if not candidate.failed:
                    replica = candidate
                    break
            if replica is None:
                if isinstance(last_error, RpcTimeout):
                    raise QuorumUnavailable(f"{kind}: {last_error}") from last_error
                raise last_error or QuorumUnavailable(
                    f"{kind}: every replica is failed"
                )
            try:
                reply = yield from self.host.call(
                    replica.node_id, kind, body, size_bytes=size
                )
            except RpcTimeout as error:
                last_error = error
                continue
            if reply["ok"]:
                return reply["result"]
            error_class = _ERROR_KINDS.get(reply["error_kind"], ReproError)
            if error_class in (NotLockHolder, LeaseExpired):
                raise error_class(reply["error"])  # terminal: do not retry
            last_error = error_class(reply["error"])
            if attempt + 1 < attempts:
                yield self.sim.timeout(
                    self.config.op_retry_delay_ms * (1 + self._rng.random())
                )
        if isinstance(last_error, RpcTimeout):
            # Exhausted retries on unreachable replicas: surface the
            # Section III-A nack, not a transport detail.
            raise QuorumUnavailable(f"{kind}: {last_error}") from last_error
        raise last_error or QuorumUnavailable(f"{kind}: no replica reachable")

    # -- the MUSIC operations ------------------------------------------------

    def create_lock_ref(self, key: str) -> Generator[Any, Any, int]:
        return self._invoke("music.createLockRef", {"key": key})

    def acquire_lock(self, key: str, lock_ref: int) -> Generator[Any, Any, bool]:
        return self._invoke("music.acquireLock", {"key": key, "lock_ref": lock_ref})

    def acquire_lock_blocking(
        self, key: str, lock_ref: int, timeout_ms: Optional[float] = None
    ) -> Generator[Any, Any, bool]:
        deadline = None if timeout_ms is None else self.sim.now + timeout_ms
        interval = self.config.acquire_poll_interval_ms
        while True:
            granted = yield from self.acquire_lock(key, lock_ref)
            if granted:
                return True
            if deadline is not None and self.sim.now >= deadline:
                return False
            if self.config.push_grants:
                # Long-poll a nearby replica: the reply arrives at the
                # key's next dequeue (or after the wait bound), replacing
                # the blind backoff sleep with a push wake-up.
                wait_ms = PUSH_WAIT_MS
                if deadline is not None:
                    wait_ms = min(wait_ms, deadline - self.sim.now)
                yield from self._wait_release(key, wait_ms)
            else:
                sleep = interval
                if deadline is not None:
                    sleep = min(sleep, deadline - self.sim.now)
                yield self.sim.timeout(sleep)
                interval = min(
                    interval * ACQUIRE_POLL_BACKOFF,
                    self.config.acquire_poll_max_ms,
                )
            if deadline is not None and self.sim.now >= deadline:
                return False

    def _wait_release(self, key: str, wait_ms: float) -> Generator[Any, Any, None]:
        replica = next((r for r in self.replicas if not r.failed), self.replicas[0])
        try:
            yield from self.host.call(
                replica.node_id,
                "music.waitRelease",
                {"key": key, "wait_ms": wait_ms},
                timeout=wait_ms + DEFAULT_RPC_TIMEOUT_MS,
            )
        except RpcTimeout:
            pass  # replica unreachable: fall back to the next poll

    def critical_put(self, key: str, lock_ref: int, value: Any) -> Generator[Any, Any, None]:
        done = yield from self._invoke(
            "music.criticalPut", {"key": key, "lock_ref": lock_ref, "value": value}
        )
        if not done:
            raise QuorumUnavailable("replica's local lock store lags; retry")

    def critical_get(self, key: str, lock_ref: int) -> Generator[Any, Any, Any]:
        ok, value = yield from self._invoke(
            "music.criticalGet", {"key": key, "lock_ref": lock_ref}
        )
        if not ok:
            raise QuorumUnavailable("replica's local lock store lags; retry")
        return value

    def critical_delete(self, key: str, lock_ref: int) -> Generator[Any, Any, None]:
        yield from self._invoke(
            "music.criticalDelete", {"key": key, "lock_ref": lock_ref}
        )

    def release_lock(self, key: str, lock_ref: int) -> Generator[Any, Any, bool]:
        try:
            done = yield from self._invoke(
                "music.releaseLock", {"key": key, "lock_ref": lock_ref}
            )
            return done
        except NotLockHolder:
            return True

    def put(self, key: str, value: Any) -> Generator[Any, Any, None]:
        yield from self._invoke("music.put", {"key": key, "value": value})

    def get(self, key: str) -> Generator[Any, Any, Any]:
        return self._invoke("music.get", {"key": key})

    def get_all_keys(self) -> Generator[Any, Any, list]:
        return self._invoke("music.getAllKeys", {})
