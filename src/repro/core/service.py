"""MUSIC as a multi-site web service (the second deployment of Fig. 1).

There is one client — :class:`~repro.core.client.MusicClient` — and the
deployment mode is *which replica objects it is handed*.  In library
mode those are the :class:`MusicReplica` objects themselves; in service
mode (clients on their own hosts, the REST deployment) they are
:class:`ReplicaStub` objects, which duck-type the replica surface the
client uses by issuing one RPC per operation to a replica that ran
:func:`install_service`, paying the client-to-replica hop the library
mode avoids.  Retries, failover, the blocking-acquire loop and
``CriticalSection`` exist once, in the client.

Both sides of the wire — the replica's RPC handler and the stub's
operation methods — come from the single ``_OPERATIONS`` table.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, Optional, Tuple

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
from .client import MusicClient
from .config import MusicConfig
from .push import NO_PUSH
from .replica import MusicReplica

__all__ = ["install_service", "ReplicaStub", "service_client"]

# Lifetime of one ``music.waitRelease`` subscription at the replica; the
# stub renews one that lapses unpushed.
PUSH_WAIT_MS = 2_000.0

_ERROR_KINDS = {
    "NotLockHolder": NotLockHolder,
    "QuorumUnavailable": QuorumUnavailable,
    "LeaseExpired": LeaseExpired,
    "LockContention": LockContention,
}

# RPC kind -> (replica method, its argument names).
_OPERATIONS = {
    "music.createLockRef": ("create_lock_ref", ("key",)),
    "music.acquireLock": ("acquire_lock", ("key", "lock_ref")),
    "music.criticalPut": ("critical_put", ("key", "lock_ref", "value")),
    "music.criticalGet": ("critical_get", ("key", "lock_ref", "min_stamp")),
    "music.criticalDelete": ("critical_delete", ("key", "lock_ref")),
    "music.releaseLock": ("release_lock", ("key", "lock_ref", "handoff")),
    "music.put": ("put", ("key", "value")),
    "music.get": ("get", ("key",)),
    "music.getBounded": ("get_bounded", ("key", "staleness_ms")),
    "music.quorumGet": ("quorum_get", ("key",)),
    "music.quorumPut": ("quorum_put", ("key", "value", "stamp")),
    "music.getAllKeys": ("get_all_keys", ()),
}

# The writes answer with the stamp they were acknowledged under; on the
# wire that is a bare ack.
_WRITE_KINDS = frozenset({"music.criticalPut", "music.criticalDelete", "music.quorumPut"})


def _reply_size(kind: str, result: Any) -> int:
    """Modelled size of a successful reply: what it carries of the
    *value*, plus a fixed envelope the version stamp of a write or a
    criticalGet rides in (a header, as the REST deployment has it)."""
    if kind in _WRITE_KINDS:
        result = None
    elif kind == "music.criticalGet":
        result = result[:2]
    return payload_size(result) + 32


def install_service(replica: MusicReplica) -> None:
    """Expose the client-facing operations of ``replica`` over RPC."""

    def handler(msg) -> Generator[Any, Any, None]:
        method_name, arg_names = _OPERATIONS[msg.kind]
        body = replica.payload(msg)
        args = [body.get(name) for name in arg_names]
        try:
            result = yield from getattr(replica, method_name)(*args)
            if result is False and msg.kind == "music.acquireLock" and replica.push is not NO_PUSH:
                # A denied poll answers the client's fuse (push.py).
                result = replica.push.distance(*args)
            reply = {"ok": True, "result": result}
            size_bytes = _reply_size(msg.kind, result)
        except ReproError as error:
            reply = {
                "ok": False,
                "error_kind": type(error).__name__,
                "error": str(error),
            }
            size_bytes = payload_size(None) + 32
        replica.reply(msg, reply, size_bytes=size_bytes)

    def wait_release(msg) -> Generator[Any, Any, None]:
        # The stub's subscribe: hold the request until a release of the
        # key names the client's lockRef its successor, or the
        # client-supplied bound elapses; the reply says which.
        body = replica.payload(msg)
        key, lock_ref = body["key"], body["lock_ref"]
        waiter = replica.push.subscribe(key, lock_ref)
        try:
            which, _ = yield replica.sim.any_of(
                [waiter, replica.sim.timeout(body["wait_ms"])]
            )
        finally:
            replica.push.unsubscribe(key, lock_ref, waiter)
        replica.reply(msg, {"ok": True, "result": which == 0})

    for kind in _OPERATIONS:
        replica.on(kind, handler)
    replica.on("music.waitRelease", wait_release)


class ReplicaStub:
    """A remote MUSIC replica as seen from a client host.

    Offers what :class:`MusicClient` uses of a :class:`MusicReplica` —
    identity (``node_id``/``site``/``failed``/``config``), environment
    (``sim``/``network``/``obs``, the host's), the operation generators
    of ``_OPERATIONS`` and the release channel ``push`` — each operation
    being one RPC whose result is returned, or typed error re-raised,
    here.
    """

    def __init__(self, host: Node, node_id: str, site: str, config: MusicConfig) -> None:
        self.host = host
        self.node_id = node_id
        self.site = site
        self.config = config
        self.sim = host.sim
        self.network = host.network
        self.obs = host.obs
        self._long_poll = config.push_grants
        self._polled: Tuple[Any, Any, Any] = (None, None, 1)

    @property
    def failed(self) -> bool:
        return self.network.is_failed(self.node_id)

    @property
    def push(self) -> Any:
        """The release channel: this stub's long-poll, or NO_PUSH."""
        return self if self._long_poll else NO_PUSH

    def _call(self, kind: str, body: dict) -> Generator[Any, Any, Any]:
        size = payload_size(body.get("value")) + 48
        if body.get("handoff") is not None:  # a release carries the value it hands on
            size += payload_size(body["handoff"])
        try:
            reply = yield from self.host.call(self.node_id, kind, body, size_bytes=size)
        except RpcTimeout as error:
            # An unreachable replica is the Section III-A nack, not a
            # transport detail: the client retries it elsewhere.
            raise QuorumUnavailable(f"{kind}: {error}") from error
        if not reply["ok"]:
            raise _ERROR_KINDS.get(reply["error_kind"], ReproError)(reply["error"])
        return reply["result"]

    def acquire_lock(self, key: str, lock_ref: int) -> Generator[Any, Any, bool]:
        """acquireLock over RPC; with push grants on, a denied poll is
        answered with how far back ``lock_ref`` stands (:meth:`distance`)."""
        result = yield from self._call("music.acquireLock", {"key": key, "lock_ref": lock_ref})
        self._polled = (key, lock_ref, result)
        return result is True

    def distance(self, key: str, lock_ref: int) -> int:
        """How far back the last poll found ``lock_ref`` (1 if it polled another)."""
        polled_key, polled_ref, distance = self._polled
        return distance if (polled_key, polled_ref) == (key, lock_ref) else 1

    def subscribe(self, key: str, lock_ref: int, waiter: Any = None) -> Any:
        """An Event (``waiter``, when renewing) firing when a release of
        ``key`` observed by the replica names ``lock_ref`` its successor,
        or when the replica proves unreachable (the push is advisory: a
        woken client just polls).  One that lapses unpushed is renewed."""
        waiter = waiter or self.sim.event(name=f"grantPush:{key}")

        def answered(reply: Any) -> None:
            if waiter.triggered:  # unsubscribed
                return
            if reply.ok and not reply.value["result"]:
                self.subscribe(key, lock_ref, waiter)
            else:
                waiter.succeed(True)

        self.host.call_async(
            self.node_id, "music.waitRelease",
            {"key": key, "lock_ref": lock_ref, "wait_ms": PUSH_WAIT_MS},
            timeout=PUSH_WAIT_MS + DEFAULT_RPC_TIMEOUT_MS,
        ).add_callback(answered)
        return waiter

    def unsubscribe(self, key: str, lock_ref: int, waiter: Any) -> None:
        """Stop renewing: the replica-side subscription ends at its push
        or its bound, and the late reply finds no one waiting."""
        if not waiter.triggered:
            waiter.succeed(False)


def _stub_method(kind: str, arg_names):
    def method(self, *args, **kwargs):
        return self._call(kind, dict(zip(arg_names, args), **kwargs))

    return method


for _kind, (_method_name, _arg_names) in _OPERATIONS.items():
    if _method_name not in vars(ReplicaStub):
        setattr(ReplicaStub, _method_name, _stub_method(_kind, _arg_names))


def service_client(
    host: Node,
    replicas: Iterable[Tuple[str, str]],
    config: MusicConfig,
    streams: Optional[RandomStreams] = None,
) -> MusicClient:
    """A service-mode client on ``host``: the one :class:`MusicClient`,
    handed stubs of ``replicas`` — ``(node id, site)`` pairs of replicas
    that ran :func:`install_service`."""
    stubs = [ReplicaStub(host, node_id, site, config) for node_id, site in replicas]
    return MusicClient(
        stubs, host.site, client_id=host.node_id, config=config, streams=streams
    )
