"""A Zookeeper-style ensemble: Zab atomic broadcast with a stable leader.

The comparison target of Section VIII-c.  Key modelling choices, each
tied to a mechanism the paper identifies:

- **Stable leader** (the paper observed one): server 0; all writes are
  forwarded to it and sequenced through Zab.  Leader election is out of
  scope (a dead leader raises :class:`NoLeader`), matching the paper's
  failure-free measurement runs.
- **Single-threaded commit pipeline**: Zookeeper's request path
  serializes proposals — sequencing, serialization copies and the
  synchronous transaction-log append happen in commit order.  This is
  the "queuing effects of consensus writes" the paper credits for
  MUSIC's growing advantage at larger batch/data sizes (Figs. 6a/6b):
  MUSIC's quorum writes spread over every replica and every key, while
  every Zookeeper write in the cluster flows through this one pipeline.
- **Quorum replication**: a proposal commits after a majority of
  servers (leader included) have appended it; commits apply in strict
  zxid order on every server.
- **Local reads**: any server answers reads from its own tree —
  sequentially consistent, possibly stale, exactly Zookeeper semantics.
- **Sessions and ephemerals**: clients hold sessions kept alive by
  heartbeats; expiry deletes the session's ephemeral znodes through the
  ordinary write path (this is what makes the lock recipe fault
  tolerant).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional, Tuple

from ...errors import NoLeader, RpcTimeout
from ...net import Network, Node, quorum_size
from ...sim import Condition as SimCondition
from ...sim import Resource, Simulator
from ...store.types import payload_size
from .znode import BadVersionError, NodeExistsError, NoNodeError, ZkError, ZNodeTree

# Error classes that survive the submit round trip by name.
_ERROR_KINDS = {
    "NoNodeError": NoNodeError,
    "NodeExistsError": NodeExistsError,
    "BadVersionError": BadVersionError,
    "ZkError": ZkError,
}

__all__ = ["ZookeeperServer", "ZkSession", "build_zookeeper"]


# Modelling constants (see the module docstring for calibration).
# Commit-pipeline service time: base + per-byte (serialization copies
# plus the synchronous log append — ~150 MB/s effective).
PIPELINE_BASE_MS = 0.4
PIPELINE_PER_BYTE_MS = 7.0e-6
# Follower-side log append for a proposal.
FOLLOWER_APPEND_BASE_MS = 0.2
FOLLOWER_APPEND_PER_BYTE_MS = 3.0e-6
# Local read service.
READ_SERVICE_MS = 0.1
# Sessions: the leader sweeps every SESSION_SWEEP_INTERVAL_MS and expires
# a session silent for SESSION_TIMEOUT_MS; clients ping every
# HEARTBEAT_INTERVAL_MS.
SESSION_TIMEOUT_MS = 10_000.0
SESSION_SWEEP_INTERVAL_MS = 2_000.0
HEARTBEAT_INTERVAL_MS = 2_000.0


@dataclass
class _Op:
    """A state-machine command (applied identically on every server)."""

    kind: str  # create | set_data | delete
    path: str
    data: bytes = b""
    sequential: bool = False
    ephemeral_owner: Optional[int] = None
    expected_version: int = -1

    def size_bytes(self) -> int:
        return payload_size(self.data) + len(self.path) + 32


class ZookeeperServer(Node):
    """One ensemble member."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: str,
        site: str,
        ensemble: List[str],
        cores: int = 8,
    ) -> None:
        super().__init__(sim, network, node_id, site, cores=cores)
        self.ensemble = list(ensemble)
        self.leader_id = self.ensemble[0]
        self.tree = ZNodeTree()
        # Leader state.
        self._zxid = itertools.count(1)
        self._apply_next = 1  # next zxid to apply, enforcing commit order
        self._apply_cond = SimCondition(sim, name=f"apply:{node_id}")
        self.pipeline = Resource(sim, capacity=1, name=f"zab-pipeline:{node_id}")
        # Follower state: out-of-order commit buffer.
        self._pending_commits: Dict[int, _Op] = {}
        self._follower_next = 1
        # Session tracking (leader only).
        self.sessions: Dict[int, float] = {}
        self._session_ids = itertools.count(1)
        # One-shot watches on THIS server's local view (Zookeeper
        # semantics: a watch fires when the change reaches the server
        # the client is connected to).  path -> list of pending events.
        self._data_watches: Dict[str, list] = {}
        self._child_watches: Dict[str, list] = {}
        self.counters = {"proposals": 0, "applied": 0, "expired_sessions": 0}
        self.obs.tally("zk", self, node=node_id)
        self.on("zab_submit", self._handle_submit)
        self.on("zab_replicate", self._handle_replicate)
        self.on("zab_commit", self._handle_commit)
        self.on("zk_session_open", self._handle_session_open)
        self.on("zk_ping", self._handle_ping)

    @property
    def is_leader(self) -> bool:
        return self.node_id == self.leader_id

    def start(self) -> None:
        super().start()
        if self.is_leader:
            self.sim.process(self._session_sweeper(), name=f"zk-sweeper:{self.node_id}")

    # -- the write path -------------------------------------------------------

    def submit(self, op: _Op) -> Generator[Any, Any, Any]:
        """Run a write through Zab; returns the apply result (e.g. the
        created path) or raises a ZkError surfaced from apply."""
        with self.obs.tracer.span(
            "zk.submit", node=self.node_id, site=self.site, op=op.kind
        ):
            if self.is_leader:
                result = yield from self._sequence(op)
            else:
                if self.network.is_failed(self.leader_id):
                    raise NoLeader("the Zookeeper leader is down")
                try:
                    result = yield from self.call(
                        self.leader_id, "zab_submit", op,
                        size_bytes=op.size_bytes(),
                    )
                except RpcTimeout as error:
                    raise NoLeader(f"leader unreachable: {error}") from error
        if isinstance(result, dict) and "error" in result:
            error_class = _ERROR_KINDS.get(result.get("error_kind", ""), ZkError)
            raise error_class(result["error"])
        return result

    def _handle_submit(self, msg) -> Generator[Any, Any, None]:
        op: _Op = self.payload(msg)
        try:
            result = yield from self._sequence(op)
        except ZkError as error:
            result = {"error": str(error), "error_kind": type(error).__name__}
        self.reply(msg, result, size_bytes=64)

    def _sequence(self, op: _Op) -> Generator[Any, Any, Any]:
        """Leader: order, replicate to a quorum, apply in zxid order."""
        if not self.is_leader:
            raise NoLeader(f"{self.node_id} is not the leader")
        # The single-threaded commit pipeline: every write in the cluster
        # pays this serialized cost at the leader.
        with self.obs.tracer.span("zab.pipeline", node=self.node_id):
            yield from self.pipeline.use(PIPELINE_BASE_MS + PIPELINE_PER_BYTE_MS * op.size_bytes())
        zxid = next(self._zxid)
        self.counters["proposals"] += 1
        followers = [peer for peer in self.ensemble if peer != self.node_id]
        needed = quorum_size(len(self.ensemble)) - 1  # the leader acks itself
        if needed > 0:
            with self.obs.tracer.span("zab.replicate", node=self.node_id):
                yield self.call_quorum(
                    followers, "zab_replicate", {"zxid": zxid, "op": op}, needed,
                    size_bytes=op.size_bytes(),
                )
        # Commit: apply locally in strict zxid order, then tell followers.
        # A failed apply (e.g. NodeExists) is still a committed log entry
        # — it must reach followers or their ordered apply would stall.
        while self._apply_next != zxid:
            yield self._apply_cond.wait()
        failure: Optional[ZkError] = None
        try:
            result = self._apply(op)
        except ZkError as error:
            failure = error
            result = None
        finally:
            self._apply_next = zxid + 1
            self._apply_cond.notify_all()
        for follower in followers:
            self.send(follower, "zab_commit", {"zxid": zxid, "op": op},
                      size_bytes=op.size_bytes())
        if failure is not None:
            raise failure
        return result

    def _handle_replicate(self, msg) -> Generator[Any, Any, None]:
        body = self.payload(msg)
        op: _Op = body["op"]
        yield from self.compute(
            FOLLOWER_APPEND_BASE_MS + FOLLOWER_APPEND_PER_BYTE_MS * op.size_bytes()
        )
        self.reply(msg, {"ack": True})

    def _handle_commit(self, msg) -> None:
        body = msg.body
        self._pending_commits[body["zxid"]] = body["op"]
        while self._follower_next in self._pending_commits:
            op = self._pending_commits.pop(self._follower_next)
            try:
                self._apply(op)
            except ZkError:
                pass  # the leader already reported the error to the client
            self._follower_next += 1

    def _apply(self, op: _Op) -> Any:
        self.counters["applied"] += 1
        if op.kind == "create":
            created = self.tree.create(
                op.path, op.data, sequential=op.sequential,
                ephemeral_owner=op.ephemeral_owner,
            )
            self._fire_watches(self._child_watches, created.rsplit("/", 1)[0] or "/")
            return created
        if op.kind == "set_data":
            version = self.tree.set_data(op.path, op.data, op.expected_version)
            self._fire_watches(self._data_watches, op.path)
            return version
        if op.kind == "delete":
            self.tree.delete(op.path, op.expected_version)
            self._fire_watches(self._data_watches, op.path)
            self._fire_watches(self._child_watches, op.path.rsplit("/", 1)[0] or "/")
            return None
        raise ZkError(f"unknown op kind {op.kind!r}")

    # -- watches -----------------------------------------------------------------

    def watch_data(self, path: str):
        """A one-shot event that fires when ``path``'s data changes or
        the node is deleted, as observed by this server."""
        event = self.sim.event(name=f"watch-data:{path}")
        self._data_watches.setdefault(path, []).append(event)
        return event

    def watch_children(self, path: str):
        """A one-shot event for child creation/deletion under ``path``."""
        event = self.sim.event(name=f"watch-children:{path}")
        self._child_watches.setdefault(path, []).append(event)
        return event

    def _fire_watches(self, registry: Dict[str, list], path: str) -> None:
        events = registry.pop(path, None)
        if not events:
            return
        for event in events:
            if not event.triggered:
                event.succeed(path)

    # -- the read path --------------------------------------------------------

    def local_read(self, reader) -> Generator[Any, Any, Any]:
        """Serve a read from the local tree (sequentially consistent)."""
        yield from self.compute(READ_SERVICE_MS)
        return reader(self.tree)

    # -- sessions ---------------------------------------------------------------

    def _handle_session_open(self, msg) -> None:
        session_id = next(self._session_ids)
        self.sessions[session_id] = self.clock.now()
        self.reply(msg, {"session_id": session_id})

    def _handle_ping(self, msg) -> None:
        session_id = msg.body
        if session_id in self.sessions:
            self.sessions[session_id] = self.clock.now()

    def _session_sweeper(self) -> Generator[Any, Any, None]:
        while True:
            yield self.sim.timeout(SESSION_SWEEP_INTERVAL_MS)
            if self.failed:
                continue
            now = self.clock.now()
            expired = [
                sid for sid, last in self.sessions.items()
                if now - last > SESSION_TIMEOUT_MS
            ]
            for session_id in expired:
                del self.sessions[session_id]
                self.counters["expired_sessions"] += 1
                for path in self.tree.ephemerals_of(session_id):
                    try:
                        yield from self._sequence(_Op("delete", path))
                    except ZkError:
                        pass  # raced with an explicit delete


class ZkSession:
    """A client session bound to (colocated with) one server."""

    def __init__(self, server: ZookeeperServer) -> None:
        self.server = server
        self.sim = server.sim
        self.session_id: Optional[int] = None
        self._heartbeat = None

    def open(self) -> Generator[Any, Any, int]:
        if self.server.is_leader:
            self.session_id = next(self.server._session_ids)
            self.server.sessions[self.session_id] = self.server.clock.now()
        else:
            reply = yield from self.server.call(
                self.server.leader_id, "zk_session_open", None
            )
            self.session_id = reply["session_id"]
        self._heartbeat = self.sim.process(
            self._heartbeat_loop(), name=f"zk-hb:{self.session_id}"
        )
        return self.session_id

    def close(self) -> None:
        """Stop heartbeating; ephemerals expire via the session timeout.

        (A graceful close in real Zookeeper deletes them immediately;
        letting them expire exercises the fault-tolerance path, which is
        also what a crashed client looks like.)
        """
        if self._heartbeat is not None:
            self._heartbeat.interrupt("session closed")
            self._heartbeat = None

    def _heartbeat_loop(self) -> Generator[Any, Any, None]:
        while True:
            yield self.sim.timeout(HEARTBEAT_INTERVAL_MS)
            if self.server.is_leader:
                if self.session_id in self.server.sessions:
                    self.server.sessions[self.session_id] = self.server.clock.now()
            else:
                self.server.send(self.server.leader_id, "zk_ping", self.session_id)

    # -- API ---------------------------------------------------------------

    def create(
        self, path: str, data: bytes = b"", sequential: bool = False,
        ephemeral: bool = False,
    ) -> Generator[Any, Any, str]:
        owner = self.session_id if ephemeral else None
        result = yield from self.server.submit(
            _Op("create", path, data, sequential=sequential, ephemeral_owner=owner)
        )
        return result

    def set_data(self, path: str, data: bytes, version: int = -1) -> Generator[Any, Any, int]:
        result = yield from self.server.submit(
            _Op("set_data", path, data, expected_version=version)
        )
        return result

    def delete(self, path: str, version: int = -1) -> Generator[Any, Any, None]:
        yield from self.server.submit(_Op("delete", path, expected_version=version))

    def get_data(self, path: str) -> Generator[Any, Any, Tuple[bytes, int]]:
        result = yield from self.server.local_read(lambda tree: tree.get(path))
        return result

    def get_children(self, path: str) -> Generator[Any, Any, List[str]]:
        result = yield from self.server.local_read(lambda tree: tree.get_children(path))
        return result

    def exists(self, path: str) -> Generator[Any, Any, bool]:
        result = yield from self.server.local_read(lambda tree: tree.exists(path))
        return result


def build_zookeeper(
    sim: Simulator,
    network: Network,
    sites: List[str],
    cores: int = 8,
) -> List[ZookeeperServer]:
    """A started ensemble, one server per given site; first is leader."""
    ensemble = [f"zk-{index}" for index in range(len(sites))]
    servers = [
        ZookeeperServer(sim, network, ensemble[index], site, ensemble, cores=cores)
        for index, site in enumerate(sites)
    ]
    for server in servers:
        server.start()
    return servers
