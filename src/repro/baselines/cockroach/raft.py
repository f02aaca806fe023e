"""CockroachDB-style storage nodes: Raft-replicated ranges with
leaseholders, write intents, and transaction records.

The comparison target of Section VIII-d and Appendix X-B3/X-B4.  The
key-space is split into ranges; each range is a Raft group replicated on
every node (3-node clusters in the paper).  Raft here is the real
protocol, not a sketch:

- per-range **logs** of (term, op) entries with the AppendEntries
  consistency check (prev index/term), conflict truncation, and
  follower catch-up from the leader's copy;
- **commit** when a majority's match index covers an entry of the
  current term; ordered apply on every node;
- **elections**: randomized timeouts, term/vote bookkeeping, and the
  log-completeness rule (a vote is granted only to candidates whose log
  is at least as up to date), so a leaseholder crash elects a new leader
  that has every committed entry;
- **heartbeats** carrying the commit index, which also teach followers
  and gateways who the current leaseholder is.

Each transactional write is one consensus operation (a write intent) and
each commit another — the ``2C``-per-update cost of X-B4 against which
MUSIC's ``(x+1)Q + 2C`` is compared.  Unlike the Zookeeper model there
is no global single-threaded pipeline: ranges replicate independently
and nodes apply with all cores, which is why CockroachDB scales better
than Zookeeper but still loses to MUSIC's 1-round-trip quorum puts.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, Generator, List, Optional, Tuple

from ...errors import NoLeader, RpcTimeout, TransactionAborted
from ...net import DEFAULT_RPC_TIMEOUT_MS, Network, Node, quorum_size
from ...sim import Condition as SimCondition
from ...sim import RandomStreams, Simulator
from ...store.types import payload_size

__all__ = ["CockroachConfig", "CockroachNode", "build_cockroach", "range_of"]


@dataclass
class CockroachConfig:
    """Modelling knobs for the CockroachDB baseline (its ``ClassVar``
    constants are set by no deployment, so they are not fields)."""

    range_count: ClassVar[int] = 8
    append_service_ms: ClassVar[float] = 0.25  # per-proposal log append at a node
    append_per_byte_ms: ClassVar[float] = 2.0e-6
    read_service_ms: ClassVar[float] = 0.1
    txn_retry_backoff_ms: ClassVar[float] = 25.0
    txn_max_retries: ClassVar[int] = 50
    # Raft timers.
    heartbeat_interval_ms: ClassVar[float] = 1_000.0
    election_timeout_ms: ClassVar[float] = 4_000.0  # + uniform jitter of the same size
    elections_enabled: bool = True


def range_of(key: str, range_count: int) -> int:
    digest = hashlib.md5(key.encode()).digest()
    return int.from_bytes(digest[:4], "big") % range_count


@dataclass
class _LogEntry:
    term: int
    op: Dict[str, Any]


@dataclass
class _RangeState:
    """Per-range Raft state on one node (log indices are 1-based)."""

    term: int = 1
    voted_for: Optional[str] = None
    role: str = "follower"  # follower | candidate | leader
    log: List[_LogEntry] = field(default_factory=list)
    commit_index: int = 0
    applied_index: int = 0
    last_leader_contact: float = 0.0
    # Leader-only bookkeeping.
    match_index: Dict[str, int] = field(default_factory=dict)

    def last_index(self) -> int:
        return len(self.log)

    def last_term(self) -> int:
        return self.log[-1].term if self.log else 0

    def term_at(self, index: int) -> int:
        if index == 0:
            return 0
        return self.log[index - 1].term


@dataclass
class _Intent:
    txn_id: int
    value: Any


class CockroachNode(Node):
    """One CockroachDB node: replicas of every range + gateway duties."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: str,
        site: str,
        peers: List[str],
        config: Optional[CockroachConfig] = None,
        cores: int = 8,
        leaseholder_map: Optional[Dict[int, str]] = None,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        super().__init__(sim, network, node_id, site, cores=cores)
        self.config = config or CockroachConfig()
        self.peers = list(peers)
        # This node's *belief* about each range's leaseholder; corrected
        # by heartbeats and not_leader redirects.
        self.leaseholders = dict(leaseholder_map) if leaseholder_map else {
            r: self.peers[r % len(self.peers)] for r in range(self.config.range_count)
        }
        self.ranges: Dict[int, _RangeState] = {}
        for r in range(self.config.range_count):
            state = _RangeState(last_leader_contact=sim.now)
            if self.leaseholders[r] == node_id:
                state.role = "leader"
                state.match_index = {peer: 0 for peer in self.peers}
            self.ranges[r] = state
        self._apply_conds: Dict[int, SimCondition] = {
            r: SimCondition(sim, name=f"crdb-apply:{node_id}:{r}")
            for r in range(self.config.range_count)
        }
        self._rng = (streams or RandomStreams(17)).stream(f"raft:{node_id}")
        # The replicated state machine: committed (value, version) pairs
        # and open intents.  Versions back the serializability check at
        # commit (a read-refresh validation, CockroachDB-style).
        self.committed: Dict[str, Tuple[Any, int]] = {}
        self.intents: Dict[str, _Intent] = {}
        self.txn_status: Dict[int, str] = {}  # txn id -> COMMITTED | ABORTED
        self.counters = {"proposals": 0, "applied": 0, "elections_won": 0}
        self.on("crdb_propose", self._handle_propose)
        self.on("raft_append", self._handle_append)
        self.on("raft_vote", self._handle_vote)
        self.on("crdb_read", self._handle_read)

    def start(self) -> None:
        super().start()
        self.sim.process(self._heartbeat_loop(), name=f"crdb-hb:{self.node_id}")
        if self.config.elections_enabled:
            self.sim.process(self._election_loop(), name=f"crdb-el:{self.node_id}")

    # -- gateway/leaseholder routing --------------------------------------------

    def leaseholder_of(self, key: str) -> str:
        return self.leaseholders[range_of(key, self.config.range_count)]

    def propose(self, op: Dict[str, Any]) -> Generator[Any, Any, Any]:
        """Route a consensus op to the leaseholder of its key's range,
        following redirects while leadership moves."""
        range_id = range_of(op["key"], self.config.range_count)
        with self.obs.tracer.span(
            "crdb.propose", node=self.node_id, site=self.site, op=op.get("kind")
        ):
            result = yield from self._propose_routed(op, range_id)
        return result

    def _propose_routed(
        self, op: Dict[str, Any], range_id: int
    ) -> Generator[Any, Any, Any]:
        for _attempt in range(6):
            leaseholder = self.leaseholders[range_id]
            if leaseholder == self.node_id:
                result = yield from self._sequence(op)
            else:
                if self.network.is_failed(leaseholder):
                    yield self.sim.timeout(self.config.heartbeat_interval_ms)
                    raise NoLeader(f"leaseholder {leaseholder} is down")
                try:
                    result = yield from self.call(
                        leaseholder, "crdb_propose", op,
                        size_bytes=payload_size(op.get("value")) + 64,
                    )
                except RpcTimeout as error:
                    raise NoLeader(f"leaseholder unreachable: {error}") from error
            if isinstance(result, dict) and result.get("not_leader"):
                hint = result.get("leader_hint")
                if hint:
                    self.leaseholders[range_id] = hint
                else:
                    yield self.sim.timeout(self.config.heartbeat_interval_ms / 2)
                continue
            if isinstance(result, dict) and result.get("error"):
                raise TransactionAborted(result["error"])
            return result
        raise NoLeader(f"no stable leaseholder for range {range_id}")

    def read(self, key: str, txn_id: Optional[int] = None) -> Generator[Any, Any, Any]:
        """A read served at the leaseholder; returns (value, version)."""
        with self.obs.tracer.span("crdb.read", node=self.node_id, site=self.site):
            leaseholder = self.leaseholder_of(key)
            if leaseholder == self.node_id:
                result = yield from self._serve_read(key, txn_id)
                return result
            if self.network.is_failed(leaseholder):
                raise NoLeader(f"leaseholder {leaseholder} is down")
            reply = yield from self.call(
                leaseholder, "crdb_read", {"key": key, "txn_id": txn_id},
            )
        if reply.get("conflict"):
            raise TransactionAborted(f"intent conflict on {key!r}")
        return reply["value"], reply["version"]

    def _handle_read(self, msg) -> Generator[Any, Any, None]:
        body = self.payload(msg)
        try:
            value, version = yield from self._serve_read(body["key"], body.get("txn_id"))
            self.reply(msg, {"value": value, "version": version, "conflict": False},
                       size_bytes=payload_size(value) + 16)
        except TransactionAborted:
            self.reply(msg, {"value": None, "version": 0, "conflict": True})

    def _serve_read(
        self, key: str, txn_id: Optional[int]
    ) -> Generator[Any, Any, Tuple[Any, int]]:
        yield from self.compute(self.config.read_service_ms)
        intent = self.intents.get(key)
        committed_value, version = self.committed.get(key, (None, 0))
        if intent is not None:
            if txn_id is not None and intent.txn_id == txn_id:
                return intent.value, version  # read-your-writes
            raise TransactionAborted(f"intent conflict on {key!r}")
        return committed_value, version

    # -- the leader path ----------------------------------------------------------

    def _handle_propose(self, msg) -> Generator[Any, Any, None]:
        op = self.payload(msg)
        try:
            result = yield from self._sequence(op)
            self.reply(msg, result, size_bytes=64)
        except NoLeader:
            range_id = range_of(op["key"], self.config.range_count)
            hint = self.leaseholders.get(range_id)
            self.reply(msg, {"not_leader": True,
                             "leader_hint": hint if hint != self.node_id else None})
        except TransactionAborted as error:
            self.reply(msg, {"error": str(error)})

    def _sequence(
        self, op: Dict[str, Any], range_id: Optional[int] = None
    ) -> Generator[Any, Any, Any]:
        """Leader: append, replicate to a quorum, commit, apply in order."""
        if range_id is None:
            range_id = range_of(op["key"], self.config.range_count)
        state = self.ranges[range_id]
        if state.role != "leader":
            raise NoLeader(f"{self.node_id} does not lead range {range_id}")
        size = payload_size(op.get("value")) + 64
        yield from self.compute(
            self.config.append_service_ms + self.config.append_per_byte_ms * size
        )
        entry = _LogEntry(term=state.term, op=op)
        state.log.append(entry)
        index = state.last_index()
        state.match_index[self.node_id] = index
        self.counters["proposals"] += 1
        if self.obs.enabled:
            self.obs.metrics.counter("crdb.proposals", node=self.node_id).inc()

        followers = [peer for peer in self.peers if peer != self.node_id]
        needed = quorum_size(len(self.peers)) - 1
        if needed > 0:
            body = {
                "range": range_id,
                "term": state.term,
                "leader": self.node_id,
                "prev_index": index - 1,
                "prev_term": state.term_at(index - 1),
                "entries": [entry],
                "leader_commit": state.commit_index,
            }
            with self.obs.tracer.span("raft.replicate", node=self.node_id):
                replies = yield self.call_quorum(
                    followers, "raft_append", body, needed, size_bytes=size
                )
            for dst, reply in replies:
                if reply.get("term", 0) > state.term:
                    self._step_down(range_id, reply["term"])
                    raise NoLeader(f"deposed from range {range_id}")
                if reply.get("success"):
                    state.match_index[dst] = max(
                        state.match_index.get(dst, 0), reply["last_index"]
                    )
                else:
                    # The follower's log lags: catch it up in the
                    # background (quorum already formed without it, or
                    # this ack was the straggler).
                    self._spawn_catch_up(range_id, dst, reply.get("last_index", 0))
            if not any(reply.get("success") for _d, reply in replies):
                raise NoLeader(f"quorum rejected appends for range {range_id}")
        self._advance_commit(range_id)
        # Tell followers promptly (they would otherwise apply at the
        # next heartbeat): an empty AppendEntries carrying the new
        # commit index, fire-and-forget.
        self._broadcast_commit(range_id)
        if state.commit_index < index:
            # Quorum acked but commit could not advance (stale-term rule);
            # extremely rare here since we just appended in our own term.
            raise NoLeader(f"entry {index} of range {range_id} did not commit")

        cond = self._apply_conds[range_id]
        while state.applied_index < index:
            self._apply_ready(range_id)
            if state.applied_index < index:
                yield cond.wait()
        result, failure = self._apply_results.pop((range_id, index))
        if failure is not None:
            raise failure
        return result

    def _advance_commit(self, range_id: int) -> None:
        state = self.ranges[range_id]
        if state.role != "leader":
            return
        majority = quorum_size(len(self.peers))
        for candidate in range(state.last_index(), state.commit_index, -1):
            votes = sum(
                1 for peer in self.peers
                if state.match_index.get(peer, 0) >= candidate
            )
            # Raft commit rule: only entries of the current term commit
            # by counting; older entries commit transitively.
            if votes >= majority and state.term_at(candidate) == state.term:
                state.commit_index = candidate
                break
        self._apply_ready(range_id)

    # Results of applied ops, keyed by (range, index), consumed by the
    # waiting _sequence (leader) — followers discard results.
    @property
    def _apply_results(self) -> Dict[Tuple[int, int], Tuple[Any, Optional[Exception]]]:
        if not hasattr(self, "_apply_results_store"):
            self._apply_results_store = {}
        return self._apply_results_store

    def _apply_ready(self, range_id: int) -> None:
        """Apply every committed-but-unapplied entry, in log order."""
        state = self.ranges[range_id]
        progressed = False
        while state.applied_index < state.commit_index:
            index = state.applied_index + 1
            entry = state.log[index - 1]
            try:
                result = self._apply(entry.op)
                failure = None
            except TransactionAborted as error:
                result, failure = None, error
            if state.role == "leader":
                self._apply_results[(range_id, index)] = (result, failure)
            state.applied_index = index
            progressed = True
        if progressed:
            self._apply_conds[range_id].notify_all()

    def _spawn_catch_up(self, range_id: int, peer: str, from_index: int) -> None:
        def catch_up() -> Generator[Any, Any, None]:
            state = self.ranges[range_id]
            if state.role != "leader":
                return
            entries = state.log[from_index:]
            if not entries:
                return
            body = {
                "range": range_id,
                "term": state.term,
                "leader": self.node_id,
                "prev_index": from_index,
                "prev_term": state.term_at(from_index),
                "entries": list(entries),
                "leader_commit": state.commit_index,
            }
            try:
                reply = yield from self.call(
                    peer, "raft_append", body,
                    size_bytes=sum(payload_size(e.op.get("value")) + 64 for e in entries),
                )
            except RpcTimeout:
                return
            if reply.get("success"):
                state.match_index[peer] = max(
                    state.match_index.get(peer, 0), reply["last_index"]
                )
                self._advance_commit(range_id)
            elif reply.get("last_index") is not None and reply["last_index"] < from_index:
                self._spawn_catch_up(range_id, peer, reply["last_index"])

        self.sim.process(catch_up(), name=f"crdb-catchup:{range_id}:{peer}")

    # -- the follower path ------------------------------------------------------------

    def _handle_append(self, msg) -> Generator[Any, Any, None]:
        body = self.payload(msg)
        range_id = body["range"]
        state = self.ranges[range_id]
        entries: List[_LogEntry] = body["entries"]
        size = sum(payload_size(e.op.get("value")) + 64 for e in entries) or 64
        yield from self.compute(
            self.config.append_service_ms + self.config.append_per_byte_ms * size
        )
        if body["term"] < state.term:
            self.reply(msg, {"success": False, "term": state.term,
                             "last_index": state.last_index()})
            return
        # A current leader exists: follow it.
        if body["term"] > state.term or state.role != "follower":
            state.term = body["term"]
            state.voted_for = None
            state.role = "follower"
        state.last_leader_contact = self.sim.now
        self.leaseholders[range_id] = body["leader"]

        prev_index = body["prev_index"]
        if prev_index > state.last_index() or (
            prev_index > 0 and state.term_at(prev_index) != body["prev_term"]
        ):
            # Log gap or conflict: ask the leader to back up.
            probe = min(prev_index, state.last_index())
            self.reply(msg, {"success": False, "term": state.term,
                             "last_index": max(0, probe - 1) if probe == prev_index else probe})
            return
        # Truncate conflicts and append the new suffix.
        insert_at = prev_index
        for offset, entry in enumerate(entries):
            index = insert_at + offset + 1
            if index <= state.last_index():
                if state.term_at(index) != entry.term:
                    del state.log[index - 1:]
                    state.log.append(entry)
            else:
                state.log.append(entry)
        state.commit_index = max(
            state.commit_index, min(body["leader_commit"], state.last_index())
        )
        self._apply_ready(range_id)
        self.reply(msg, {"success": True, "term": state.term,
                         "last_index": state.last_index()})

    # -- heartbeats & elections -------------------------------------------------------

    def _heartbeat_loop(self) -> Generator[Any, Any, None]:
        while True:
            yield self.sim.timeout(self.config.heartbeat_interval_ms)
            if self.failed:
                continue
            self._send_heartbeats()

    def _send_heartbeats(self) -> None:
        """Empty AppendEntries to every follower of every led range."""
        for range_id, state in self.ranges.items():
            if state.role == "leader":
                self._broadcast_commit(range_id)

    def _broadcast_commit(self, range_id: int) -> None:
        """One empty AppendEntries round for a single range."""
        state = self.ranges[range_id]
        if state.role != "leader" or self.failed:
            return
        followers = [peer for peer in self.peers if peer != self.node_id]
        body = {
            "range": range_id,
            "term": state.term,
            "leader": self.node_id,
            "prev_index": state.last_index(),
            "prev_term": state.last_term(),
            "entries": [],
            "leader_commit": state.commit_index,
        }
        for dst in followers:
            handle = self.call_async(dst, "raft_append", body)
            handle.add_callback(self._heartbeat_reply_callback(range_id, dst))

    def _heartbeat_reply_callback(self, range_id: int, peer: str):
        def on_reply(event) -> None:
            if not event.ok:
                return  # unreachable follower; next heartbeat will retry
            reply = event.value
            state = self.ranges[range_id]
            if reply.get("term", 0) > state.term:
                self._step_down(range_id, reply["term"])
            elif state.role == "leader" and not reply.get("success", True):
                # The follower's log lags (it just recovered, or missed
                # entries while partitioned): ship it the suffix.
                self._spawn_catch_up(range_id, peer, reply.get("last_index", 0))

        return on_reply

    def _step_down(self, range_id: int, term: int) -> None:
        state = self.ranges[range_id]
        state.term = max(state.term, term)
        state.role = "follower"
        state.voted_for = None
        state.last_leader_contact = self.sim.now

    def _election_loop(self) -> Generator[Any, Any, None]:
        while True:
            timeout = self.config.election_timeout_ms * (1 + self._rng.random())
            yield self.sim.timeout(timeout)
            if self.failed:
                continue
            for range_id, state in self.ranges.items():
                if state.role == "leader":
                    continue
                if self.sim.now - state.last_leader_contact < self.config.election_timeout_ms:
                    continue
                yield from self._run_election(range_id)

    def _run_election(self, range_id: int) -> Generator[Any, Any, None]:
        state = self.ranges[range_id]
        state.role = "candidate"
        state.term += 1
        state.voted_for = self.node_id
        body = {
            "range": range_id,
            "term": state.term,
            "candidate": self.node_id,
            "last_log_index": state.last_index(),
            "last_log_term": state.last_term(),
        }
        followers = [peer for peer in self.peers if peer != self.node_id]
        votes = 1  # self-vote
        needed = quorum_size(len(self.peers))
        try:
            replies = yield self.call_quorum(
                followers, "raft_vote", body, needed - 1, timeout=DEFAULT_RPC_TIMEOUT_MS / 2
            )
        except Exception:
            state.role = "follower"
            return
        for _dst, reply in replies:
            if reply.get("term", 0) > state.term:
                self._step_down(range_id, reply["term"])
                return
            if reply.get("granted"):
                votes += 1
        if votes < needed or state.role != "candidate":
            state.role = "follower"
            return
        # Won: become leader and assert leadership immediately.
        state.role = "leader"
        state.match_index = {peer: 0 for peer in self.peers}
        state.match_index[self.node_id] = state.last_index()
        self.leaseholders[range_id] = self.node_id
        self.counters["elections_won"] += 1
        self._send_heartbeats()
        # Raft's new-leader obligation: entries from older terms cannot
        # be committed by counting replicas, so commit a no-op in our
        # own term — it commits everything beneath it transitively.
        def assert_leadership() -> Generator[Any, Any, None]:
            try:
                yield from self._sequence({"kind": "noop", "key": "__noop__"},
                                          range_id=range_id)
            except (NoLeader, TransactionAborted):
                pass  # deposed again before the no-op landed

        self.sim.process(assert_leadership(), name=f"crdb-noop:{range_id}")

    def _handle_vote(self, msg) -> None:
        body = self.payload(msg)
        state = self.ranges[body["range"]]
        if body["term"] < state.term:
            self.reply(msg, {"granted": False, "term": state.term})
            return
        if body["term"] > state.term:
            self._step_down(body["range"], body["term"])
        # The log-completeness rule: only vote for candidates whose log
        # is at least as up to date as ours.
        up_to_date = (body["last_log_term"], body["last_log_index"]) >= (
            state.last_term(), state.last_index()
        )
        if up_to_date and state.voted_for in (None, body["candidate"]):
            state.voted_for = body["candidate"]
            state.last_leader_contact = self.sim.now  # don't immediately rebel
            self.reply(msg, {"granted": True, "term": state.term})
        else:
            self.reply(msg, {"granted": False, "term": state.term})

    # -- the replicated state machine ----------------------------------------------

    def _apply(self, op: Dict[str, Any]) -> Any:
        self.counters["applied"] += 1
        kind = op["kind"]
        key = op["key"]
        if kind == "noop":
            return {"ok": True}
        if kind == "intent":
            existing = self.intents.get(key)
            if existing is not None and existing.txn_id != op["txn_id"]:
                raise TransactionAborted(f"write-write conflict on {key!r}")
            self.intents[key] = _Intent(op["txn_id"], op["value"])
            return {"ok": True}
        if kind == "commit":
            # Serializability validation ("read refresh"): every version
            # this transaction read must be unchanged.  Valid only when
            # the read keys share the write anchor's range log, which
            # holds for the single-key transactions of the X-B3 pattern.
            for read_key, read_version in op.get("reads", {}).items():
                _value, current_version = self.committed.get(read_key, (None, 0))
                if current_version != read_version:
                    self._drop_intents(op["txn_id"], op["keys"])
                    self.txn_status[op["txn_id"]] = "ABORTED"
                    raise TransactionAborted(
                        f"read of {read_key!r} invalidated (serializability)"
                    )
            self.txn_status[op["txn_id"]] = "COMMITTED"
            for intent_key in op["keys"]:
                intent = self.intents.get(intent_key)
                if intent is not None and intent.txn_id == op["txn_id"]:
                    _old, version = self.committed.get(intent_key, (None, 0))
                    self.committed[intent_key] = (intent.value, version + 1)
                    del self.intents[intent_key]
            return {"ok": True}
        if kind == "abort":
            self.txn_status[op["txn_id"]] = "ABORTED"
            self._drop_intents(op["txn_id"], op["keys"])
            return {"ok": True}
        if kind == "upsert":
            # The 1PC fast path: intent + commit fused in one consensus op.
            existing = self.intents.get(key)
            if existing is not None:
                raise TransactionAborted(f"intent conflict on {key!r}")
            _old, version = self.committed.get(key, (None, 0))
            self.committed[key] = (op["value"], version + 1)
            return {"ok": True}
        raise TransactionAborted(f"unknown op kind {kind!r}")

    def _drop_intents(self, txn_id: int, keys: List[str]) -> None:
        for intent_key in keys:
            intent = self.intents.get(intent_key)
            if intent is not None and intent.txn_id == txn_id:
                del self.intents[intent_key]


def build_cockroach(
    sim: Simulator,
    network: Network,
    sites: List[str],
    config: Optional[CockroachConfig] = None,
    cores: int = 8,
    leaseholder_site_index: Optional[int] = 0,
    streams: Optional[RandomStreams] = None,
) -> List[CockroachNode]:
    """A started 1-node-per-site cluster.

    With ``leaseholder_site_index`` set (default: all leases at site 0,
    where the benchmark client runs, the most favourable placement for
    CockroachDB), every range's initial leaseholder is that site's node;
    pass None to spread leases round-robin.  Elections move leases when
    leaseholders fail.
    """
    config = config or CockroachConfig()
    peers = [f"crdb-{index}" for index in range(len(sites))]
    if leaseholder_site_index is None:
        leaseholder_map = {r: peers[r % len(peers)] for r in range(config.range_count)}
    else:
        leaseholder_map = {
            r: peers[leaseholder_site_index] for r in range(config.range_count)
        }
    nodes = []
    for index, site in enumerate(sites):
        node = CockroachNode(
            sim, network, peers[index], site, peers,
            config=config, cores=cores, leaseholder_map=leaseholder_map,
            streams=streams,
        )
        nodes.append(node)
    for node in nodes:
        node.start()
    return nodes
