"""A storage replica: commit log, memtable, LWW merge, per-partition
Paxos, anti-entropy.

Each replica is a :class:`~repro.net.node.Node` that serves:

- ``store_read``   — return the live rows of a partition (and, when
  asked, the stamps of its deleted ones);
- ``store_write``  — journal + apply a batch of LWW cell updates / row
  deletes;
- ``paxos_prepare``, ``paxos_propose``, ``paxos_commit`` — the per-
  partition single-decree Paxos that backs light-weight transactions,
  mirroring Cassandra's LWT implementation (Appendix X-A1: 4 round
  trips, of which the read phase reuses ``store_read``; a prepare that
  asks for the read gets it with its promise, and the LWT takes 3; a
  propose may ask for a read of another table's partition of the same
  key, returned with the accept);
- ``ae_tree``, ``ae_rows`` — anti-entropy, the one replica-repair
  exchange (:meth:`StorageReplica.repair`): a peer's Merkle tree of the
  partitions both replicate, answered with our rows under the leaves
  that differ, and then its rows under those leaves, merged; so writes
  eventually propagate to all replicas even across healed partitions
  (Section III-B's "a write ... eventually propagates to all other
  replicas").  The background loop runs a round with a random peer
  every ``anti_entropy_interval_ms``; :meth:`TopologyManager.repair_pair
  <repro.topo.TopologyManager.repair_pair>` runs the same round on
  demand.

Every exchange of rows between replicas — anti-entropy here, range
handover in :mod:`repro.topo` — moves a *bundle*
(:meth:`StorageReplica.bundle`): full partition views of stored, frozen
rows, merged on arrival by :meth:`StorageReplica.merge_bundle` and sized
by :func:`bundle_bytes`.

All state lives in a per-replica :class:`~repro.storage.StorageEngine`
(Cassandra's write path: commit log → memtable → segments), so every
acknowledged mutation — including Paxos acceptor state and the lock
store's guard/queue rows, which are ordinary LWT writes through these
handlers — is journaled before the reply goes out and survives a crash
according to the configured ``wal_sync`` mode.  ``crash()`` discards
the volatile column; ``recover()`` replays the commit log (charging the
replay time on the sim clock) before the node rejoins the network.

Every handler has one shape, built by ``_served`` from its row of the
table in ``__init__`` (span name, service time, priced, body): open the
op's ``replica.*`` span under the RPC's trace when spans are recorded,
serve the CPU time (:meth:`~repro.net.node.Node.serve`), and run the
body as a continuation when the core is released.  The body ends in
``_answer``, which replies and finishes the span.  No request becomes a
process.
Under the default zero-fsync-latency configuration the continuation
journals, applies and replies synchronously, so each handler's state
change is atomic with respect to other requests, matching the "biggest
atomic event is confined to one node" granularity of the paper's formal
model (Section V-A).  With a non-zero fsync latency, the journal append
/ memtable apply pair brackets the charged fsync — exactly the window a
real commit log introduces — and the reply is one more continuation
(:meth:`~repro.storage.StorageEngine.commit`).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Mapping, Optional, Tuple

from ..errors import ReproError
from ..sim import NodeClock, Process, RandomStreams, Simulator
from ..net import REPLY_KIND, Message, Network, Node
from ..storage import PaxosState, StorageEngine
from .config import StoreConfig
from .merkle import MerkleTree, leaf_index
from .types import Ballot, Mutation, Row

__all__ = ["StorageReplica", "PaxosState", "bundle_bytes"]

# Sentinel meaning "read the whole partition" in a store_read request.
ALL_ROWS = "__all_rows__"

# What a served op's body gets: the request, its body and its span (None
# unless spans are recorded).
Served = Tuple[Message, Dict[str, Any], Any]

# Rows in transit between replicas: (table, partition, {clustering: Row})
# per partition, tombstones included.
Bundle = List[Tuple[str, str, Dict[Any, Row]]]

# The constant acknowledgements (shared: replies are read, never changed).
_OK = {"ok": True}
_ACCEPTED = {"accepted": True}


def bundle_bytes(bundle: Bundle) -> int:
    """The payload bytes of a bundle's rows; a message adds its own
    constant on top."""
    return sum(row.payload_bytes() for _t, _p, rows in bundle for row in rows.values())


class StorageReplica(Node):
    """One back-end store node."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: str,
        site: str,
        config: StoreConfig,
        cores: int = 8,
        clock: Optional[NodeClock] = None,
        peers: Optional[List[str]] = None,
        *,
        streams: RandomStreams,
    ) -> None:
        super().__init__(sim, network, node_id, site, cores=cores, clock=clock)
        self.config = config
        self.streams = streams
        self.engine = StorageEngine(
            sim, config.storage, node_id=node_id, obs=self.obs
        )
        self.peers: List[str] = list(peers or [])
        # Placement ring, set by the cluster builder; used to restrict
        # anti-entropy to partitions both endpoints actually replicate.
        self.ring = None
        self.counters = {
            "reads": 0,
            "writes": 0,
            "paxos_prepares": 0,
            "paxos_proposes": 0,
            "paxos_commits": 0,
            "ae_rounds": 0,
            "ae_leaves": 0,
        }
        self.obs.tally("store.replica", self, node=node_id)
        # kind: (its replica.* span or None, the StoreConfig field of its
        # service time, whether the message's bytes are priced too, body).
        # A priced request's size_bytes is its batch's byte sum.
        read, write, paxos = "read_service_ms", "write_service_ms", "paxos_phase_service_ms"
        for kind, served in {
            "store_read": ("replica.read", read, False, self._read),
            "store_write": ("replica.write", write, True, self._write),
            "store_scan": (None, read, False, self._scan),
            "paxos_prepare": ("replica.paxos_prepare", paxos, False, self._prepare),
            "paxos_propose": ("replica.paxos_propose", paxos, True, self._propose),
            "paxos_commit": ("replica.paxos_commit", paxos, False, self._commit),
            "ae_tree": (None, read, False, self._ae_tree),
            "ae_rows": (None, read, False, self._ae_rows),
        }.items():
            self.on(kind, self._served(*served))

    def start(self) -> None:
        super().start()
        if self.config.anti_entropy_enabled and self.peers:
            self.sim.process(self._anti_entropy_loop(), name=f"ae:{self.node_id}")

    # -- crash / recovery ----------------------------------------------------

    def _discard_volatile(self) -> None:
        # Memtable, Paxos acceptor dict and the unsynced commit-log tail
        # are gone; the synced log prefix and flushed segments survive.
        self.engine.crash()

    def _replay_durable(self) -> Optional[Generator[Any, Any, None]]:
        if self.engine.crashed:
            return self.engine.recover()
        return None

    # -- local storage ------------------------------------------------------

    @property
    def paxos(self) -> Dict[Tuple[str, str], PaxosState]:
        return self.engine.paxos

    def apply_update(self, update: Any) -> None:
        """Apply one Update or DeleteRow to the memtable (LWW merge),
        bypassing the journal and the network: a test seam for making
        replicas diverge.  Nothing in the protocol calls it (hinted
        handoff re-sends ``store_write``)."""
        self.engine._apply(update, update.size_bytes())

    def local_rows(self, table: str, partition_key: str) -> Mapping[Any, Row]:
        """The live rows of a partition: the engine's read-only view
        (empty if none), handed out without a copy.

        A published view is never changed — a write publishes a new one
        — and its rows are the stored ones, frozen (see :class:`Row`), so
        every reader may hold both and none can change either; whoever
        needs to change them copies first.
        """
        return self.engine.live_rows(table, partition_key)

    def local_row(self, table: str, partition_key: str, clustering: Any) -> Optional[Row]:
        return self.engine.live_rows(table, partition_key).get(clustering)

    # -- handlers (each serves its CPU time; see the docstring) -------------

    def _served(
        self,
        span_name: Optional[str],
        service: str,
        priced: bool,
        body: Callable[[Served], None],
    ) -> Callable[[Message], None]:
        """The one shape of a store handler: open the op's ``replica.*``
        span under the RPC's trace (when spans are recorded), hold a core
        for the op's CPU time, then run ``body((msg, msg.body, span))``,
        which ends in :meth:`_answer`.  A delivery runs no process, so
        the hold's owner is the kind's stand-in (what ``Node.serve``
        would pick)."""
        tracer = self.obs.tracer
        traced = span_name is not None and tracer.enabled
        hold = self.cpu.hold

        def handle(msg: Message) -> None:
            span = None
            if traced:
                span = tracer.span(span_name, node=self.node_id, site=self.site, parent=msg.trace)
            config = self.config
            service_ms = getattr(config, service)
            if priced:  # StoreConfig.value_service_ms, inline
                service_ms += config.per_byte_service_ms * msg.size_bytes
            hold(service_ms, body, (msg, msg.body, span), self._serving)

        return handle

    def _answer(self, answer: Tuple[Served, Dict[str, Any], int]) -> None:
        """Reply and finish the op's span: how every served op ends."""
        (msg, _body, span), body, size = answer
        self.network.send(self.node_id, msg.src, REPLY_KIND, body, size, msg.request_id)
        if span is not None:
            span.finish()

    def _read(self, served: Served) -> None:
        _msg, body, _span = served
        self.counters["reads"] += 1
        rows, tombstones = self.engine.read(body["table"], body["partition"])
        clustering = body.get("clustering", ALL_ROWS)
        if clustering == ALL_ROWS:
            size = 32 + self.engine.live_bytes(body["table"], body["partition"])
        else:
            row = rows.get(clustering)
            rows = {clustering: row} if row is not None else {}
            size = 32 if row is None else 32 + row.payload_bytes()
        answer = {"rows": rows}
        if body.get("tombstones"):
            # A reply merged with others carries the partition's deletes,
            # unpriced (DESIGN.md §6): the merge drops a row another
            # replica has deleted.  So does a lock-queue head read, which
            # checks them for a gap below the head (DESIGN.md §7).
            answer["tombstones"] = tombstones
        self._answer((served, answer, size))

    def _write(self, served: Served) -> None:
        self.counters["writes"] += 1
        self.engine.commit(served[1]["updates"], None, self._answer, (served, _OK, 64))

    def _scan(self, served: Served) -> None:
        """List the live partition keys of a table (an eventual read)."""
        table = served[1]["table"]
        keys = sorted(
            partition_key
            for partition_key in self.engine.table_partition_keys(table)
            if self.engine.live_rows(table, partition_key)
        )
        self._answer((served, {"keys": keys}, 16 * len(keys) + 32))

    # -- Paxos acceptor handlers ----------------------------------------------

    def _prepare(self, served: Served) -> None:
        _msg, body, span = served
        self.counters["paxos_prepares"] += 1
        key = (body["table"], body["partition"])
        state = self.engine.paxos_state(*key)
        ballot: Ballot = body["ballot"]
        if state.promised is not None and ballot <= state.promised:
            if span is not None:
                span.set(promised=False)
            rejection = {"promised": False, "promised_ballot": state.promised}
            self._answer((served, rejection, 64))
            return
        state.promised = ballot
        # The promise must be durable before it is given: a promise
        # forgotten across a restart would let an older ballot slip in.
        self.engine.commit([], (key, state), self._promised, (served, state, state.accepted))

    def _promised(self, promise: Tuple[Served, PaxosState, Any]) -> None:
        served, state, in_progress = promise
        body = served[1]
        answer = {
            "promised": True,
            "in_progress": in_progress,
            "latest_commit": state.latest_commit,
            "latest_mutation": state.latest_mutation,
        }
        size = 64  # the flat promise: its mutations ride unpriced
        if body.get("read"):
            # The LWT's read, as of the promise: the rows are priced as
            # a read reply's, the tombstones are not.
            table, partition = body["table"], body["partition"]
            answer["rows"], answer["tombstones"] = self.engine.read(table, partition)
            size += self.engine.live_bytes(table, partition)
        self._answer((served, answer, size))

    def _propose(self, served: Served) -> None:
        _msg, body, span = served
        self.counters["paxos_proposes"] += 1
        key = (body["table"], body["partition"])
        state = self.engine.paxos_state(*key)
        ballot: Ballot = body["ballot"]
        if state.promised is not None and ballot < state.promised:
            if span is not None:
                span.set(accepted=False)
            rejection = {"accepted": False, "promised_ballot": state.promised}
            self._answer((served, rejection, 64))
            return
        state.promised = ballot
        state.accepted = (ballot, body["mutation"])
        # Cassandra journals the accepted proposal in system.paxos
        # before acknowledging; a volatile acceptance is the classic
        # Paxos durability bug (see tests/integration).
        if "read" in body:
            self.engine.commit([], (key, state), self._accepted, served)
        else:
            self.engine.commit([], (key, state), self._answer, (served, _ACCEPTED, 64))

    def _accepted(self, served: Served) -> None:
        """An accept that carries the proposer's read: this replica's
        rows of the asked table's partition as it accepts, priced and
        merged like a read reply's (DESIGN.md §6)."""
        body = served[1]
        table, partition = body["read"], body["partition"]
        rows, tombstones = self.engine.read(table, partition)
        answer = {"accepted": True, "rows": rows, "tombstones": tombstones}
        self._answer((served, answer, 64 + self.engine.live_bytes(table, partition)))

    def _commit(self, served: Served) -> None:
        _msg, body, _span = served
        self.counters["paxos_commits"] += 1
        key = (body["table"], body["partition"])
        state = self.engine.paxos_state(*key)
        ballot: Ballot = body["ballot"]
        # Apply the decided mutation (idempotent thanks to LWW stamps).
        apply_needed = ballot not in state.committed_ballots
        if apply_needed:
            state.committed_ballots.add(ballot)
        if state.latest_commit is None or ballot > state.latest_commit:
            state.latest_commit, state.latest_mutation = ballot, body["mutation"]
        if state.accepted is not None and state.accepted[0] <= ballot:
            state.accepted = None
        # One group commit covers the data mutation and the acceptor
        # snapshot: a single fsync, like Cassandra's batched commitlog.
        mutation: Mutation = body["mutation"] if apply_needed else []
        self.engine.commit(mutation, (key, state), self._answer, (served, _OK, 64))

    # -- anti-entropy -----------------------------------------------------------

    def _anti_entropy_loop(self) -> Generator[Any, Any, None]:
        # Interval jitter and peer choice: a named stream of the
        # deployment's seed, so a run reproduces whatever PYTHONHASHSEED is.
        rng = self.streams.stream(f"ae:{self.node_id}")
        interval = self.config.anti_entropy_interval_ms
        while True:
            yield self.sim.timeout(interval * (0.75 + 0.5 * rng.random()))
            if self.failed or not self.peers:
                continue
            peer = rng.choice(self.peers)
            if peer == self.node_id:
                continue
            try:
                yield from self.repair(peer)
            except ReproError:
                continue  # unreachable peer; try again next round

    def repair(self, peer: str) -> Generator[Any, Any, int]:
        """One anti-entropy round with ``peer``; returns the number of
        differing leaves.

        Send a Merkle tree of the partitions both replicate; the peer
        answers with the leaves that differ and its rows under them.
        Ours under those leaves, as they were before its rows are merged,
        go back to it, so both sides end the round converged there.
        Agreeing replicas exchange the tree and an empty answer only.
        """
        owns = self._co_owned(peer)
        tree = MerkleTree.build(self.engine, owns)
        timeout = self.config.rpc_timeout_ms
        reply = yield from self.call(
            peer, "ae_tree", {"tree": tree.payload()},
            size_bytes=tree.size_bytes() + 64, timeout=timeout,
        )
        leaves = reply["leaves"]
        self.counters["ae_rounds"] += 1
        self.counters["ae_leaves"] += len(leaves)
        if leaves:
            ours = self._leaf_bundle(leaves, owns)
            yield from self.merge_bundle(reply["entries"])
            yield from self.call(
                peer, "ae_rows", {"entries": ours},
                size_bytes=bundle_bytes(ours) + 64, timeout=timeout,
            )
        return len(leaves)

    def owns(self, node_id: str, partition_key: str) -> bool:
        """Whether ``node_id`` replicates the partition (without a ring,
        every node does)."""
        if self.ring is None:
            return True
        return node_id in self.ring.replicas_for(partition_key, self.config.replication_factor)

    def _co_owned(self, peer: str) -> Callable[[str], bool]:
        """Whether a partition is replicated both here and at ``peer``."""
        return lambda key: self.owns(self.node_id, key) and self.owns(peer, key)

    def _leaf_bundle(self, leaves: List[int], owns: Callable[[str], bool]) -> Bundle:
        """The bundle of the ``owns`` partitions under ``leaves``."""
        wanted = set(leaves)
        return self.bundle([
            (table, partition_key)
            for table, partition_key in self.engine.partition_keys()
            if leaf_index(partition_key) in wanted and owns(partition_key)
        ])

    def bundle(self, pairs: List[Tuple[str, str]]) -> Bundle:
        """The full views of the given ``(table, partition)`` pairs, to
        send to a peer.  Tombstones are included — a bundle that dropped
        deletion markers would resurrect rows on the receiver — and no
        row is copied: stored rows never change, so a fresh dict of them
        is a copy of the partition."""
        view = self.engine.partition_view
        return [(table, partition, dict(view(table, partition))) for table, partition in pairs]

    def merge_bundle(self, bundle: Bundle) -> Generator[Any, Any, None]:
        """LWW-merge a peer's bundle: one journaled merge per partition.
        The engine stores copies of what it merges, never the rows it
        was handed, so one bundle may go to any number of replicas."""
        for table, partition, rows in bundle:
            yield from self.engine.merge_rows(table, partition, rows)

    def _ae_tree(self, served: Served) -> None:
        """Diff a peer's tree against ours; answer with the differing
        leaves and our rows under them."""
        msg, body, _span = served
        owns = self._co_owned(msg.src)
        leaves = MerkleTree.build(self.engine, owns).diff(MerkleTree.from_payload(body["tree"]))
        ours = self._leaf_bundle(leaves, owns)
        size = bundle_bytes(ours) + 8 * len(leaves) + 64
        self._answer((served, {"leaves": leaves, "entries": ours}, size))

    def _ae_rows(self, served: Served) -> None:
        # Each merge is the engine's generator path (it may wait out an
        # fsync), so the rest of the round is a process, started in
        # place: with nothing to wait for it ends inside this dispatch.
        Process(self.sim, self._ae_merge(served), f"{self.node_id}:ae_rows").start()

    def _ae_merge(self, served: Served) -> Generator[Any, Any, None]:
        yield from self.merge_bundle(served[1]["entries"])
        self._answer((served, _OK, 64))
