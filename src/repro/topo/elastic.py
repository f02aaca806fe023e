"""The elasticity controller: live bootstrap, decommission, and repair.

``TopologyManager`` is the control plane for the paper's Fig. 4b axis —
growing the store from 3 to 9 nodes — made *live*: topology changes run
under traffic without losing acknowledged writes or ECF safety.  The
mechanism is Cassandra's, adapted to the simulator's whole-partition
granularity:

1. **Pending ranges.**  A change opens a :class:`~repro.store.ring.
   RingTransition`; coordinators keep routing unmoved partitions to the
   old owners while *dual-writing* to pending owners with required acks
   (see ``StoreCoordinator._write``), so every write acknowledged during
   the move is on the new owner before the flip.

2. **Range streaming.**  For each affected partition the manager quorum-
   collects the full contents — all tables' rows *including tombstones*
   (a :meth:`~repro.store.replica.StorageReplica.bundle`), plus per-table
   Paxos acceptor state — from the current owners out of their storage
   engines, folds the replies (:func:`~repro.storage.merge_into` for the
   rows, :meth:`~repro.storage.PaxosState.join` for the acceptors), and
   hands the result to every gaining node in one ``topo_handover``
   message.  Bytes ride the normal network model, so streaming cost
   shows up in the per-byte cost accounting like any other traffic.

3. **Atomic flip.**  The partition's ring entry flips to the new layout
   in the same event-loop step that observes the final handover ack:
   there is no instant at which a reader can see the new owners without
   the data (and its lock rows) being there.  Handing the lock-store
   rows together with the data rows is what preserves ECF across the
   move (``tests/topo/test_elastic.py`` seeds the alternative and shows
   the auditor catching it).

4. **Cleanup.**  Former owners drop their local copy (a journaled
   ``drop`` record, so the cleanup survives crash replay), mirroring
   ``nodetool cleanup``.

Repair is Merkle-tree anti-entropy (:mod:`repro.topo.merkle`): trees
over the partitions a replica pair co-owns are exchanged, and only the
token leaves that differ are synchronised — a symmetric bundle exchange
with LWW merge on both sides, so tombstones win over stale live rows
and v2s stamps are preserved byte-for-byte.

No row is copied on the way: bundles carry the sources' stored, frozen
rows, and a receiving engine stores copies of what it merges.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Tuple

from ..errors import QuorumUnavailable, ReproError
from ..net import Message, Network, Node, quorum_size
from ..sim import RandomStreams, Simulator
from ..storage import PaxosState, merge_into
from ..store import StoreCluster
from ..store.replica import Bundle, StorageReplica, bundle_bytes
from .gossip import (
    STATUS_JOINING,
    STATUS_LEAVING,
    STATUS_LEFT,
    STATUS_NORMAL,
    Gossiper,
)
from .merkle import MerkleTree, leaf_index

__all__ = ["TopologyManager"]

# Range streaming during bootstrap/decommission: how long to wait before
# retrying a failed collect/handover, and how many times — enough to
# ride out a crashed-and-recovering endpoint (two minutes of retries)
# rather than aborting the topology change.
HANDOVER_RETRY_MS = 1_000.0
HANDOVER_MAX_RETRIES = 120
# Merkle anti-entropy tree depth (2**depth leaves per tree).
REPAIR_DEPTH = 6

# StreamListener(partition_key, old_owners, new_owners) — called when a
# partition's move starts; FaultSchedule.crash_mid_bootstrap hooks this.
StreamListener = Callable[[str, List[str], List[str]], None]


class TopologyManager:
    """Control plane for membership changes over one store cluster."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        cluster: StoreCluster,
        site: str,
        streams: RandomStreams,
    ) -> None:
        self.sim = sim
        self.network = network
        self.cluster = cluster
        self.streams = streams
        self.node = Node(sim, network, "topo-0", site)
        self.obs = self.node.obs
        # This manager's tally: the metrics of TALLY_NAMES["topo"].
        self.counters = dict.fromkeys((
            "streams", "stream_bytes", "stream_retries", "cleanups",
            "repair_rounds", "repair_leaves",
        ), 0)
        self.obs.tally("topo", self, node=self.node.node_id)
        self.gossipers: Dict[str, Gossiper] = {}
        self._stream_listeners: List[StreamListener] = []
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self.node.start()
        for replica in list(self.cluster.replicas):
            self.attach(replica, STATUS_NORMAL)

    def attach(self, replica: StorageReplica, status: str) -> Gossiper:
        """Install topology handlers + a gossip agent on one replica."""
        members = {
            other.node_id: other.site
            for other in self.cluster.replicas
            if other.node_id != replica.node_id
        }
        gossiper = Gossiper(replica, self.streams, members, status=status)
        self.gossipers[replica.node_id] = gossiper
        replica.on(
            "topo_collect", lambda msg: self._handle_collect(replica, msg)
        )
        replica.on(
            "topo_handover", lambda msg: self._handle_handover(replica, msg)
        )
        replica.on(
            "topo_merkle_tree", lambda msg: self._handle_merkle_tree(replica, msg)
        )
        replica.on(
            "topo_repair_sync", lambda msg: self._handle_repair_sync(replica, msg)
        )
        replica.on(
            "topo_repair_exchange",
            lambda msg: self._handle_repair_exchange(replica, msg),
        )
        replica.on(
            "topo_cleanup", lambda msg: self._handle_cleanup(replica, msg)
        )
        gossiper.start()
        return gossiper

    def on_stream(self, listener: StreamListener) -> None:
        """Subscribe to partition-move start events (fault injection)."""
        self._stream_listeners.append(listener)

    # -- public operations ------------------------------------------------------

    def bootstrap(self, node_id: str, site: str):
        """Grow the cluster by one node, live; returns the sim process."""
        return self.sim.process(
            self._bootstrap([(node_id, site)]), name=f"bootstrap:{node_id}"
        )

    def bootstrap_many(self, pairs: List[Tuple[str, str]]):
        """Add several nodes under a single ring transition."""
        return self.sim.process(
            self._bootstrap(list(pairs)),
            name="bootstrap:" + ",".join(node_id for node_id, _ in pairs),
        )

    def decommission(self, node_id: str):
        """Drain and remove one node, live; returns the sim process."""
        return self.sim.process(
            self._decommission(node_id), name=f"decommission:{node_id}"
        )

    def repair_pair(self, node_a: str, node_b: str):
        """Merkle anti-entropy between two replicas; returns the process."""
        return self.sim.process(
            self._repair_pair(node_a, node_b), name=f"repair:{node_a}:{node_b}"
        )

    # -- bootstrap / decommission ------------------------------------------------

    def _bootstrap(self, pairs: List[Tuple[str, str]]) -> Generator[Any, Any, None]:
        label = ",".join(node_id for node_id, _ in pairs)
        with self.obs.tracer.span("topo.bootstrap", nodes=label):
            self._audit("topo_change", op="bootstrap", nodes=label)
            for node_id, site in pairs:
                replica = self.cluster.add_replica(node_id, site)
                self.attach(replica, STATUS_JOINING)
            ring = self.cluster.ring
            ring.begin_transition()
            try:
                for node_id, site in pairs:
                    ring.add_node(node_id, site)
                yield from self._migrate()
            finally:
                ring.end_transition()
            for node_id, _site in pairs:
                self.gossipers[node_id].set_status(STATUS_NORMAL)
            self._audit("topo_change", op="bootstrap_done", nodes=label)

    def _decommission(self, node_id: str) -> Generator[Any, Any, None]:
        with self.obs.tracer.span("topo.decommission", nodes=node_id):
            self._audit("topo_change", op="decommission", nodes=node_id)
            gossiper = self.gossipers.get(node_id)
            if gossiper is not None:
                gossiper.set_status(STATUS_LEAVING)
            ring = self.cluster.ring
            ring.begin_transition()
            try:
                ring.remove_node(node_id)
                yield from self._migrate()
            finally:
                ring.end_transition()
            if gossiper is not None:
                gossiper.set_status(STATUS_LEFT)
                gossiper.stop()
                del self.gossipers[node_id]
            self.cluster.remove_replica(node_id)
            self._audit("topo_change", op="decommission_done", nodes=node_id)

    # -- migration ---------------------------------------------------------------

    def _affected_keys(self, done: set) -> List[str]:
        """Partitions whose owner set changes, from live members' engines.

        Control-plane introspection of the engines stands in for the
        token-range arithmetic a real node performs on its own data
        files; re-enumerated until a fixpoint so partitions created
        mid-transition (by ongoing traffic) are also moved.
        """
        ring = self.cluster.ring
        factor = self.cluster.config.replication_factor
        keys = set()
        for replica in self.cluster.replicas:
            for _table, partition_key in replica.engine.partition_keys():
                keys.add(partition_key)
        affected = []
        for key in sorted(keys):
            if key in done:
                continue
            old = ring.pre_transition_owners(key, factor)
            new = ring.post_transition_owners(key, factor)
            if old != new:
                affected.append(key)
            else:
                ring.mark_moved(key)  # nothing to stream; flip is free
        return affected

    def _migrate(self) -> Generator[Any, Any, None]:
        done: set = set()
        while True:
            affected = self._affected_keys(done)
            if not affected:
                return
            for key in affected:
                yield from self._move_partition(key)
                done.add(key)

    def _move_partition(self, key: str) -> Generator[Any, Any, None]:
        ring = self.cluster.ring
        factor = self.cluster.config.replication_factor
        old = ring.pre_transition_owners(key, factor)
        new = ring.post_transition_owners(key, factor)
        gainers = [node_id for node_id in new if node_id not in old]
        losers = [node_id for node_id in old if node_id not in new]
        for listener in self._stream_listeners:
            listener(key, list(old), list(new))
        with self.obs.tracer.span(
            "topo.stream", key=key, gainers=",".join(gainers)
        ):
            streamed = 0
            for attempt in range(HANDOVER_MAX_RETRIES + 1):
                try:
                    streamed = yield from self._stream_once(key, old, gainers)
                    break
                except ReproError:
                    self.counters["stream_retries"] += 1
                    yield self.sim.timeout(HANDOVER_RETRY_MS)
            else:
                raise QuorumUnavailable(
                    f"handover of partition {key!r} failed after "
                    f"{HANDOVER_MAX_RETRIES} retries"
                )
            # Flip in the same event-loop step as the final handover ack:
            # no yield separates the ack from the routing change, so no
            # request can observe new owners that lack the moved rows.
            ring.mark_moved(key)
            self._audit(
                "topo_handover",
                key=key,
                gainers=",".join(gainers),
                losers=",".join(losers),
                bytes=streamed,
            )
            self.counters["streams"] += 1
            self.counters["stream_bytes"] += streamed
        # The sources drop their copy once the new owners hold it
        # (Cassandra's ``nodetool cleanup``).
        yield from self._cleanup(key, losers)

    def _stream_once(
        self, key: str, old: List[str], gainers: List[str]
    ) -> Generator[Any, Any, int]:
        """One collect+handover attempt; returns streamed byte count."""
        replies = yield self.node.call_quorum(
            old, "topo_collect", {"partition": key}, quorum_size(len(old))
        )
        entries, paxos = self._merge_collected([reply for _dst, reply in replies])
        bundle = [(table, key, rows) for table, rows in entries.items()]
        size = bundle_bytes(bundle) + 48 * len(paxos) + 64
        if not gainers:
            return size
        # Every gainer must hold the partition before the flip.
        yield self.node.call_quorum(
            gainers, "topo_handover", {"partition": key, "entries": bundle, "paxos": paxos},
            len(gainers), size_bytes=size,
        )
        return size * len(gainers)

    @staticmethod
    def _merge_collected(
        replies: List[Dict[str, Any]],
    ) -> Tuple[Dict[str, Dict[Any, Any]], Dict[str, PaxosState]]:
        """Fold the owners' collect replies into one row set and one
        acceptor state per table."""
        entries: Dict[str, Dict[Any, Any]] = {}
        paxos: Dict[str, PaxosState] = {}
        for reply in replies:
            for table, _key, rows in reply["entries"]:
                merge_into(entries.setdefault(table, {}), rows)
            for table, image in reply["paxos"].items():
                paxos.setdefault(table, PaxosState()).join(*image)
        return entries, paxos

    def _cleanup(self, key: str, losers: List[str]) -> Generator[Any, Any, None]:
        for loser in losers:
            try:
                yield from self.node.call(
                    loser,
                    "topo_cleanup",
                    {"partition": key},
                )
                self.counters["cleanups"] += 1
            except ReproError:
                # Best-effort, like nodetool cleanup: a dead ex-owner
                # keeps a stale copy, but ``owns`` checks stop it from
                # re-propagating via anti-entropy.
                continue

    # -- repair ------------------------------------------------------------------

    def _repair_pair(self, node_a: str, node_b: str) -> Generator[Any, Any, int]:
        with self.obs.tracer.span(
            "topo.repair", nodes=f"{node_a},{node_b}"
        ) as span:
            tree_a = yield from self.node.call(
                node_a,
                "topo_merkle_tree",
                {"depth": REPAIR_DEPTH, "peer": node_b},
            )
            tree_b = yield from self.node.call(
                node_b,
                "topo_merkle_tree",
                {"depth": REPAIR_DEPTH, "peer": node_a},
            )
            differing = MerkleTree.from_payload(tree_a["tree"]).diff(
                MerkleTree.from_payload(tree_b["tree"])
            )
            span.set(leaves=len(differing))
            self.counters["repair_rounds"] += 1
            self.counters["repair_leaves"] += len(differing)
            if differing:
                yield from self.node.call(
                    node_a,
                    "topo_repair_sync",
                    {"peer": node_b, "leaves": differing, "depth": REPAIR_DEPTH},
                    size_bytes=8 * len(differing) + 32,
                )
            self._audit(
                "topo_repair", nodes=f"{node_a},{node_b}", leaves=len(differing)
            )
            return len(differing)

    # -- replica-side handlers ------------------------------------------------------

    def _handle_collect(
        self, replica: StorageReplica, msg: Message
    ) -> Generator[Any, Any, None]:
        key = replica.payload(msg)["partition"]
        yield from replica.compute(replica.config.read_service_ms)
        entries = replica.bundle(
            [(table, pk) for table, pk in replica.engine.partition_keys() if pk == key]
        )
        paxos = {
            table: (state.promised, state.accepted, state.latest_commit)
            for (table, pk), state in replica.engine.paxos.items()
            if pk == key
        }
        size = bundle_bytes(entries) + 48 * len(paxos) + 64
        replica.reply(msg, {"entries": entries, "paxos": paxos}, size_bytes=size)

    def _handle_handover(
        self, replica: StorageReplica, msg: Message
    ) -> Generator[Any, Any, None]:
        body = replica.payload(msg)
        key = body["partition"]
        yield from replica.compute(
            replica.config.write_service_ms
            + replica.config.value_service_ms(bundle_bytes(body["entries"]))
        )
        yield from replica.merge_bundle(body["entries"])
        for table, theirs in body["paxos"].items():
            state = replica.engine.paxos_state(table, key).join(
                theirs.promised, theirs.accepted, theirs.latest_commit
            )
            yield from replica.engine.commit([], paxos=((table, key), state))
        replica.reply(msg, {"ok": True})

    @staticmethod
    def _merkle_filter(replica: StorageReplica, peer: str) -> Callable[[str], bool]:
        """The partitions both ``replica`` and ``peer`` replicate."""
        return lambda key: replica.owns(replica.node_id, key) and replica.owns(peer, key)

    def _handle_merkle_tree(
        self, replica: StorageReplica, msg: Message
    ) -> Generator[Any, Any, None]:
        body = replica.payload(msg)
        yield from replica.compute(replica.config.read_service_ms)
        tree = MerkleTree.build(
            replica.engine,
            body["depth"],
            owns=self._merkle_filter(replica, body["peer"]),
        )
        replica.reply(msg, {"tree": tree.payload()}, size_bytes=tree.size_bytes())

    def _rows_in_leaves(
        self, replica: StorageReplica, peer: str, leaves: set, depth: int
    ) -> Bundle:
        owns = self._merkle_filter(replica, peer)
        return replica.bundle([
            (table, partition_key)
            for table, partition_key in replica.engine.partition_keys()
            if leaf_index(partition_key, depth) in leaves and owns(partition_key)
        ])

    def _handle_repair_sync(
        self, replica: StorageReplica, msg: Message
    ) -> Generator[Any, Any, None]:
        """Initiator side: push our rows in the differing leaves, merge
        back whatever the peer holds there (symmetric convergence)."""
        body = replica.payload(msg)
        peer = body["peer"]
        depth = body["depth"]
        yield from replica.compute(replica.config.read_service_ms)
        batch = self._rows_in_leaves(replica, peer, set(body["leaves"]), depth)
        reply = yield from replica.call(
            peer,
            "topo_repair_exchange",
            {"entries": batch, "leaves": body["leaves"], "depth": depth},
            size_bytes=bundle_bytes(batch) + 64,
        )
        yield from replica.merge_bundle(reply["entries"])
        replica.reply(msg, {"ok": True})

    def _handle_repair_exchange(
        self, replica: StorageReplica, msg: Message
    ) -> Generator[Any, Any, None]:
        """Peer side: merge the initiator's rows, answer with *all* of
        ours in the same leaves — not just the keys it sent, or a row
        present only here would never reach the initiator."""
        body = replica.payload(msg)
        yield from replica.compute(replica.config.read_service_ms)
        ours = self._rows_in_leaves(replica, msg.src, set(body["leaves"]), body["depth"])
        yield from replica.merge_bundle(body["entries"])
        replica.reply(msg, {"entries": ours}, size_bytes=bundle_bytes(ours) + 64)

    def _handle_cleanup(
        self, replica: StorageReplica, msg: Message
    ) -> Generator[Any, Any, None]:
        body = replica.payload(msg)
        yield from replica.compute(replica.config.write_service_ms)
        yield from replica.engine.drop_partition(body["partition"])
        replica.reply(msg, {"ok": True})

    # -- helpers -------------------------------------------------------------------

    def _audit(self, kind: str, **fields: Any) -> None:
        audit = self.obs.audit
        if audit.enabled:
            audit.emit(kind, node=self.node.node_id, **fields)
