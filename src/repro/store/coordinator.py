"""The coordinator side of the store: quorum reads/writes and LWTs.

A :class:`StoreCoordinator` is bound to one host node (in MUSIC's
deployment, each MUSIC replica coordinates its own back-end requests)
and provides the operations of Section III-B:

- ``put``/``get``/``delete_row`` at a chosen consistency level —
  ``dsPutQuorum``/``dsGetQuorum`` are these at QUORUM, the lock-store
  peek and the ``get``/``put`` convenience functions use LOCAL_ONE/ONE;
- ``cas`` — a light-weight transaction: the per-partition Paxos of
  Cassandra, whose proposer is :class:`~repro.store.paxos.LwtProposer`.

Quorum operations return as soon as the nearest majority has replied,
which is why a quorum op costs ~1 RTT to the closest peer site while an
LWT costs ~4 (Fig. 5b), or ~3 with its read in the promise.  The hot
path's release write and uncontended mint commit return at the local
replica's ack instead (``_ack_here``).
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..errors import QuorumUnavailable, ReproError
from ..net import Node, quorum_size
from ..sim import Event, RandomStreams
from ..storage import merge_into
from .config import StoreConfig
from .paxos import CasResult, LwtProposer
from .ring import HashRing
from .types import Consistency, DeleteRow, Row, Stamp, Update

__all__ = ["StoreCoordinator", "CasResult"]

# The levels answered by one replica, and every level there is.
_SINGLE = (Consistency.ONE, Consistency.LOCAL_ONE)
_LEVELS = (*_SINGLE, Consistency.QUORUM, Consistency.ALL)


class StoreCoordinator(LwtProposer):
    """Executes store operations from a host node against the replicas."""

    def __init__(
        self,
        node: Node,
        ring: HashRing,
        config: StoreConfig,
        streams: Optional[RandomStreams] = None,
    ) -> None:
        self.node = node
        self.sim = node.sim
        self.ring = ring
        self.config = config
        self.obs = node.obs
        self._rng = (streams or RandomStreams(0)).stream(f"cas:{node.node_id}")
        self._ballot_round = 0
        self._op_ids = itertools.count(1)
        self._hints: List[Tuple[str, List[Any]]] = []
        self._hint_replayer = None
        # placement -> (its nearest replica, whether that one is in our
        # site): RTT ranks never change, so a single-replica read works
        # its target out once per placement (see _nearest).
        self._targets: Dict[Tuple[str, ...], Tuple[str, bool]] = {}
        # This coordinator's tally: the metrics of TALLY_NAMES["store"].
        self.counters = {
            "read_repairs": 0, "hints_queued": 0, "hints_replayed": 0,
            "hints_dropped": defaultdict(int),  # per reason
            "ballot_losses": 0, "commit_repairs": 0, "tombstone_repairs": 0,
            "unacked_returns": 0,
        }
        self.obs.tally("store", self, node=node.node_id)

    # -- replica selection ---------------------------------------------------

    def replicas(self, partition: str) -> Tuple[str, ...]:
        """The partition's placement: the ring's cached tuple, not a copy."""
        return self.ring.replicas_for(partition, self.config.replication_factor)

    def _nearest(self, replicas: Sequence[str]) -> Tuple[str, bool]:
        """The first replica in our site, else the first lowest-RTT one;
        and whether it is in our site."""
        network, site = self.node.network, self.node.site

        def rank(replica: str) -> float:
            other = network.site_of(replica)
            return -1.0 if other == site else network.profile.rtt(site, other)

        nearest = min(replicas, key=rank)
        return nearest, rank(nearest) < 0.0

    @staticmethod
    def _needed(consistency: str, replica_count: int) -> int:
        """Acks to wait for at a level the op has checked."""
        if consistency in _SINGLE:
            return 1
        if consistency == Consistency.QUORUM:
            return quorum_size(replica_count)
        return replica_count

    def _ack_here(
        self, replicas: Sequence[str], kind: str, body: Any, needed: int, ack: Event,
        size_bytes: int = 64, on_failure: Optional[Callable[[str], None]] = None,
    ) -> None:
        """Send ``kind`` to ``replicas`` and trigger ``ack`` at the ack of
        the replica in our site, or at the quorum's outcome if that comes
        first (a crashed or partitioned local replica).  The quorum's
        outcome is observed when it settles: a failure after ``ack`` is
        counted (``store.unacked_returns``).  The one local-ack return:
        an uncontended mint's commit and the hot path's release."""
        here = self._targets.get(replicas)
        if here is None:
            here = self._targets[replicas] = self._nearest(replicas)
        quorum = Event(self.sim)

        def settled(quorum: Event) -> None:
            if not ack.triggered:
                if quorum.ok:
                    ack.succeed(quorum.value)
                else:
                    ack.fail(quorum.value)
            elif not quorum.ok:
                self.counters["unacked_returns"] += 1

        quorum.add_callback(settled)
        self.node.call_quorum(
            replicas, kind, body, needed, quorum, size_bytes, self.config.rpc_timeout_ms,
            on_failure, first=(here[0], ack) if here[1] else None,
        )

    def _traced(self, op: Generator[Any, Any, Any], name: str, **attrs: Any) -> Any:
        """``op`` inside its span: asked for only when tracing."""
        return self.obs.tracer.around(op, name, node=self.node.node_id, **attrs)

    def _serve(self, then: Callable[[Tuple[Any, ...]], None], *args: Any) -> Event:
        """Serve ``coordinator_service_ms``, then ``then((done, *args))``;
        return ``done``, the one event the op yields (and never names: a
        failed one's traceback holds the op's frame)."""
        done = Event(self.sim)
        self.node.serve(self.config.coordinator_service_ms, then, (done,) + args, done)
        return done

    # -- reads ------------------------------------------------------------

    def get(
        self,
        table: str,
        partition: str,
        clustering: Any = "__all_rows__",
        consistency: str = Consistency.QUORUM,
        tombstones: bool = False,
    ) -> Generator[Any, Any, Any]:
        """Read rows of a partition; returns merged {clustering: Row}.

        At ONE/LOCAL_ONE only one replica is consulted (an *eventual*
        read: possibly stale); with ``tombstones`` it returns ``(rows,
        tombstones)``, the replica's ``{clustering: tombstone}`` too.
        At QUORUM/ALL, replies are merged cell-wise by stamp, so the
        result is at least as new as any value acknowledged at the same
        consistency; with ``StoreConfig.read_repair_enabled`` the merge
        is pushed back.
        """
        if consistency not in _LEVELS:
            raise ValueError(f"unknown consistency {consistency!r}")
        op = self._get(table, partition, clustering, consistency, tombstones)
        if not self.obs.tracer.enabled:
            return op
        return self._traced(
            op, "store.get", site=self.node.site, consistency=consistency, table=table
        )

    def _get(
        self, table: str, partition: str, clustering: Any, consistency: str, tombstones: bool,
    ) -> Generator[Any, Any, Any]:
        replies = yield self._serve(
            self._get_served, table, partition, clustering, consistency, tombstones
        )
        if consistency in _SINGLE:
            return (replies["rows"], replies["tombstones"]) if tombstones else replies["rows"]
        merged = self._merge_replies(replies, table, partition)
        if self.config.read_repair_enabled:
            self.counters["read_repairs"] += 1
            self._issue_read_repair(table, partition, merged, [dst for dst, _ in replies])
        return merged

    def _get_served(self, op: Tuple[Any, ...]) -> None:
        done, table, partition, clustering, consistency, tombstones = op
        replicas = self.ring.replicas_for(partition, self.config.replication_factor)
        body = {"table": table, "partition": partition, "clustering": clustering}
        timeout = self.config.rpc_timeout_ms
        if consistency in _SINGLE:
            if tombstones:
                body["tombstones"] = True
            nearest = self._targets.get(replicas)
            if nearest is None:
                nearest = self._targets[replicas] = self._nearest(replicas)
            target, local = nearest
            if not local and consistency == Consistency.LOCAL_ONE:
                done.fail(QuorumUnavailable(f"no replica of partition in site {self.node.site}"))
                return
            self.node.call_async(
                target, "store_read", body, timeout=timeout, reply_event=done
            )
            return
        needed = self._needed(consistency, len(replicas))
        body["tombstones"] = True  # the replies are merged: each carries its deletes
        self.node.call_quorum(replicas, "store_read", body, needed, done, timeout=timeout)

    def scan_keys(
        self, table: str, consistency: str = Consistency.LOCAL_ONE
    ) -> Generator[Any, Any, List[str]]:
        """Partition keys of a table from one replica (an eventual read).

        Used by the homing service's getAllKeys; staleness is harmless
        there (Section VII-a).
        """
        reply = yield self._serve(self._scan_served, table)
        return reply["keys"]

    def _scan_served(self, op: Tuple[Any, ...]) -> None:
        done, table = op
        self.node.call_async(
            self._nearest(self.ring.nodes)[0], "store_scan",
            {"table": table}, timeout=self.config.rpc_timeout_ms, reply_event=done,
        )

    def _merge_replies(
        self, replies: List[Tuple[str, Dict[str, Any]]], table: str, partition: str,
    ) -> Dict[Any, Row]:
        """The live rows of the replies' LWW merge (``merge_into``), in
        a dict the caller owns, less what a replica's tombstone covers:
        a replica that missed a delete must not bring its row back.
        Each replica that served a row so dropped is sent the tombstone
        (fire-and-forget).

        Reply rows are the replicas' stored (frozen) rows, and the merge
        changes none of them: a row the replies agree on is passed
        through, one they differ on is merged into a new frozen row.
        """
        merged: Dict[Any, Row] = {}
        for _dst, reply in replies:
            merge_into(merged, reply["rows"])
        live = {c: r for c, r in merged.items() if r.live}
        repairs: Dict[str, List[DeleteRow]] = {}
        for _dst, reply in replies:
            tombstones = reply["tombstones"]
            if not tombstones:
                continue
            # A lookup per live row: a lock partition's tombstones are
            # its history, and never walked.
            for clustering, row in list(live.items()):
                tombstone = tombstones.get(clustering)
                if tombstone is None or (row.tombstone is not None and row.tombstone >= tombstone):
                    continue
                row = row.copy()
                row.delete(tombstone)
                if row.live:  # cells newer than the delete stay
                    live[clustering] = row.freeze()
                    continue
                del live[clustering]
                for dst, served in replies:
                    if clustering in served["rows"]:
                        repairs.setdefault(dst, []).append(
                            DeleteRow(table, partition, clustering, tombstone)
                        )
        for dst, deletes in repairs.items():
            self.counters["tombstone_repairs"] += 1
            self.node.call_quorum(
                [dst], "store_write", {"updates": deletes}, 0,
                size_bytes=sum(delete.size_bytes() for delete in deletes),
                timeout=self.config.rpc_timeout_ms,
            )
        return live

    def _issue_read_repair(
        self, table: str, partition: str, merged: Dict[Any, Row], replicas: List[str]
    ) -> None:
        """Push the merged view back to the replicas that replied (async)."""
        updates: List[Any] = []
        for clustering, row in merged.items():
            for column, cell in row.visible_cells().items():
                updates.append(
                    Update(table, partition, clustering, {column: cell.value}, cell.stamp)
                )
        if not updates:
            return
        size = sum(update.size_bytes() for update in updates)
        # Fire-and-forget: waiting for no reply, it cannot fail, so a
        # timeout on a dead replica is no unhandled failure.
        self.node.call_quorum(
            replicas, "store_write", {"updates": updates}, 0,
            size_bytes=size, timeout=self.config.rpc_timeout_ms,
        )

    # -- writes ------------------------------------------------------------

    def put(
        self,
        table: str,
        partition: str,
        clustering: Any,
        columns: Dict[str, Any],
        stamp: Stamp,
        consistency: str = Consistency.QUORUM,
    ) -> Generator[Any, Any, None]:
        """Write cells to a row at the given consistency.

        All replicas receive the write (replication); the call returns
        once ``consistency``-many have acknowledged.  QUORUM here is the
        paper's ``dsPutQuorum``.
        """
        update = Update(table, partition, clustering, dict(columns), stamp)
        return self.write([update], consistency)

    def delete_row(
        self,
        table: str,
        partition: str,
        clustering: Any,
        stamp: Stamp,
        consistency: str = Consistency.QUORUM,
    ) -> Generator[Any, Any, None]:
        return self.write([DeleteRow(table, partition, clustering, stamp)], consistency)

    def write(
        self, updates: List[Any], consistency: str, local: bool = False,
    ) -> Generator[Any, Any, None]:
        """Write a batch of cell updates and row deletes of one
        partition: every replica applies the batch at once.  With
        ``local``, a QUORUM write returns at the ack of the replica in
        our site and the quorum settles behind it (:meth:`_ack_here`),
        except during a ring transition, when pending owners must ack."""
        partition = updates[0].partition
        table = updates[0].table
        if len(updates) > 1 and any(u.partition != partition or u.table != table for u in updates):
            raise ValueError("a write batch must target a single (table, partition)")
        if consistency not in _LEVELS:
            raise ValueError(f"unknown consistency {consistency!r}")
        op = self._written(updates, consistency, local)
        if not self.obs.tracer.enabled:
            return op
        return self._traced(
            op, "store.put", site=self.node.site, consistency=consistency, table=table
        )

    def _written(
        self, updates: List[Any], consistency: str, local: bool
    ) -> Generator[Any, Any, None]:
        yield self._serve(self._write_served, updates, consistency, local)

    def _write_served(self, op: Tuple[Any, ...]) -> None:
        done, updates, consistency, local = op
        partition = updates[0].partition
        replicas = self.ring.replicas_for(partition, self.config.replication_factor)
        needed = self._needed(consistency, len(replicas))
        # During a ring transition, nodes gaining this partition are
        # dual-written and their acks are *required* (Cassandra's
        # blockFor + pending endpoints): every write acknowledged
        # before the handover flip is then guaranteed to sit on the
        # post-flip owner, so read quorums intersect across the move.
        pending = self.ring.pending_owners(partition, self.config.replication_factor)
        targets = [*replicas, *pending] if pending else replicas
        needed += len(pending)
        if len(updates) == 1:
            size = updates[0].size_bytes()
        else:
            size = sum(update.size_bytes() for update in updates)
        hint = None
        if self.config.hinted_handoff_enabled:  # a failed replica's copy waits as a hint
            def hint(dst: str) -> None:
                self._store_hint(dst, updates, self.sim.now)
        if local and not pending:
            self._ack_here(targets, "store_write", {"updates": updates}, needed, done, size, hint)
            return
        self.node.call_quorum(
            targets, "store_write", {"updates": updates}, needed, done,
            size, self.config.rpc_timeout_ms, hint,
        )

    # -- hinted handoff ---------------------------------------------------------

    def _store_hint(
        self, replica: str, updates: List[Any], hinted_at: float,
        requeue: bool = False,
    ) -> None:
        if len(self._hints) >= self.config.max_hints_per_coordinator:
            # Shed hints under sustained failure (Cassandra does too).
            self.counters["hints_dropped"]["overflow"] += 1
            return
        self._hints.append((replica, updates, hinted_at))
        if not requeue:
            self.counters["hints_queued"] += 1
        self._ensure_hint_replayer()

    def _ensure_hint_replayer(self) -> None:
        if self._hint_replayer is not None and not self._hint_replayer.triggered:
            return
        self._hint_replayer = self.sim.process(
            self._replay_hints(), name=f"hints:{self.node.node_id}"
        )

    def _replay_hints(self) -> Generator[Any, Any, None]:
        """Periodically retry undelivered writes until they land or expire."""
        while self._hints:
            yield self.sim.timeout(self.config.hint_replay_interval_ms)
            pending, self._hints = self._hints, []
            for replica, updates, hinted_at in pending:
                if self.sim.now - hinted_at > self.config.hint_ttl_ms:
                    # Older than the hint window: the target must catch
                    # up via anti-entropy repair instead.
                    self.counters["hints_dropped"]["expired"] += 1
                    continue
                try:
                    yield from self.node.call(
                        replica, "store_write", {"updates": updates},
                        size_bytes=sum(u.size_bytes() for u in updates),
                        timeout=self.config.rpc_timeout_ms,
                    )
                    self.counters["hints_replayed"] += 1
                except ReproError:
                    self._store_hint(replica, updates, hinted_at, requeue=True)

    @property
    def pending_hints(self) -> int:
        return len(self._hints)
