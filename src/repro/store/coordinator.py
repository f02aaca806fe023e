"""The coordinator side of the store: quorum reads/writes and LWTs.

A :class:`StoreCoordinator` is bound to one host node (in MUSIC's
deployment, each MUSIC replica coordinates its own back-end requests)
and provides the operations of Section III-B:

- ``put``/``get``/``delete_row`` at a chosen consistency level —
  ``dsPutQuorum``/``dsGetQuorum`` are these at QUORUM, the lock-store
  peek and the ``get``/``put`` convenience functions use LOCAL_ONE/ONE;
- ``cas`` — a light-weight transaction: the 4-round-trip per-partition
  Paxos of Cassandra (prepare, read, propose, commit), including the
  completion of in-progress proposals left by failed coordinators.

Quorum operations return as soon as the nearest majority has replied,
which is why a quorum op costs ~1 RTT to the closest peer site while an
LWT costs ~4 (Fig. 5b).
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..errors import LockContention, QuorumUnavailable, ReproError
from ..net import Node, quorum_size
from ..sim import Event, RandomStreams
from ..storage import merge_into
from .config import StoreConfig
from .ring import HashRing
from .types import (
    Condition,
    Consistency,
    DeleteRow,
    Mutation,
    Row,
    Stamp,
    Update,
)

__all__ = ["StoreCoordinator", "CasResult"]

# The levels answered by one replica, and every level there is.
_SINGLE = (Consistency.ONE, Consistency.LOCAL_ONE)
_LEVELS = (*_SINGLE, Consistency.QUORUM, Consistency.ALL)


@dataclass
class CasResult:
    """Outcome of a compare-and-set.

    ``applied`` mirrors Cassandra's ``[applied]`` column; when False,
    ``current`` holds the merged rows the condition was evaluated on so
    callers can see why they lost.
    """

    applied: bool
    current: Dict[Any, Row] = field(default_factory=dict)


class _Prepare:
    """One LWT attempt's prepare round: what its served continuation
    chose (replicas, quorum, ballot target, stamped mutation) and the
    ``paxos.prepare`` span it opened if traced, which ``with prepare:`` closes."""

    __slots__ = (
        "table", "partition", "mutation", "stamp_with_ballot",
        "replicas", "needed", "target", "span",
    )

    def __init__(
        self, table: str, partition: str, mutation: Mutation, stamp_with_ballot: bool
    ) -> None:
        self.table = table
        self.partition = partition
        self.mutation = mutation
        self.stamp_with_ballot = stamp_with_ballot
        self.span: Any = None

    def __enter__(self) -> "_Prepare":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.span is not None:  # None: interrupted before it was sent
            self.span.__exit__(exc_type, exc, tb)
        return False


class StoreCoordinator:
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
            "ballot_losses": 0,
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
    ) -> Generator[Any, Any, Dict[Any, Row]]:
        """Read rows of a partition; returns merged {clustering: Row}.

        At ONE/LOCAL_ONE only one replica is consulted (an *eventual*
        read: possibly stale).  At QUORUM/ALL, replies are merged cell-
        wise by stamp, so the result is at least as new as any value
        acknowledged at the same consistency; with
        ``StoreConfig.read_repair_enabled`` the merge is pushed back.
        """
        if consistency not in _LEVELS:
            raise ValueError(f"unknown consistency {consistency!r}")
        op = self._get(table, partition, clustering, consistency)
        if not self.obs.tracer.enabled:
            return op
        return self._traced(
            op, "store.get", site=self.node.site, consistency=consistency, table=table
        )

    def _get(
        self, table: str, partition: str, clustering: Any, consistency: str
    ) -> Generator[Any, Any, Dict[Any, Row]]:
        replies = yield self._serve(self._get_served, table, partition, clustering, consistency)
        if consistency in _SINGLE:
            return replies["rows"]
        merged = self._merge_replies([reply for _dst, reply in replies])
        if self.config.read_repair_enabled:
            self.counters["read_repairs"] += 1
            self._issue_read_repair(table, partition, merged, [dst for dst, _ in replies])
        return merged

    def _get_served(self, op: Tuple[Any, ...]) -> None:
        done, table, partition, clustering, consistency = op
        replicas = self.ring.replicas_for(partition, self.config.replication_factor)
        body = {"table": table, "partition": partition, "clustering": clustering}
        timeout = self.config.rpc_timeout_ms
        if consistency in _SINGLE:
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

    @staticmethod
    def _merge_replies(replies: List[Dict[str, Any]]) -> Dict[Any, Row]:
        """The live rows of the replies' LWW merge (``merge_into``), in
        a dict the caller owns.

        Reply rows are the replicas' stored (frozen) rows, and the merge
        changes none of them: a row the replies agree on is passed
        through, one they differ on is merged into a new frozen row.
        """
        merged: Dict[Any, Row] = {}
        for reply in replies:
            merge_into(merged, reply["rows"])
        return {c: r for c, r in merged.items() if r.live}

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
        return self._write([update], consistency)

    def delete_row(
        self,
        table: str,
        partition: str,
        clustering: Any,
        stamp: Stamp,
        consistency: str = Consistency.QUORUM,
    ) -> Generator[Any, Any, None]:
        return self._write([DeleteRow(table, partition, clustering, stamp)], consistency)

    def _write(self, updates: List[Any], consistency: str) -> Generator[Any, Any, None]:
        partition = updates[0].partition
        table = updates[0].table
        if len(updates) > 1 and any(u.partition != partition or u.table != table for u in updates):
            raise ValueError("a write batch must target a single (table, partition)")
        if consistency not in _LEVELS:
            raise ValueError(f"unknown consistency {consistency!r}")
        op = self._written(updates, consistency)
        if not self.obs.tracer.enabled:
            return op
        return self._traced(
            op, "store.put", site=self.node.site, consistency=consistency, table=table
        )

    def _written(self, updates: List[Any], consistency: str) -> Generator[Any, Any, None]:
        yield self._serve(self._write_served, updates, consistency)

    def _write_served(self, op: Tuple[Any, ...]) -> None:
        done, updates, consistency = op
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

    # -- light-weight transactions (per-partition Paxos) -------------------------

    def cas(
        self,
        table: str,
        partition: str,
        condition: Condition,
        mutation: Mutation,
        stamp_with_ballot: bool = False,
        on_committing: Optional[Callable[[Optional[Dict[Any, Row]]], None]] = None,
        backoff_scale: float = 1.0,
        on_recovered: Optional[Callable[[Mutation], None]] = None,
    ) -> Generator[Any, Any, CasResult]:
        """Compare-and-set: apply ``mutation`` iff ``condition`` holds.

        Linearized through per-partition Paxos; costs four quorum round
        trips when uncontended.  On ballot contention the coordinator
        backs off and retries; :class:`LockContention` is raised only
        after ``StoreConfig.cas_max_attempts`` consecutive losses.

        With ``stamp_with_ballot``, the mutation's write stamps are
        replaced by the winning Paxos ballot (Cassandra's behaviour):
        the promise protocol forces ballots to grow per partition, so
        successive CAS mutations merge in linearization order even when
        coordinators' clocks disagree.  Without it, the caller's stamps
        are used verbatim (needed when stamps carry semantics, like
        MUSIC's v2s vector timestamps).

        ``on_committing`` (if given) fires exactly once, after this
        operation's proposal is accepted by a quorum — i.e. the outcome
        is decided — but before the commit round's acks return, with the
        rows its condition held on.  Callers use it for advisory
        side-channels (e.g. push grants) that may overlap the commit
        round; anything correctness-bearing must wait for the returned
        :class:`CasResult`.  ``on_recovered`` gets a rival's mutation
        this call decides by completing its in-progress proposal.

        ``backoff_scale`` scales the ballot-loss backoff: latency-
        critical CAS (a lock handover) passes < 1 to re-contest quickly,
        while deferrable work (a mint batch) passes > 1 to yield the
        partition.  The default leaves the schedule untouched.
        """
        op = self._cas(
            table, partition, condition, mutation, stamp_with_ballot, on_committing,
            backoff_scale, on_recovered,
        )
        if not self.obs.tracer.enabled:
            return op
        return self._traced(op, "store.cas", site=self.node.site, table=table)

    def _cas(
        self, table: str, partition: str, condition: Condition, mutation: Mutation,
        stamp_with_ballot: bool, on_committing: Optional[Callable],
        backoff_scale: float, on_recovered: Optional[Callable],
    ) -> Generator[Any, Any, CasResult]:
        attempts = self.config.cas_max_attempts
        # One identity for the whole logical operation: re-stamped retry
        # attempts must still be recognisable as *this* CAS (for the
        # ambiguity resolution when a partial accept is completed by a
        # competing coordinator).
        op_id = f"{self.node.node_id}#{next(self._op_ids)}"
        mutation = [update.restamped(update.stamp, op_id) for update in mutation]
        # The rows the last read phase evaluated the condition on: an
        # attempt that completes our own earlier proposal decides it on them.
        view: List[Any] = [None]
        for attempt in range(attempts):
            outcome = yield from self._cas_once(
                table, partition, condition, mutation, stamp_with_ballot, on_committing,
                on_recovered, view,
            )
            if outcome is not None:
                tracer = self.obs.tracer
                if tracer.enabled:
                    tracer.current_span().set(attempts=attempt + 1, applied=outcome.applied)
                audit = self.obs.audit
                if audit.enabled:
                    audit.emit(
                        "lwt", node=self.node.node_id, table=table, partition=partition,
                        applied=outcome.applied, attempts=attempt + 1,
                    )
                return outcome
            self.counters["ballot_losses"] += 1
            # Exponential backoff (capped): under heavy contention a
            # partition admits roughly one winner per LWT duration, so
            # losers must spread out across many such rounds.
            backoff = min(
                self.config.cas_backoff_base_ms * backoff_scale * (2 ** min(attempt, 7)),
                2_000.0,
            )
            backoff += self._rng.uniform(0.0, self.config.cas_backoff_jitter_ms)
            yield backoff  # a bare delay: nobody else waits on it
        raise LockContention(
            f"cas on {table}/{partition} lost {attempts} ballot races"
        )

    def _cas_once(
        self, table: str, partition: str, condition: Condition, mutation: Mutation,
        stamp_with_ballot: bool, on_committing: Optional[Callable],
        on_recovered: Optional[Callable], view: List[Any],
    ) -> Generator[Any, Any, Optional[CasResult]]:
        """One Paxos attempt; returns None to signal retry-with-backoff."""
        # Round 1: prepare/promise, sent by the served continuation.
        prepare = _Prepare(table, partition, mutation, stamp_with_ballot)
        if self.obs.tracer.enabled:
            with prepare:
                replies = yield self._serve(self._prepare_served, prepare)
        else:
            replies = yield self._serve(self._prepare_served, prepare)
        replicas, needed, target = prepare.replicas, prepare.needed, prepare.target
        mutation = prepare.mutation
        promises = [reply for _dst, reply in replies]
        if not all(promise["promised"] for promise in promises):
            # Lost the ballot race: advance past the winning ballot, or
            # a coordinator whose clock runs behind a competitor's could
            # be starved forever (clocks only order a single node's own
            # ballots — never rely on cross-node clock agreement).
            self._observe_ballots(promises)
            return None
        in_progress = [p["in_progress"] for p in promises if p["in_progress"] is not None]
        # Discard in-progress proposals older than the newest commit any
        # promiser has seen: those rounds were superseded — a partially-
        # accepted proposal that lost its ballot race must not be
        # resurrected after a competing CAS committed, or its proposer
        # would see applied=True for a condition that no longer holds
        # (e.g. two coordinators both minting the same lockRef).  This
        # mirrors Cassandra's most-recent-commit check.  A proposal that
        # actually took effect is still recognised by the read phase's
        # op-id visibility check below.
        commits = [
            p.get("latest_commit") for p in promises
            if p.get("latest_commit") is not None
        ]
        if commits:
            newest_commit = max(commits)
            in_progress = [pair for pair in in_progress if pair[0] > newest_commit]
        if in_progress:
            # Finish the most recent incomplete proposal before our own
            # (Cassandra's LWT recovery path).  If the orphan is our own
            # mutation from an earlier partially-accepted attempt,
            # finishing it *is* our operation succeeding.
            _stale_ballot, stale_mutation = max(in_progress, key=lambda pair: pair[0])
            accepted = yield from self._propose(replicas, needed, target, stale_mutation)
            if accepted:
                ours = self._same_mutation(stale_mutation, mutation)
                if ours and on_committing is not None:
                    on_committing(view[0])
                elif not ours and on_recovered is not None:
                    on_recovered(stale_mutation)
                yield from self._commit(replicas, needed, target, stale_mutation)
                if ours:
                    return CasResult(applied=True)
            return None

        # Round 2: read phase — evaluate the condition on merged quorum state.
        read_body = {"table": table, "partition": partition, "clustering": "__all_rows__"}
        read_replies = yield from self._round(
            "paxos.read", replicas, "store_read", read_body, needed
        )
        current = view[0] = self._merge_replies([reply for _dst, reply in read_replies])
        if self._mutation_visible(current, mutation):
            # A competing coordinator completed our partially-accepted
            # proposal from an earlier attempt: we already took effect.
            return CasResult(applied=True, current=current)
        if not condition.evaluate(current):
            return CasResult(applied=False, current=current)

        # Round 3: propose/accept.
        accepted = yield from self._propose(replicas, needed, target, mutation)
        if not accepted:
            return None

        # Round 4: commit/apply.  The outcome is decided once a quorum
        # accepted the proposal, so advisory hooks fire here, overlapping
        # the commit round's WAN acks.
        if on_committing is not None:
            on_committing(current)
        yield from self._commit(replicas, needed, target, mutation)
        return CasResult(applied=True, current=current)

    def _prepare_served(self, op: Tuple[Any, ...]) -> None:
        """What an attempt does once its CPU time is served: pick the
        replicas and the ballot, stamp the mutation, send the prepares."""
        done, prepare = op
        prepare.replicas = replicas = self.replicas(prepare.partition)
        prepare.needed = needed = quorum_size(len(replicas))
        ballot = self._next_ballot()
        prepare.target = target = {
            "table": prepare.table, "partition": prepare.partition, "ballot": ballot,
        }
        if prepare.stamp_with_ballot:
            stamp = (float(ballot[0]), ballot[1])
            prepare.mutation = [
                update.restamped(stamp, update.op_id) for update in prepare.mutation
            ]
        tracer = self.obs.tracer
        if tracer.enabled:  # the caller's current span while the prepares go out
            prepare.span = tracer.span("paxos.prepare", node=self.node.node_id).__enter__()
        self.node.call_quorum(
            replicas, "paxos_prepare", target, needed, done, timeout=self.config.rpc_timeout_ms
        )

    def _propose(
        self, replicas: Sequence[str], needed: int, target: Dict[str, Any], mutation: Mutation,
    ) -> Generator[Any, Any, bool]:
        size = sum(update.size_bytes() for update in mutation)
        body = dict(target, mutation=mutation)
        replies = yield from self._round(
            "paxos.propose", replicas, "paxos_propose", body, needed, size
        )
        rejections = [reply for _dst, reply in replies if not reply["accepted"]]
        if rejections:
            self._observe_ballots(rejections)
            return False
        return True

    def _commit(
        self, replicas: Sequence[str], needed: int, target: Dict[str, Any], mutation: Mutation,
    ) -> Generator[Any, Any, None]:
        body = dict(target, mutation=mutation)
        partition = target["partition"]
        factor = self.config.replication_factor
        # Dual-write the decided mutation to pending owners (their acks
        # are required, like plain writes during a transition).  If the
        # partition flipped to its new owners *while this LWT was in
        # flight*, also forward to any current owner missing from the
        # prepare-time replica set — idempotent thanks to LWW stamps, and
        # it closes the window between the handover snapshot and this
        # commit landing.
        pending = [
            node_id
            for node_id in self.ring.pending_owners(partition, factor)
            if node_id not in replicas
        ]
        flipped = [
            node_id
            for node_id in self.ring.replicas_for(partition, factor)
            if node_id not in replicas and node_id not in pending
        ]
        needed += len(pending)
        targets = [*replicas, *pending, *flipped]
        yield from self._round("paxos.commit", targets, "paxos_commit", body, needed)

    def _round(
        self, name: str, targets: Sequence[str], kind: str, body: Any, needed: int,
        size_bytes: int = 64,
    ) -> Generator[Any, Any, List[Tuple[str, Any]]]:
        """One Paxos round: ``kind`` to every target, done at ``needed`` replies."""
        op = self._asked(targets, kind, body, needed, size_bytes)
        return self._traced(op, name) if self.obs.tracer.enabled else op

    def _asked(
        self, targets: Sequence[str], kind: str, body: Any, needed: int, size_bytes: int
    ) -> Generator[Any, Any, List[Tuple[str, Any]]]:
        return (yield self.node.call_quorum(
            targets, kind, body, needed, None, size_bytes, self.config.rpc_timeout_ms
        ))

    @staticmethod
    def _same_mutation(left: Mutation, right: Mutation) -> bool:
        """Whether two mutations are the same logical operation: their
        op_ids, which re-stamped retry attempts keep, match."""
        if len(left) != len(right):
            return False
        return all(
            a.op_id and a.op_id == b.op_id for a, b in zip(left, right)
        )

    @staticmethod
    def _mutation_visible(current: Dict[Any, Row], mutation: Mutation) -> bool:
        """Whether ``mutation``'s cells are present in ``current``.

        Matched by op_id: a hit on any written cell proves this very
        logical operation was committed (possibly by a competing
        coordinator that completed our partially-accepted proposal).
        """
        for update in mutation:
            if not isinstance(update, Update) or not update.op_id:
                continue
            row = current.get(update.clustering)
            if row is None:
                continue
            for column in update.columns:
                cell = row.visible_cells().get(column)
                if cell is not None and cell.op_id == update.op_id:
                    return True
        return False

    def _observe_ballots(self, replies: List[Dict[str, Any]]) -> None:
        """Learn competitors' ballots from rejections so the next
        attempt's ballot exceeds them."""
        for reply in replies:
            promised = reply.get("promised_ballot")
            if promised is not None:
                self._ballot_round = max(self._ballot_round, promised[0])

    def _next_ballot(self) -> Tuple[int, str]:
        self._ballot_round = max(
            self._ballot_round + 1, int(self.node.clock.now() * 1000)
        )
        return (self._ballot_round, self.node.node_id)
