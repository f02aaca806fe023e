"""The proposer side of a light-weight transaction: per-partition Paxos.

The acceptor side is :class:`~repro.storage.PaxosState`, served by the
``paxos_*`` handlers of :class:`~repro.store.replica.StorageReplica`.
:class:`LwtProposer` is the half of :class:`~repro.store.StoreCoordinator`
that drives them: ``cas`` runs Cassandra's rounds against a partition's
replicas, completing in-progress proposals left by failed coordinators.

An LWT is four rounds — prepare, read, propose, commit — unless its
caller asks for the read to ride the promise (``read_in_promise``, the
lock store's hot path): then each promise carries the acceptor's rows
and tombstones, their merge is the read, and the LWT is decided at the
second round's quorum.  The promise quorum is a linearizable read only
if its promisers agree on the newest commit, so a promiser that missed
it gets it first (Cassandra's most-recent-commit repair).

The caller's ``read_in_promise`` is a function of the rows its
condition held on, which may name another table: then each acceptor
also returns its rows of that table's partition of the same key (the
ring places it on the same replicas) with its accept, the accept
quorum's merge is in hand at the decide point, and the CAS returns once
the local replica or a quorum has applied the commit.  The value was
chosen at the accept quorum; a rival's prepare finishes by recovery a
commit that never spread.  During a ring transition the commit still
waits for the pending owners' acks.

Every LWT, of three rounds or four, retries by one rule: an attempt
that lost a ballot, or finished a rival's round instead of its own,
backs off before it prepares again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..errors import LockContention
from ..net import quorum_size
from ..sim import Event
from .types import Condition, Mutation, Row, Update

__all__ = ["CasResult", "LwtProposer", "no_accept_read"]

# What a ``read_in_promise`` function is asked: the partition and the
# rows the condition held on; it names a table for the accept round to
# read too, or None.
AcceptRead = Callable[[str, Dict[Any, Row]], Optional[str]]


def no_accept_read(partition: str, rows: Dict[Any, Row]) -> None:
    """The ``read_in_promise`` of a CAS whose read rides the promise
    alone: its accept round reads nothing, and it returns at the
    commit quorum."""
    return None


@dataclass
class CasResult:
    """Outcome of a compare-and-set.

    ``applied`` mirrors Cassandra's ``[applied]`` column; when False,
    ``current`` holds the merged rows the condition was evaluated on so
    callers can see why they lost.
    """

    applied: bool
    current: Dict[Any, Row] = field(default_factory=dict)
    # The accept round's read (the ``read_in_promise`` function named a
    # table): the merged rows and when the proposes went out; else None.
    read: Optional[Tuple[Dict[Any, Row], float]] = None


class _Prepare:
    """One LWT attempt's prepare round: what its served continuation
    chose (replicas, quorum, ballot target, stamped mutation) and the
    ``paxos.prepare`` span it opened if traced, which ``with prepare:`` closes."""

    __slots__ = (
        "table", "partition", "mutation", "stamp_with_ballot", "read",
        "replicas", "needed", "target", "span",
    )

    def __init__(
        self, table: str, partition: str, mutation: Mutation, stamp_with_ballot: bool,
        read: Optional[AcceptRead],
    ) -> None:
        self.table = table
        self.partition = partition
        self.mutation = mutation
        self.stamp_with_ballot = stamp_with_ballot
        self.read = read  # the caller's read_in_promise
        self.span: Any = None

    def __enter__(self) -> "_Prepare":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self.span is not None:  # None: interrupted before it was sent
            self.span.__exit__(exc_type, exc, tb)
        return False


class LwtProposer:
    """``cas`` and its rounds, mixed into the coordinator, whose node,
    ring, config, ballot state, CPU service (``_serve``) and reply merge
    (``_merge_replies``) it uses."""

    def cas(
        self,
        table: str,
        partition: str,
        condition: Condition,
        mutation: Mutation,
        stamp_with_ballot: bool = False,
        on_committing: Optional[Callable[[Optional[Dict[Any, Row]]], None]] = None,
        on_recovered: Optional[Callable[[Mutation], None]] = None,
        read_in_promise: Optional[AcceptRead] = None,
    ) -> Generator[Any, Any, CasResult]:
        """Compare-and-set: apply ``mutation`` iff ``condition`` holds.

        Linearized through per-partition Paxos; costs four quorum round
        trips when uncontended, three with ``read_in_promise``.  On
        ballot contention the coordinator backs off and retries;
        :class:`LockContention` is raised only after
        ``StoreConfig.cas_max_attempts`` consecutive losses.

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

        ``read_in_promise``, if given, folds the read round into the
        prepare round.  It is called with ``partition`` and the rows the
        condition held on, and returns a table for the accept round to
        read too, or None (:func:`no_accept_read` always does).  A named
        table's read lands in :attr:`CasResult.read`, and the CAS then
        returns at the local commit.  The module docstring has both.
        """
        op = self._cas(
            table, partition, condition, mutation, stamp_with_ballot, on_committing,
            on_recovered, read_in_promise,
        )
        if not self.obs.tracer.enabled:
            return op
        return self._traced(op, "store.cas", site=self.node.site, table=table)

    def _cas(
        self, table: str, partition: str, condition: Condition, mutation: Mutation,
        stamp_with_ballot: bool, on_committing: Optional[Callable],
        on_recovered: Optional[Callable], read_in_promise: Optional[AcceptRead],
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
                _Prepare(table, partition, mutation, stamp_with_ballot, read_in_promise),
                condition, on_committing, on_recovered, view,
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
                self.config.cas_backoff_base_ms * (2 ** min(attempt, 7)),
                2_000.0,
            )
            backoff += self._rng.uniform(0.0, self.config.cas_backoff_jitter_ms)
            yield backoff  # a bare delay: nobody else waits on it
        raise LockContention(
            f"cas on {table}/{partition} lost {attempts} ballot races"
        )

    def _cas_once(
        self, prepare: _Prepare, condition: Condition,
        on_committing: Optional[Callable], on_recovered: Optional[Callable], view: List[Any],
    ) -> Generator[Any, Any, Optional[CasResult]]:
        """One Paxos attempt; returns None to signal retry-with-backoff."""
        # Round 1: prepare/promise, sent by the served continuation.
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
        newest_commit = None
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
            if accepted is not None:
                ours = self._same_mutation(stale_mutation, mutation)
                if ours and on_committing is not None:
                    on_committing(view[0])
                elif not ours and on_recovered is not None:
                    on_recovered(stale_mutation)
                yield from self._commit(replicas, needed, target, stale_mutation)
                if ours:
                    return CasResult(applied=True)
            return None

        table, partition = prepare.table, prepare.partition
        if prepare.read:
            # The promises are the read.  A promiser behind the newest
            # commit gets it first, so the quorum the read merges agrees
            # on it before anything is proposed on that read.
            lagging = [dst for dst, promise in replies if promise["latest_commit"] != newest_commit]
            if lagging and newest_commit is not None:
                yield from self._repair(lagging, target, newest_commit, replies)
            read_replies = replies
        else:
            # Round 2: read phase — evaluate the condition on merged quorum state.
            read_body = {
                "table": table, "partition": partition, "clustering": "__all_rows__",
                "tombstones": True,
            }
            read_replies = yield from self._round(
                "paxos.read", replicas, "store_read", read_body, needed
            )
        current = view[0] = self._merge_replies(read_replies, table, partition)
        if self._mutation_visible(current, mutation):
            # A competing coordinator completed our partially-accepted
            # proposal from an earlier attempt: we already took effect.
            return CasResult(applied=True, current=current)
        if not condition.evaluate(current):
            return CasResult(applied=False, current=current)

        # Round 3 (2 with the read in the promise): propose/accept, which
        # may carry the caller's read of another table.
        read_table = prepare.read(partition, current) if prepare.read else None
        sent = self.sim.now
        accepted = yield from self._propose(replicas, needed, target, mutation, read_table)
        if accepted is None:
            return None
        read = None
        if read_table is not None:
            read = self._merge_replies(accepted, read_table, partition), sent

        # Round 4: commit/apply.  The outcome is decided once a quorum
        # accepted the proposal, so advisory hooks fire here, overlapping
        # the commit round's WAN acks.
        if on_committing is not None:
            on_committing(current)
        yield from self._commit(replicas, needed, target, mutation, read is not None)
        return CasResult(applied=True, current=current, read=read)

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
            prepare.span = tracer.span(
                "paxos.prepare", node=self.node.node_id, site=self.node.site
            ).__enter__()
        body = dict(target, read=True) if prepare.read else target
        self.node.call_quorum(
            replicas, "paxos_prepare", body, needed, done, timeout=self.config.rpc_timeout_ms,
        )

    def _repair(
        self, lagging: List[str], target: Dict[str, Any], newest: Tuple[int, str],
        promises: List[Tuple[str, Any]],
    ) -> Generator[Any, Any, None]:
        """Commit the newest commit a promiser reported to the promisers
        that lack it, waiting for every one of their acks."""
        self.counters["commit_repairs"] += 1
        mutation = next(p["latest_mutation"] for _dst, p in promises if p["latest_commit"] == newest)
        body = dict(target, ballot=newest, mutation=mutation)
        yield from self._round("paxos.repair", lagging, "paxos_commit", body, len(lagging))

    def _propose(
        self, replicas: Sequence[str], needed: int, target: Dict[str, Any], mutation: Mutation,
        read_table: Optional[str] = None,
    ) -> Generator[Any, Any, Optional[List[Tuple[str, Any]]]]:
        """The accept round: the quorum's replies, or None if one rejected.
        With ``read_table``, each acceptor answers with its rows of that
        table's partition of the same key, read as it accepts."""
        size = sum(update.size_bytes() for update in mutation)
        body = dict(target, mutation=mutation)
        if read_table is not None:
            body["read"] = read_table
        replies = yield from self._round(
            "paxos.propose", replicas, "paxos_propose", body, needed, size
        )
        rejections = [reply for _dst, reply in replies if not reply["accepted"]]
        if rejections:
            self._observe_ballots(rejections)
            return None
        return replies

    def _commit(
        self, replicas: Sequence[str], needed: int, target: Dict[str, Any], mutation: Mutation,
        local: bool = False,
    ) -> Generator[Any, Any, None]:
        """The commit round, done at ``needed`` acks, or with ``local`` at
        the first of that and the ack of the replica in our site — unless
        the ring is in transition, when every pending owner must ack."""
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
        if not local or pending or flipped:
            yield from self._round("paxos.commit", targets, "paxos_commit", body, needed)
            return
        op = self._committed_here(replicas, body, needed)
        if self.obs.tracer.enabled:
            op = self._traced(op, "paxos.commit", site=self.node.site)
        yield from op

    def _committed_here(
        self, replicas: Sequence[str], body: Dict[str, Any], needed: int,
    ) -> Generator[Any, Any, None]:
        """Wait for the local replica's commit ack, or the quorum's if it
        comes first (``StoreCoordinator._ack_here``)."""
        ack = Event(self.sim)
        self._ack_here(replicas, "paxos_commit", body, needed, ack)
        yield ack

    def _round(
        self, name: str, targets: Sequence[str], kind: str, body: Any, needed: int,
        size_bytes: int = 64,
    ) -> Generator[Any, Any, List[Tuple[str, Any]]]:
        """One Paxos round: ``kind`` to every target, done at ``needed`` replies."""
        op = self._asked(targets, kind, body, needed, size_bytes)
        return self._traced(op, name, site=self.node.site) if self.obs.tracer.enabled else op

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
