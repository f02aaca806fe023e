"""Quorum-waiting over a set of in-flight RPCs.

Both the data-store coordinator (quorum reads/writes) and the consensus
implementations (Paxos/Zab/Raft majorities) need the same shape: fire N
requests, succeed as soon as K replies arrive, fail as soon as more than
N-K have failed.  This returns early on success — a write to a quorum
does *not* wait for the slowest replica, which is precisely why a quorum
operation costs ~1 RTT to the nearest majority in the latency figures.

There is one quorum wait, :meth:`repro.net.Node.call_quorum`: it sends
the requests and registers one :class:`QuorumWait` as every request's
pending entry, so a reply (or a timeout) is handed straight to the
collector that counts it — no per-request event.  Its outcome is an
event that a process yields, or the ``outcome`` event a caller already
waits on, which a served continuation fills in for it
(``repro.store.coordinator``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import QuorumUnavailable
from ..sim import Event

__all__ = ["QuorumWait", "quorum_size"]


def quorum_size(replica_count: int) -> int:
    """Majority quorum: more than half of the replicas."""
    return replica_count // 2 + 1


class QuorumWait:
    """Counts the replies of one quorum wait into its ``outcome`` event.

    The node's pending-reply map holds it under each of its requests'
    ids (``destinations`` maps them back to the replicas), so it goes
    when the last of them has been answered or has timed out.
    """

    __slots__ = (
        "outcome", "needed", "destinations", "successes", "failed", "on_failure", "first",
    )

    def __init__(
        self, outcome: Event, needed: int, on_failure: Optional[Callable[[str], None]],
        first: Optional[Tuple[str, Event]] = None,
    ) -> None:
        self.outcome = outcome
        self.needed = needed
        self.on_failure = on_failure
        # (destination, event): the event succeeds at that destination's
        # reply if it comes before the outcome triggers.
        self.first = first
        # request id -> destination, one per request sent.
        self.destinations: Dict[int, str] = {}
        self.successes: List[Tuple[str, Any]] = []
        self.failed = 0

    def reply(self, request_id: int, body: Any) -> None:
        """The reply to request ``request_id`` arrived."""
        outcome = self.outcome
        if outcome._triggered:
            return
        successes = self.successes
        pair = (self.destinations[request_id], body)
        successes.append(pair)
        first = self.first
        if first is not None and first[0] == pair[0] and not first[1]._triggered:
            first[1]._trigger(True, [pair])
        if len(successes) >= self.needed:
            # Later replies return above, so the list is the outcome's.
            outcome._trigger(True, successes)

    def timed_out(self, request_id: int) -> None:
        """Request ``request_id`` got no reply in time."""
        if self.on_failure is not None:
            # Every failed request, before and after the outcome.
            self.on_failure(self.destinations[request_id])
        outcome = self.outcome
        if outcome._triggered:
            return
        self.failed += 1
        total = len(self.destinations)
        reachable = total - self.failed
        if reachable < self.needed:
            outcome.fail(
                QuorumUnavailable(
                    f"only {reachable} of {total} replicas reachable, needed {self.needed}"
                )
            )
