"""Quorum-waiting over a set of in-flight RPCs.

Both the data-store coordinator (quorum reads/writes) and the consensus
implementations (Paxos/Zab/Raft majorities) need the same shape: fire N
requests, succeed as soon as K replies arrive, fail as soon as more than
N-K have failed.  This returns early on success — a write to a quorum
does *not* wait for the slowest replica, which is precisely why a quorum
operation costs ~1 RTT to the nearest majority in the latency figures.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Tuple

from ..errors import QuorumUnavailable
from ..sim import Event, Simulator

__all__ = ["await_quorum", "quorum_of", "quorum_size"]


def quorum_size(replica_count: int) -> int:
    """Majority quorum: more than half of the replicas."""
    return replica_count // 2 + 1


class _Collector:
    """Counts the replies of one quorum wait into its ``outcome`` event.

    Held only by the reply events it listens to, so it goes when the
    last of them has triggered.
    """

    __slots__ = ("outcome", "needed", "total", "destinations", "successes", "failed")

    def __init__(
        self, outcome: Event, handles: List[Tuple[str, Event]], needed: int
    ) -> None:
        self.total = len(handles)
        self.outcome = outcome
        self.needed = needed
        self.destinations = {event: dst for dst, event in handles}
        self.successes: List[Tuple[str, Any]] = []
        self.failed = 0
        # One collector for the whole wait, not a closure per destination.
        collect = self.collect
        for _dst, reply in handles:
            reply.add_callback(collect)

    def collect(self, event: Event) -> None:
        outcome = self.outcome
        if outcome._triggered:
            return
        if event._ok:
            successes = self.successes
            successes.append((self.destinations[event], event._value))
            if len(successes) >= self.needed:
                outcome.succeed(list(successes))
        else:
            self.failed += 1
            reachable = self.total - self.failed
            if reachable < self.needed:
                outcome.fail(
                    QuorumUnavailable(
                        f"only {reachable} of {self.total} replicas "
                        f"reachable, needed {self.needed}"
                    )
                )


def quorum_of(
    sim: Simulator,
    handles: List[Tuple[str, Event]],
    needed: int,
    outcome: Optional[Event] = None,
) -> Event:
    """An event (``outcome`` if given) that succeeds with the
    ``(destination, reply)`` pairs of the first ``needed`` (at most
    ``len(handles)``) successful replies, in completion order, or fails
    with :class:`QuorumUnavailable` once a quorum can no longer be
    formed.  Stragglers are left running; their eventual completion is
    harmless (and mirrors replicas applying a write after the
    coordinator has already acknowledged it)."""
    if outcome is None:
        outcome = sim.event(name="quorum")
    _Collector(outcome, handles, needed)
    return outcome


def await_quorum(
    sim: Simulator,
    handles: List[Tuple[str, Event]],
    needed: int,
) -> Generator[Any, Any, List[Tuple[str, Any]]]:
    """:func:`quorum_of` for ``yield from``: returns the quorum's
    ``(destination, reply)`` pairs or raises :class:`QuorumUnavailable`
    — at once if ``needed`` exceeds the requests sent."""
    total = len(handles)
    if needed > total:
        raise QuorumUnavailable(f"need {needed} replies but only {total} requests sent")

    # No local names the outcome: a failed outcome's traceback holds
    # this frame, and through such a name, itself.
    result = yield quorum_of(sim, handles, needed)
    return result
