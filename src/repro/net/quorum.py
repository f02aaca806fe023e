"""Quorum-waiting over a set of in-flight RPCs.

Both the data-store coordinator (quorum reads/writes) and the consensus
implementations (Paxos/Zab/Raft majorities) need the same shape: fire N
requests, succeed as soon as K replies arrive, fail as soon as more than
N-K have failed.  This returns early on success — a write to a quorum
does *not* wait for the slowest replica, which is precisely why a quorum
operation costs ~1 RTT to the nearest majority in the latency figures.

There is one quorum wait, :func:`quorum_of`: an event that a process
yields, or, handed the ``outcome`` event a caller already waits on, one
that a served continuation fills in for it (``repro.store.coordinator``).
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from ..errors import QuorumUnavailable
from ..sim import Event, Simulator

__all__ = ["quorum_of", "quorum_size"]


def quorum_size(replica_count: int) -> int:
    """Majority quorum: more than half of the replicas."""
    return replica_count // 2 + 1


class _Collector:
    """Counts the replies of one quorum wait into its ``outcome`` event.

    Held only by the reply events it listens to, so it goes when the
    last of them has triggered.
    """

    __slots__ = (
        "outcome", "needed", "total", "destinations", "successes", "failed", "on_failure",
    )

    def __init__(
        self,
        outcome: Event,
        handles: List[Tuple[str, Event]],
        needed: int,
        on_failure: Optional[Callable[[str], None]],
    ) -> None:
        self.total = len(handles)
        self.outcome = outcome
        self.needed = needed
        self.on_failure = on_failure
        self.destinations = {event: dst for dst, event in handles}
        self.successes: List[Tuple[str, Any]] = []
        self.failed = 0
        # One collector for the whole wait, not a closure per destination.
        collect = self.collect
        for _dst, reply in handles:
            reply.add_callback(collect)

    def collect(self, event: Event) -> None:
        if not event._ok and self.on_failure is not None:
            # Every failed reply, before and after the outcome.
            self.on_failure(self.destinations[event])
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
    on_failure: Optional[Callable[[str], None]] = None,
) -> Event:
    """An event (``outcome`` if given) that succeeds with the
    ``(destination, reply)`` pairs of the first ``needed`` successful
    replies, in completion order, or fails with
    :class:`QuorumUnavailable` once a quorum can no longer be formed.
    A process waits with ``replies = yield quorum_of(...)``.  Raises
    :class:`QuorumUnavailable` at once, in the caller's step, if
    ``needed`` exceeds the requests sent.  Stragglers are left running;
    their eventual completion is harmless (and mirrors replicas applying
    a write after the coordinator has already acknowledged it).
    ``on_failure(destination)`` runs for every request that fails,
    whether or not the outcome has triggered (hinted handoff)."""
    if needed > len(handles):
        raise QuorumUnavailable(f"need {needed} replies but only {len(handles)} requests sent")
    if outcome is None:
        outcome = sim.event(name="quorum")
    _Collector(outcome, handles, needed, on_failure)
    return outcome
