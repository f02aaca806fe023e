"""Gossip membership with versioned endpoint state and phi-accrual.

Every store replica runs a :class:`Gossiper`: a per-node map of
:class:`EndpointState` entries (one per known member) ordered by
``(generation, version)``, exchanged pairwise each round in Cassandra's
three-message shape — digest SYN, states + digest ACK, one-way ACK2
carrying what the peer lacked.  A node's heartbeat is its own version
counter, bumped once per round; status transitions
(``joining -> normal``, ``normal -> leaving -> left``) bump it too, so
the newest state always wins the merge no matter which path it gossiped
along.

Liveness suspicion is phi-accrual (Hayashibara et al.), the detector
Cassandra's gossiper uses for *membership* — deliberately distinct from
the lock-lease :class:`~repro.core.failure_detector.FailureDetector`,
which answers the different question "should this lock be forcibly
released".  Each observed heartbeat records an inter-arrival interval;
``phi(peer) = 0.4343 * elapsed / mean_interval`` is the negative
log-probability that a live peer would stay silent this long under an
exponential arrival model.  Exposed per peer through the
``topo.gossip.phi`` gauge.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Any, Dict, Generator, List, Tuple

from ..errors import ReproError
from ..net import Message, Node
from ..sim import RandomStreams

__all__ = [
    "EndpointState",
    "Gossiper",
    "STATUS_JOINING",
    "STATUS_NORMAL",
    "STATUS_LEAVING",
    "STATUS_DOWN",
    "STATUS_LEFT",
]

STATUS_JOINING = "joining"
STATUS_NORMAL = "normal"
STATUS_LEAVING = "leaving"
STATUS_DOWN = "down"
STATUS_LEFT = "left"

# Statuses that make a peer a gossip target / suspicion subject.
_ACTIVE = (STATUS_JOINING, STATUS_NORMAL, STATUS_LEAVING)

# ln(10): converts the exponential tail probability to base-10 phi.
_PHI_FACTOR = 0.4343

# One round per interval per node (with +/-10% jitter so members do not
# run in lockstep), contacting this many random live peers per round.
GOSSIP_INTERVAL_MS = 1_000.0
GOSSIP_FANOUT = 1
# Recent heartbeat inter-arrival intervals kept per peer for phi.
PHI_WINDOW = 8
# A peer whose phi exceeds this is a suspect (Cassandra's default).
PHI_THRESHOLD = 8.0


@dataclass(frozen=True)
class EndpointState:
    """One member's gossiped state, ordered by (generation, version)."""

    node_id: str
    site: str
    generation: int = 1
    version: int = 0
    status: str = STATUS_NORMAL

    @property
    def clock(self) -> Tuple[int, int]:
        return (self.generation, self.version)


class Gossiper:
    """The gossip agent of one store replica."""

    def __init__(
        self,
        node: Node,
        streams: RandomStreams,
        members: Dict[str, str],
        status: str = STATUS_NORMAL,
    ) -> None:
        self.node = node
        self.obs = node.obs
        self._rng = streams.stream(f"topo-gossip:{node.node_id}")
        self.states: Dict[str, EndpointState] = {
            node_id: EndpointState(node_id, site)
            for node_id, site in members.items()
        }
        self.states[node.node_id] = EndpointState(
            node.node_id, node.site, status=status
        )
        # Phi-accrual bookkeeping: last heartbeat arrival and the recent
        # inter-arrival window, per peer.
        self._last_heard: Dict[str, float] = {}
        self._intervals: Dict[str, deque] = {}
        self._loop = None
        self._stopped = False
        node.on("topo_gossip", self._handle_syn)
        node.on("topo_gossip_push", self._handle_push)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._loop is None:
            self._loop = self.node.sim.process(
                self._gossip_loop(), name=f"gossip:{self.node.node_id}"
            )

    def stop(self) -> None:
        self._stopped = True

    # -- own state -----------------------------------------------------------

    @property
    def self_state(self) -> EndpointState:
        return self.states[self.node.node_id]

    def set_status(self, status: str) -> None:
        """Advertise a status transition (bumps the heartbeat version)."""
        state = self.self_state
        self.states[self.node.node_id] = replace(
            state, status=status, version=state.version + 1
        )

    def _beat(self) -> None:
        state = self.self_state
        self.states[self.node.node_id] = replace(state, version=state.version + 1)

    # -- suspicion -----------------------------------------------------------

    def phi(self, peer: str) -> float:
        """Current suspicion level of ``peer`` (0 = just heard from)."""
        window = self._intervals.get(peer)
        last = self._last_heard.get(peer)
        if not window or last is None:
            return 0.0
        mean = sum(window) / len(window)
        if mean <= 0.0:
            return 0.0
        elapsed = self.node.sim.now - last
        return _PHI_FACTOR * elapsed / mean

    @property
    def suspects(self) -> List[str]:
        """Active peers whose phi exceeds ``PHI_THRESHOLD``."""
        return sorted(
            node_id
            for node_id, state in self.states.items()
            if node_id != self.node.node_id
            and state.status in _ACTIVE
            and self.phi(node_id) > PHI_THRESHOLD
        )

    def _record_heartbeat(self, peer: str) -> None:
        now = self.node.sim.now
        last = self._last_heard.get(peer)
        if last is not None and now > last:
            window = self._intervals.setdefault(peer, deque(maxlen=PHI_WINDOW))
            window.append(now - last)
        self._last_heard[peer] = now

    # -- merge ---------------------------------------------------------------

    def digest(self) -> Dict[str, Tuple[int, int]]:
        return {node_id: state.clock for node_id, state in self.states.items()}

    def merge(self, incoming: Dict[str, EndpointState]) -> None:
        for node_id, state in incoming.items():
            if node_id == self.node.node_id:
                continue  # nobody else is authoritative for our own state
            known = self.states.get(node_id)
            if known is None or state.clock > known.clock:
                self.states[node_id] = state  # frozen: safe to share
                self._record_heartbeat(node_id)

    def _newer_than(
        self, digest: Dict[str, Tuple[int, int]]
    ) -> Dict[str, EndpointState]:
        return {
            node_id: state
            for node_id, state in self.states.items()
            if node_id not in digest or state.clock > digest[node_id]
        }

    # -- the round loop --------------------------------------------------------

    def _targets(self) -> List[str]:
        return sorted(
            node_id
            for node_id, state in self.states.items()
            if node_id != self.node.node_id and state.status in _ACTIVE
        )

    def _gossip_loop(self) -> Generator[Any, Any, None]:
        while not self._stopped:
            yield self.node.sim.timeout(
                GOSSIP_INTERVAL_MS * (0.9 + 0.2 * self._rng.random())
            )
            if self._stopped:
                return
            if self.node.failed:
                continue
            self._beat()
            targets = self._targets()
            if not targets:
                continue
            fanout = min(GOSSIP_FANOUT, len(targets))
            peers = self._rng.sample(targets, fanout)
            for peer in peers:
                yield from self._gossip_once(peer)
            self._publish_metrics()

    def _gossip_once(self, peer: str) -> Generator[Any, Any, None]:
        digest = self.digest()
        try:
            reply = yield from self.node.call(
                peer,
                "topo_gossip",
                {"digest": digest},
                size_bytes=24 * len(digest) + 32,
            )
        except ReproError:
            return  # silent peer; phi keeps accruing
        self.merge(reply["states"])
        wanted = self._newer_than(reply["digest"])
        if wanted:
            self.node.send(
                peer,
                "topo_gossip_push",
                {"states": wanted},
                size_bytes=48 * len(wanted) + 32,
            )

    def _publish_metrics(self) -> None:
        if not self.obs.enabled:
            return
        metrics = self.obs.metrics
        metrics.counter("topo.gossip.rounds", node=self.node.node_id).inc()
        for peer in self._targets():
            metrics.gauge(
                "topo.gossip.phi", node=self.node.node_id, peer=peer
            ).set(self.phi(peer))
        suspects = self.suspects
        metrics.gauge("topo.gossip.suspects", node=self.node.node_id).set(
            len(suspects)
        )

    # -- handlers ----------------------------------------------------------------

    def _handle_syn(self, msg: Message) -> None:
        body = self.node.payload(msg)
        digest: Dict[str, Tuple[int, int]] = body["digest"]
        states = self._newer_than(digest)
        self.node.reply(
            msg,
            {"states": states, "digest": self.digest()},
            size_bytes=48 * len(states) + 24 * len(self.states) + 32,
        )

    def _handle_push(self, msg: Message) -> None:
        self.merge(msg.body["states"])
