"""The simulated WAN.

Models the mechanisms that drive the paper's performance results:

- **Propagation delay**: one-way latency = RTT/2 from the active
  :class:`~repro.net.topology.LatencyProfile` (Table II), plus optional
  jitter.
- **Transmission delay and NIC serialization**: each node has an egress
  link of finite bandwidth; messages queue FIFO behind each other.  This
  is the leader-bottleneck queueing effect the paper credits for MUSIC
  overtaking Zookeeper at large batch/data sizes (Section VIII-c).
- **Loss, partitions and node failure**: messages can be dropped with a
  configured probability, between partitioned node groups, or to/from
  failed nodes.  Dropped messages are simply never delivered — senders
  observe this as an RPC timeout, matching the crash/partition model of
  Section III.

The egress link is modelled analytically (a ``next_free`` horizon per
NIC) rather than with a process per message, keeping per-message cost
low enough for throughput experiments with hundreds of thousands of
messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Set, Tuple

from ..obs import NULL_OBS
from ..sim import RandomStreams, Simulator
from .topology import LatencyProfile

__all__ = ["Message", "NetworkStats", "Network", "DEFAULT_BANDWIDTH_BYTES_PER_MS"]

# 10 Gbps in bytes per millisecond.  The paper's testbed emulates WAN
# *latency* with NetEm but keeps datacenter-grade link speed; bandwidth
# only matters for the large-value experiments (Fig. 6b).
DEFAULT_BANDWIDTH_BYTES_PER_MS = 1_250_000.0

# Fixed per-message overhead (headers, framing) in bytes.
MESSAGE_OVERHEAD_BYTES = 256


@dataclass(slots=True)
class Message:
    """A message in flight between two registered nodes: ``body`` as the
    sender gave it, plus an RPC's ``request_id`` (−1 one-way; the reply
    to ``src`` carries the request's) and caller ``trace`` context."""

    src: str
    dst: str
    kind: str
    body: Any
    size_bytes: int
    sent_at: float
    request_id: int = -1
    trace: Optional[Tuple[int, int]] = None


@dataclass
class NetworkStats:
    """Counters for delivered/dropped traffic (inspection and tests)."""

    sent: int = 0
    delivered: int = 0
    dropped_loss: int = 0
    dropped_partition: int = 0
    dropped_failed: int = 0
    bytes_sent: int = 0
    per_kind: Dict[str, int] = field(default_factory=dict)


class _Endpoint:
    """Internal record for one registered node."""

    __slots__ = ("node_id", "site", "inbox", "egress_free_at", "failed", "one_way")

    def __init__(self, node_id: str, site: str, inbox: Any) -> None:
        self.node_id = node_id
        self.site = site
        self.inbox = inbox
        self.egress_free_at = 0.0
        self.failed = False
        # dst id -> one-way latency, resolved on the first send to it.
        self.one_way: Dict[str, float] = {}


class Network:
    """Message transport between registered nodes over a latency profile."""

    def __init__(
        self,
        sim: Simulator,
        profile: LatencyProfile,
        streams: Optional[RandomStreams] = None,
        bandwidth_bytes_per_ms: float = DEFAULT_BANDWIDTH_BYTES_PER_MS,
        loss_probability: float = 0.0,
        jitter_fraction: float = 0.0,
        obs: Any = None,
    ) -> None:
        self.sim = sim
        self.profile = profile
        self.streams = streams or RandomStreams(0)
        self.bandwidth = bandwidth_bytes_per_ms
        self.loss_probability = loss_probability
        self.jitter_fraction = jitter_fraction
        self.stats = NetworkStats()
        self._rng = self.streams.stream("network")
        self._endpoints: Dict[str, _Endpoint] = {}
        self._partitions: Set[frozenset] = set()
        self._taps: list[Callable[[Message], None]] = []
        self._deliver_cb = self._deliver
        # Observability facade inherited by every node registered here
        # (NULL_OBS unless a real one is installed).
        self.obs = obs or NULL_OBS

    # -- membership ----------------------------------------------------------

    def register(self, node_id: str, site: str, inbox: Any) -> None:
        """Admit a node; delivery is ``inbox.put(message)``, at arrival."""
        if node_id in self._endpoints:
            raise ValueError(f"node id {node_id!r} already registered")
        if site not in self.profile.site_names:
            raise ValueError(f"site {site!r} not in profile {self.profile.name!r}")
        self._endpoints[node_id] = _Endpoint(node_id, site, inbox)

    def site_of(self, node_id: str) -> str:
        return self._endpoints[node_id].site

    def node_ids(self) -> list[str]:
        return list(self._endpoints)

    # -- failures and partitions ----------------------------------------------

    def fail_node(self, node_id: str) -> None:
        """Connectivity-level crash-stop: the node no longer sends or
        receives anything (messages are dropped at arrival time).

        This toggles *membership only* and says nothing about memory.
        The volatile-loss contract lives on the node:
        :meth:`~repro.net.node.Node.crash` discards volatile state,
        while calling ``fail_node`` directly models an unreachable-but-
        alive node — the false-failure-detection scenario of Section
        IV-B.
        """
        self._endpoints[node_id].failed = True

    def recover_node(self, node_id: str) -> None:
        """Re-admit a failed node, state untouched.

        The counterpart of :meth:`fail_node`: connectivity only.  Nodes
        with durable storage rejoin via
        :meth:`~repro.net.node.Node.recover`, which replays their
        commit log *before* calling this.
        """
        endpoint = self._endpoints[node_id]
        endpoint.failed = False
        # Clear the NIC serialization horizon: messages queued behind the
        # egress link at crash time were dropped, not transmitted, so a
        # recovering node must not rejoin with a phantom backlog charging
        # transmission delay for bytes that never went on the wire.
        endpoint.egress_free_at = 0.0

    def is_failed(self, node_id: str) -> bool:
        return self._endpoints[node_id].failed

    def partition_sites(self, site_a: str, site_b: str) -> None:
        """Drop all traffic between two sites (both directions)."""
        self._partitions.add(frozenset((site_a, site_b)))

    def heal_sites(self, site_a: str, site_b: str) -> None:
        self._partitions.discard(frozenset((site_a, site_b)))

    def isolate_site(self, site: str) -> None:
        """Partition one site away from every other site."""
        for other in self.profile.site_names:
            if other != site:
                self.partition_sites(site, other)

    def heal_all(self) -> None:
        self._partitions.clear()

    def partitioned(self, site_a: str, site_b: str) -> bool:
        return frozenset((site_a, site_b)) in self._partitions

    # -- observation ----------------------------------------------------------

    def add_tap(self, tap: Callable[[Message], None]) -> None:
        """Invoke ``tap(message)`` for every message accepted for sending."""
        self._taps.append(tap)

    # -- transport --------------------------------------------------------

    def send(
        self, src: str, dst: str, kind: str, body: Any, size_bytes: int = 64,
        request_id: int = -1, trace: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Fire-and-forget send; delivery (if any) is asynchronous.

        The caller never learns whether the message was dropped — exactly
        the fair-loss link the paper's system model assumes.
        """
        sim = self.sim
        now = sim.now
        source = self._endpoints[src]
        latency = source.one_way.get(dst)
        if latency is None:  # an unregistered ``dst`` raises here
            site = self._endpoints[dst].site
            latency = source.one_way[dst] = self.profile.one_way(source.site, site)
        message = Message(src, dst, kind, body, size_bytes, now, request_id, trace)
        stats = self.stats
        stats.sent += 1
        stats.bytes_sent += size_bytes
        per_kind = stats.per_kind
        per_kind[kind] = per_kind.get(kind, 0) + 1
        if self._taps:
            for tap in self._taps:
                tap(message)

        if source.failed:
            stats.dropped_failed += 1
            return

        # Egress serialization: the sender's NIC transmits one message at
        # a time; later messages queue behind earlier ones.
        departure = source.egress_free_at
        if departure < now:
            departure = now
        departure += (size_bytes + MESSAGE_OVERHEAD_BYTES) / self.bandwidth
        source.egress_free_at = departure

        jitter = self.jitter_fraction
        if jitter > 0.0:
            # Exactly uniform(0.0, jitter), minus its frame.
            latency *= 1.0 + jitter * self._rng.random()

        # Bound-method delivery, bound once: no per-message closure.  The
        # endpoint records are re-looked-up at arrival time from the message.
        sim.schedule(departure + latency - now, self._deliver_cb, message)

    def _deliver(self, message: Message) -> None:
        # Partition/failure state is evaluated at arrival time, so a
        # partition healed mid-flight lets late packets through — the
        # delayed-packet behaviour false failure detection stems from.
        source = self._endpoints[message.src]
        target = self._endpoints[message.dst]
        if target.failed or source.failed:
            self.stats.dropped_failed += 1
            return
        if self._partitions and self.partitioned(source.site, target.site):
            self.stats.dropped_partition += 1
            return
        if self.loss_probability > 0.0 and self._rng.random() < self.loss_probability:
            self.stats.dropped_loss += 1
            return
        self.stats.delivered += 1
        target.inbox.put(message)
