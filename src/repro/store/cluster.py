"""Cluster builder: replicas, ring, and coordinator factories.

Reproduces the paper's deployments: N storage nodes spread round-robin
across the profile's sites (one per site for N=3; three per site for
N=9), with each key replicated once per site and sharded across the
nodes within a site via the hash ring.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Mapping, Optional, Sequence

from ..net import LatencyProfile, Network, Node
from ..sim import NodeClock, RandomStreams, Simulator
from .config import StoreConfig
from .coordinator import StoreCoordinator
from .replica import StorageReplica
from .ring import HashRing

__all__ = ["StoreCluster", "build_cluster", "site_layout"]


class StoreCluster:
    """A running set of storage replicas plus their placement ring."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        config: StoreConfig,
        replicas: List[StorageReplica],
        ring: HashRing,
        streams: RandomStreams,
        cores: int = 8,
    ) -> None:
        self.sim = sim
        self.network = network
        self.config = config
        self.replicas = replicas
        self.ring = ring
        self.streams = streams
        self.cores = cores
        self.by_id: Dict[str, StorageReplica] = {r.node_id: r for r in replicas}

    def start(self) -> None:
        for replica in self.replicas:
            replica.start()

    def add_replica(self, node_id: str, site: str) -> StorageReplica:
        """Construct, register and start one new (empty) storage replica.

        Node-level only: the caller (the topology manager's bootstrap)
        owns the ring change and the data movement.
        """
        if node_id in self.by_id:
            raise ValueError(f"replica {node_id!r} already in the cluster")
        replica = StorageReplica(
            self.sim, self.network, node_id, site, self.config,
            cores=self.cores, clock=NodeClock(self.sim),
            peers=[r.node_id for r in self.replicas] + [node_id],
            streams=self.streams,
        )
        replica.ring = self.ring
        for other in self.replicas:
            if node_id not in other.peers:
                other.peers.append(node_id)
        self.replicas.append(replica)
        self.by_id[node_id] = replica
        replica.start()
        return replica

    def remove_replica(self, node_id: str) -> StorageReplica:
        """Drop a replica from the membership views (decommission)."""
        replica = self.by_id.pop(node_id)
        self.replicas = [r for r in self.replicas if r.node_id != node_id]
        for other in self.replicas:
            if node_id in other.peers:
                other.peers.remove(node_id)
        return replica

    def coordinator_for(self, node: Node) -> StoreCoordinator:
        """A coordinator bound to ``node`` (a MUSIC replica or client host)."""
        return StoreCoordinator(node, self.ring, self.config, streams=self.streams)

    def replicas_in_site(self, site: str) -> List[StorageReplica]:
        return [replica for replica in self.replicas if replica.site == site]


def site_layout(prefix: str, site_names: Sequence[str], per_site: int) -> Dict[str, str]:
    """Node id -> site for ``per_site`` nodes at every site, under the
    id scheme all deployments share (``<prefix>-<site index>-<slot>``)."""
    return {
        f"{prefix}-{site_index}-{slot}": site
        for site_index, site in enumerate(site_names)
        for slot in range(per_site)
    }


def build_cluster(
    sim: Simulator,
    network: Network,
    profile: LatencyProfile,
    nodes_per_site: int = 1,
    config: Optional[StoreConfig] = None,
    streams: Optional[RandomStreams] = None,
    cores: int = 8,
    clock_skew_ms: float = 0.0,
    layout: Optional[Mapping[str, str]] = None,
    local: Optional[Collection[str]] = None,
) -> StoreCluster:
    """Build and return a (not yet started) store cluster.

    The one store assembly, for any ``(Clock, Transport)`` pair of
    seams (:class:`repro.sim.Clock`, :class:`repro.net.Transport`): ``layout`` maps *every* storage node of the
    cluster to its site (default: ``nodes_per_site`` per profile site)
    and fixes the placement ring and the peer list; ``local`` names the
    nodes instantiated here (default: all of them — the simulated
    world; a live process passes the ids it hosts).

    ``clock_skew_ms`` spreads replica clock offsets over +/- the given
    bound, exercising MUSIC's independence from cross-node clock
    agreement.
    """
    config = config or StoreConfig(replication_factor=len(profile.site_names))
    streams = streams or RandomStreams(0)
    skew_rng = streams.stream("clock-skew")
    if layout is None:
        layout = site_layout("store", profile.site_names, nodes_per_site)
    ring = HashRing(vnodes=config.ring_vnodes)
    node_ids = list(layout)
    replicas: List[StorageReplica] = []
    for node_id, site in layout.items():
        # Drawn for every node, hosted here or not, so a node's offset
        # depends on the seed alone.
        offset = skew_rng.uniform(-clock_skew_ms, clock_skew_ms) if clock_skew_ms else 0.0
        if local is None or node_id in local:
            replica = StorageReplica(
                sim,
                network,
                node_id,
                site,
                config,
                cores=cores,
                clock=NodeClock(sim, offset=offset),
                peers=node_ids,
                streams=streams,
            )
            replica.ring = ring
            replicas.append(replica)
        ring.add_node(node_id, site)
    return StoreCluster(sim, network, config, replicas, ring, streams, cores=cores)
