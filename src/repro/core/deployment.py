"""One-call deployment of a full MUSIC stack on the simulator.

Mirrors Fig. 1: a MUSIC replica per site (more if asked) in front of a
store cluster whose replicas span the same sites.  Returns a handle with
everything tests, examples and benchmarks need.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Collection, Dict, List, Mapping, Optional, Tuple

from ..net import LatencyProfile, Network, Node, PAPER_PROFILES
from ..obs import NULL_OBS, ECFAuditor, Observability, SimProfiler
from ..sim import NodeClock, RandomStreams, Simulator
from ..store import StoreCluster, StoreConfig, build_cluster, site_layout
from .client import MusicClient
from .config import MusicConfig
from .failure_detector import FailureDetector
from .replica import MusicReplica
from .service import install_service, service_client

__all__ = ["MusicDeployment", "build_music", "build_replicas"]


@dataclass
class MusicDeployment:
    """A running MUSIC service plus its substrate."""

    sim: Simulator
    network: Network
    profile: LatencyProfile
    store: StoreCluster
    replicas: List[MusicReplica]
    detectors: List[FailureDetector]
    config: MusicConfig
    streams: RandomStreams
    obs: object = NULL_OBS
    auditor: Optional[object] = None
    # The elasticity control plane (repro.topo.TopologyManager); None
    # unless built with ``elastic=True``.
    topology: Optional[object] = None
    # The DES self-profiler (repro.obs.SimProfiler); None unless built
    # with ``profile=True``.
    profiler: Optional[object] = None
    _txn: Optional[object] = field(default=None, init=False, repr=False)
    _client_seq: Dict[str, int] = field(default_factory=dict)

    @property
    def txn(self) -> "TxnRuntime":  # noqa: F821 - lazy import
        """The transaction layer of DESIGN.md §9, a
        :class:`~repro.txn.TxnRuntime`: engine/executor factories for the
        three concurrency-control regimes (MUSIC locks, epoch OCC, SSI).
        Built on first access; building it allocates nothing on the
        simulator — no processes, events or randomness — so touching it
        without running a transaction keeps timings bit-identical."""
        if self._txn is None:
            from ..txn import TxnRuntime

            self._txn = TxnRuntime(self)
        return self._txn

    def replica_at(self, site: str) -> MusicReplica:
        for replica in self.replicas:
            if replica.site == site:
                return replica
        raise KeyError(f"no MUSIC replica at site {site!r}")

    def fault_schedule(self) -> "FaultSchedule":  # noqa: F821 - lazy import
        """A :class:`~repro.faults.FaultSchedule` pre-wired with this
        deployment's node registry, so ``restart_at`` (crash with real
        state loss + commit-log replay) and the durability knobs can
        resolve node ids like ``"store-1-0"`` to live nodes."""
        from ..faults import FaultSchedule

        nodes = dict(self.store.by_id)
        for replica in self.replicas:
            nodes[replica.node_id] = replica
        return FaultSchedule(
            self.sim, self.network, nodes=nodes, topology=self.topology
        )

    def _client_id(self, site: str, prefix: str) -> str:
        seq = self._client_seq.get(site, 0)
        self._client_seq[site] = seq + 1
        return f"{prefix}-{site}-{seq}"

    def client(self, site: str, client_id: Optional[str] = None) -> MusicClient:
        """A library-mode client at ``site``: handed the replicas."""
        return MusicClient(
            self.replicas, site,
            client_id=client_id or self._client_id(site, "client"),
            config=self.config, streams=self.streams,
        )

    def service_client(self, site: str, client_id: Optional[str] = None) -> MusicClient:
        """The same client in the service deployment of Fig. 1: on its
        own host at ``site``, handed RPC stubs of the replicas."""
        host = Node(self.sim, self.network, client_id or self._client_id(site, "app"), site)
        host.start()
        return service_client(
            host, [(replica.node_id, replica.site) for replica in self.replicas],
            self.config, streams=self.streams,
        )


def build_replicas(
    sim: Simulator,
    network: Network,
    store: StoreCluster,
    layout: Mapping[str, str],
    config: MusicConfig,
    local: Optional[Collection[str]] = None,
    replica_class: type = MusicReplica,
    cores: int = 8,
    clock_skew_ms: float = 0.0,
) -> Tuple[List[MusicReplica], List[FailureDetector]]:
    """Build, wire and start the MUSIC replicas hosted here.

    The one MUSIC-tier assembly, for any ``(Clock, Transport)`` pair of
    seams (:class:`repro.sim.Clock`, :class:`repro.net.Transport`): ``layout`` maps *every* MUSIC replica of the
    deployment to its site (it fixes the push-grant peer lists);
    ``local`` names the ones instantiated here (default: all).  Every
    replica serves its operations over RPC as well, so which deployment
    of Fig. 1 a client is in is decided by the client's construction
    alone.
    """
    skew_rng = store.streams.stream("music-clock-skew")
    replicas: List[MusicReplica] = []
    detectors: List[FailureDetector] = []
    for node_id, site in layout.items():
        offset = skew_rng.uniform(-clock_skew_ms, clock_skew_ms) if clock_skew_ms else 0.0
        if local is not None and node_id not in local:
            continue
        replica = replica_class(
            sim, network, node_id, site, store, config=config, cores=cores,
            clock=NodeClock(sim, offset=offset),
            peer_ids=[peer for peer in layout if peer != node_id],
        )
        install_service(replica)
        replica.start()
        replicas.append(replica)
        if config.failure_detection_enabled:
            detector = FailureDetector(replica)
            detector.start()
            detectors.append(detector)
    return replicas, detectors


def build_music(
    profile_name: str = "lUs",
    nodes_per_site: int = 1,
    music_replicas_per_site: int = 1,
    music_config: Optional[MusicConfig] = None,
    store_config: Optional[StoreConfig] = None,
    seed: int = 0,
    anti_entropy: bool = False,
    clock_skew_ms: float = 0.0,
    sim: Optional[Simulator] = None,
    network: Optional[Network] = None,
    replica_class: type = MusicReplica,
    cores: int = 8,
    obs=None,
    audit: bool = False,
    elastic: bool = False,
    read_leases: Optional[bool] = None,
    profile: bool = False,
) -> MusicDeployment:
    """Build and start a MUSIC deployment on a fresh (or given) simulator.

    ``replica_class`` lets baselines substitute a variant replica (e.g.
    MSCP) while keeping the identical deployment shape.

    ``obs=True`` (or an :class:`~repro.obs.Observability` instance)
    records spans and metrics across every node of the deployment — a
    ``network`` passed in carrying a recorder of its own takes only that
    one (or ``obs=True``);
    the default is the no-op recorder, under which an operation runs
    its bare body and opens no span (see :mod:`repro.obs.trace`).

    ``audit=True`` attaches an audit stream with the ECF checker
    subscribed (:class:`~repro.obs.ECFAuditor`), returned as
    ``deployment.auditor``: every ECF-relevant operation is recorded
    and checked online, and nothing else is — no span, no instrument.
    Both together also stamp every audit event with its open span, so
    a violation renders with its span tree.

    ``elastic=True`` attaches a :class:`~repro.topo.TopologyManager`
    (returned as ``deployment.topology``): gossip membership on every
    store replica plus live ``bootstrap``/``decommission``/``repair_pair``
    operations.  The default leaves the topology plane entirely
    unbuilt — no extra nodes, processes, or randomness — so simulated
    timings are bit-identical to earlier versions.

    Protocol features are fields of ``music_config``: the contention
    hot path of DESIGN.md §8 is on unless ``MusicConfig(fast_locks=False)``
    asks for the paper's polling protocol (seed-identical timings);
    failure detection ``MusicConfig(failure_detection_enabled=True)`` and
    commit-log durability ``StoreConfig(storage=StorageEngineConfig(
    wal_sync=…))`` default off with bit-identical timings.

    ``read_leases=True`` sets ``MusicConfig.read_leases``: the read
    scale-out tier of DESIGN.md §8 — leaseholder local critical reads
    audited against the ECF window, plus the bounded-staleness
    ``client.get(key, staleness_ms=…)`` cache, invalidated over the
    push-grant channel.  The default leaves the tier entirely unbuilt
    with bit-identical timings.

    The transaction layer of DESIGN.md §9 is ``deployment.txn``,
    built on first access.

    ``profile=True`` installs a :class:`~repro.obs.SimProfiler` on the
    simulator (returned as ``deployment.profiler``): wall-clock cost of
    the DES kernel itself — events/sec, heap high-water, per-event-type
    and per-subsystem handler time, RPC-request/obs-span allocation
    counts.  Wall-clock only; simulated timings stay bit-identical.
    """
    latency_profile = PAPER_PROFILES[profile_name]
    sim = sim or Simulator()
    profiler = None
    if profile:
        profiler = SimProfiler().install(sim)
    streams = RandomStreams(seed)
    if network is None:
        network = Network(sim, latency_profile, streams=streams)
    if obs is None and audit and network.obs is NULL_OBS:
        # Audit alone: the tracer stays the null object, and so the
        # metrics stay empty.
        obs = Observability(sim, tracer=NULL_OBS.tracer)
    if obs is True:
        obs = network.obs if network.obs.tracer.enabled else Observability(sim)
    if obs is not None and obs is not network.obs:
        if network.obs is not NULL_OBS:
            raise ValueError(
                "the network already carries a recorder: pass that one as obs, or none"
            )
        network.obs = obs
    # The two keywords that re-spell a config field resolve onto copies:
    # the caller's config objects are read, never written, so one
    # MusicConfig / StoreConfig can seed any number of deployments.
    store_config = replace(
        store_config
        or StoreConfig(replication_factor=len(latency_profile.site_names)),
        anti_entropy_enabled=anti_entropy,
    )
    music_config = replace(music_config or MusicConfig())
    if read_leases:
        music_config.read_leases = True

    auditor = None
    if audit:
        auditor = network.obs.attach_audit(
            ECFAuditor(period_ms=music_config.period_ms)
        )

    store = build_cluster(
        sim, network, latency_profile,
        nodes_per_site=nodes_per_site,
        config=store_config,
        streams=streams,
        cores=cores,
        clock_skew_ms=clock_skew_ms,
    )
    store.start()

    topology = None
    if elastic:
        from ..topo import TopologyManager

        topology = TopologyManager(
            sim, network, store, latency_profile.site_names[0], streams
        )
        topology.start()

    replicas, detectors = build_replicas(
        sim, network, store,
        site_layout("music", latency_profile.site_names, music_replicas_per_site),
        music_config, replica_class=replica_class, cores=cores,
        clock_skew_ms=clock_skew_ms,
    )

    return MusicDeployment(
        sim=sim, network=network, profile=latency_profile, store=store,
        replicas=replicas, detectors=detectors, config=music_config,
        streams=streams, obs=network.obs, auditor=auditor,
        topology=topology, profiler=profiler,
    )
