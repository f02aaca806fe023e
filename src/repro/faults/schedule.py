"""Declarative fault schedules over a simulated deployment.

The paper's system model (Section III) assumes crash failures, lost and
re-ordered messages, and network partitions with imperfect detection.
``FaultSchedule`` scripts those against a running simulation::

    faults = (FaultSchedule(music.sim, music.network)
              .partition_at(2_000.0, "Ohio")                # isolate a site
              .heal_at(9_000.0)
              .crash_at(4_000.0, "store-1-0")               # kill a node
              .recover_at(12_000.0, "store-1-0")
              .partition_pair_at(15_000.0, "Ohio", "Oregon")
              .heal_pair_at(18_000.0, "Ohio", "Oregon"))
    faults.arm()
    music.sim.run(until=30_000.0)
    print(faults.log)

Each entry fires at an absolute simulated time; ``log`` records what
actually fired, for assertions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, List, Mapping, Optional, Tuple

from ..net import Network, Node
from ..sim import Simulator

__all__ = ["FaultSchedule", "flaky_link_profile"]


@dataclass
class FaultSchedule:
    """A list of timed fault actions against one network.

    ``crash_at``/``recover_at`` act at the *network* level (the node
    goes silent but keeps its memory — an unreachable-but-alive node).
    ``restart_at`` and the durability knobs need the actual
    :class:`~repro.net.node.Node` objects, so construct the schedule
    with a ``nodes`` registry (or use
    :meth:`~repro.core.deployment.MusicDeployment.fault_schedule`).
    """

    sim: Simulator
    network: Network
    nodes: Optional[Mapping[str, Node]] = None
    # The deployment's TopologyManager, when built with elastic=True;
    # lets event-triggered faults (crash_mid_bootstrap) hook the
    # topology plane's stream notifications.
    topology: Optional[Any] = None
    actions: List[Tuple[float, str, Callable[[], None]]] = field(default_factory=list)
    log: List[Tuple[float, str]] = field(default_factory=list)
    _armed: bool = False
    _topo_hooks: List[Callable] = field(default_factory=list)

    def _node(self, node_id: str) -> Node:
        if self.nodes is not None and node_id in self.nodes:
            return self.nodes[node_id]
        # Nodes added after the schedule was built (live bootstrap)
        # resolve through the topology plane's cluster registry.
        if self.topology is not None:
            replica = self.topology.cluster.by_id.get(node_id)
            if replica is not None:
                return replica
        raise KeyError(
            f"FaultSchedule has no Node registry entry for {node_id!r}; "
            "construct it with nodes={...} or via "
            "MusicDeployment.fault_schedule()"
        )

    def _engines(self, node_id: Optional[str]) -> List:
        if self.nodes is None:
            raise KeyError(
                "durability knobs need a Node registry; construct the "
                "schedule with nodes={...} or via "
                "MusicDeployment.fault_schedule()"
            )
        if node_id is not None:
            return [self._node(node_id).engine]
        return [
            node.engine for node in self.nodes.values() if hasattr(node, "engine")
        ]

    def _add(self, when: float, label: str, action: Callable[[], None]) -> "FaultSchedule":
        if self._armed:
            raise RuntimeError("schedule already armed; build it first, then arm()")
        self.actions.append((when, label, action))
        return self

    # -- site partitions -----------------------------------------------------

    def partition_at(self, when: float, site: str) -> "FaultSchedule":
        """Isolate a whole site from every other site."""
        return self._add(when, f"isolate {site}", lambda: self.network.isolate_site(site))

    def partition_pair_at(self, when: float, site_a: str, site_b: str) -> "FaultSchedule":
        return self._add(
            when, f"partition {site_a}<->{site_b}",
            lambda: self.network.partition_sites(site_a, site_b),
        )

    def heal_at(self, when: float) -> "FaultSchedule":
        """Heal every partition."""
        return self._add(when, "heal all", self.network.heal_all)

    def heal_pair_at(self, when: float, site_a: str, site_b: str) -> "FaultSchedule":
        return self._add(
            when, f"heal {site_a}<->{site_b}",
            lambda: self.network.heal_sites(site_a, site_b),
        )

    # -- node crashes ------------------------------------------------------------

    def crash_at(self, when: float, node_id: str) -> "FaultSchedule":
        return self._add(when, f"crash {node_id}",
                         lambda: self.network.fail_node(node_id))

    def recover_at(self, when: float, node_id: str) -> "FaultSchedule":
        return self._add(when, f"recover {node_id}",
                         lambda: self.network.recover_node(node_id))

    # -- restarts with real state loss -------------------------------------------

    def restart_at(
        self,
        when: float,
        node_id: str,
        down_ms: float = 0.0,
    ) -> "FaultSchedule":
        """Crash ``node_id`` at ``when`` — losing its volatile state —
        and begin recovery ``down_ms`` later.

        Recovery replays the node's durable commit log on the simulated
        clock, so the node rejoins only after ``when + down_ms +
        replay_time``.
        """
        self._node(node_id)  # fail fast on a missing registry entry
        self._add(
            when, f"restart {node_id} (crash)", lambda: self._node(node_id).crash()
        )
        return self._add(
            when + down_ms, f"restart {node_id} (recover)",
            lambda: self._node(node_id).recover(),
        )

    # -- event-triggered faults ---------------------------------------------------

    def crash_mid_bootstrap(
        self,
        node_id: str,
        after_streams: int = 1,
        down_ms: float = 0.0,
    ) -> "FaultSchedule":
        """Crash ``node_id`` (with real state loss) the moment the
        topology plane starts its ``after_streams``-th partition stream,
        recovering ``down_ms`` later via commit-log replay.

        Event-triggered rather than timed: it fires exactly mid-
        bootstrap regardless of how long the preceding moves took, which
        is what the elastic-scaling safety argument needs to exercise —
        a stream source (or gainer) dying between collect and flip.
        Requires a schedule built from an ``elastic=True`` deployment.
        """
        if self.topology is None:
            raise KeyError(
                "crash_mid_bootstrap needs the topology plane; build the "
                "schedule via MusicDeployment.fault_schedule() on an "
                "elastic=True deployment"
            )
        state = {"streams": 0, "fired": False}

        def on_stream(key: str, old: List[str], new: List[str]) -> None:
            state["streams"] += 1
            if state["fired"] or state["streams"] < after_streams:
                return
            state["fired"] = True
            label = f"crash mid-bootstrap {node_id} (stream {key})"
            self._node(node_id).crash()
            self.log.append((self.sim.now, label))
            audit = self.network.obs.audit
            if audit.enabled:
                audit.emit("fault", label=label)

            def recover() -> None:
                self._node(node_id).recover()
                self.log.append((self.sim.now, f"recover {node_id}"))

            self.sim.call_at(self.sim.now + down_ms, recover)

        self._topo_hooks.append(on_stream)
        return self

    # -- durability knobs ---------------------------------------------------------

    def set_wal_sync_at(
        self,
        when: float,
        mode: str,
        node_id: Optional[str] = None,
        interval_ms: Optional[float] = None,
    ) -> "FaultSchedule":
        """Flip the commit-log sync mode of one engine-backed node (or,
        with ``node_id=None``, of every node that has an engine)."""

        def apply() -> None:
            for engine in self._engines(node_id):
                engine.config.wal_sync = mode
                if interval_ms is not None:
                    engine.config.wal_sync_interval_ms = interval_ms
                engine.config.validate()

        return self._add(when, f"wal_sync={mode} {node_id or 'all'}", apply)

    def set_paxos_journal_at(
        self, when: float, enabled: bool, node_id: Optional[str] = None
    ) -> "FaultSchedule":
        """Toggle Paxos acceptor-state journaling — the deliberate
        safety mutation the ECF auditor must catch when disabled."""

        def apply() -> None:
            for engine in self._engines(node_id):
                engine.config.journal_paxos = enabled

        return self._add(
            when, f"journal_paxos={enabled} {node_id or 'all'}", apply
        )

    # -- message loss ---------------------------------------------------------------

    def set_loss_at(self, when: float, probability: float) -> "FaultSchedule":
        def apply() -> None:
            self.network.loss_probability = probability

        return self._add(when, f"loss={probability}", apply)

    # -- execution ---------------------------------------------------------------

    def arm(self) -> "FaultSchedule":
        """Register every action with the simulator."""
        self._armed = True
        for when, label, action in self.actions:
            self.sim.call_at(when, self._firer(when, label, action))
        for hook in self._topo_hooks:
            self.topology.on_stream(hook)
        return self

    def _firer(self, when: float, label: str, action: Callable[[], None]):
        def fire() -> None:
            action()
            self.log.append((self.sim.now, label))
            audit = self.network.obs.audit
            if audit.enabled:
                # Fault markers interleave with the per-key histories so a
                # violation report shows which faults preceded it.
                audit.emit("fault", label=label)

        return fire


def flaky_link_profile(
    schedule: FaultSchedule,
    site_a: str,
    site_b: str,
    start: float,
    end: float,
    period: float,
    duty: float = 0.5,
) -> FaultSchedule:
    """A link that flaps: partitioned for ``duty`` of every ``period``.

    Models the repeated short partitions of real WANs (the paper's
    citation [2]/[3] territory) that make failure detectors fire falsely.
    """
    if not 0.0 < duty < 1.0:
        raise ValueError("duty must be in (0, 1)")
    when = start
    while when < end:
        schedule.partition_pair_at(when, site_a, site_b)
        schedule.heal_pair_at(min(when + period * duty, end), site_a, site_b)
        when += period
    return schedule
