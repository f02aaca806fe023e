"""Cluster topology configuration for live deployments.

One config file describes the whole cluster; every node process and
every client process loads the same file and picks out its own part.
The file carries the shared *epoch* (unix seconds): all
:class:`~repro.live.clock.LiveClock` instances measure milliseconds
from it, so ballots, v2s stamps and audit timestamps are comparable
across processes — the property the offline auditor replay relies on.

Two formats are accepted: TOML (via stdlib ``tomllib``, Python 3.11+)
and JSON (everywhere).  The harness writes JSON so the test suite does
not depend on the Python minor version; ``python -m repro.live init``
emits a commented TOML skeleton for humans.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from ..core.config import MusicConfig
from ..net.topology import LatencyProfile
from ..store.config import StoreConfig

__all__ = ["NodeSpec", "ClusterSpec", "load_cluster", "localhost_spec"]

# Advisory intra-cluster RTT for the live profile: the real network
# provides actual latency; this value only feeds proximity sorting.
_LIVE_RTT_MS = 1.0


@dataclass
class NodeSpec:
    """One OS process of the cluster and the protocol nodes it hosts."""

    name: str
    host: str
    port: int
    site: str
    store: List[str] = field(default_factory=list)
    music: List[str] = field(default_factory=list)

    @property
    def address(self) -> tuple:
        return (self.host, self.port)


@dataclass
class ClusterSpec:
    """The full topology plus the knobs both modes share."""

    name: str = "live"
    seed: int = 0
    # Unix-seconds anchor for every LiveClock in the cluster.
    epoch: float = 0.0
    nodes: List[NodeSpec] = field(default_factory=list)
    # Field overrides applied onto MusicConfig()/StoreConfig().
    music: Dict[str, Any] = field(default_factory=dict)
    store: Dict[str, Any] = field(default_factory=dict)
    # Where node processes write audit/span JSONL and ready files.
    run_dir: str = "live-runs/latest"

    # -- derived views -----------------------------------------------------

    @property
    def site_names(self) -> List[str]:
        names: List[str] = []
        for node in self.nodes:
            if node.site not in names:
                names.append(node.site)
        return names

    @property
    def store_ids(self) -> List[str]:
        return [node_id for node in self.nodes for node_id in node.store]

    @property
    def music_ids(self) -> List[str]:
        return [node_id for node in self.nodes for node_id in node.music]

    def node_named(self, name: str) -> NodeSpec:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(f"no node named {name!r} in cluster {self.name!r}")

    def owner_of(self, node_id: str) -> NodeSpec:
        """The process hosting protocol node ``node_id``."""
        for node in self.nodes:
            if node_id in node.store or node_id in node.music:
                return node
        raise KeyError(f"no process hosts node {node_id!r}")

    def addresses(self) -> Dict[str, tuple]:
        """protocol node id -> (host, port) of its hosting process."""
        table: Dict[str, tuple] = {}
        for node in self.nodes:
            for node_id in node.store + node.music:
                table[node_id] = node.address
        return table

    def site_of(self, node_id: str) -> str:
        return self.owner_of(node_id).site

    def sites_of(self, node_ids: List[str]) -> Dict[str, str]:
        """protocol node id -> site: the layout the assembly functions take."""
        return {node_id: self.site_of(node_id) for node_id in node_ids}

    def latency_profile(self) -> LatencyProfile:
        """A flat advisory profile over the cluster's sites."""
        sites = tuple(self.site_names)
        rtts = {
            frozenset((a, b)): _LIVE_RTT_MS
            for i, a in enumerate(sites)
            for b in sites[i + 1 :]
        }
        return LatencyProfile(name=f"live:{self.name}", site_names=sites, rtts=rtts)

    def music_config(self) -> MusicConfig:
        return _apply_overrides(MusicConfig(), self.music, "music")

    def store_config(self) -> StoreConfig:
        config = StoreConfig(replication_factor=len(self.site_names))
        return _apply_overrides(config, self.store, "store")

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "cluster": {
                "name": self.name,
                "seed": self.seed,
                "epoch": self.epoch,
                "run_dir": self.run_dir,
            },
            "music": dict(self.music),
            "store": dict(self.store),
            "node": [dataclasses.asdict(node) for node in self.nodes],
        }

    def write_json(self, path: Any) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_dict(), indent=2))
        return path

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ClusterSpec":
        cluster = data.get("cluster", {})
        nodes = [
            NodeSpec(
                name=raw["name"],
                host=raw.get("host", "127.0.0.1"),
                port=int(raw["port"]),
                site=raw.get("site", raw["name"]),
                store=list(raw.get("store", [])),
                music=list(raw.get("music", [])),
            )
            for raw in data.get("node", [])
        ]
        return cls(
            name=cluster.get("name", "live"),
            seed=int(cluster.get("seed", 0)),
            epoch=float(cluster.get("epoch", 0.0)),
            nodes=nodes,
            music=dict(data.get("music", {})),
            store=dict(data.get("store", {})),
            run_dir=cluster.get("run_dir", "live-runs/latest"),
        )


def _apply_overrides(config: Any, overrides: Dict[str, Any], section: str) -> Any:
    """``config`` with ``overrides`` applied; only its fields are
    tunables, not what it derives from them (properties, methods)."""
    tunables = {field.name for field in dataclasses.fields(config)}
    for key in overrides:
        if key not in tunables:
            raise KeyError(f"[{section}] has no tunable {key!r}")
    return dataclasses.replace(config, **overrides)


def load_cluster(path: Any) -> ClusterSpec:
    """Load a cluster config from a ``.toml`` or ``.json`` file."""
    path = Path(path)
    text = path.read_bytes()
    if path.suffix == ".toml":
        try:
            import tomllib
        except ImportError as exc:  # Python < 3.11
            raise RuntimeError(
                "TOML configs need Python 3.11+ (stdlib tomllib); "
                "use a .json config on older interpreters"
            ) from exc
        data = tomllib.loads(text.decode("utf-8"))
    else:
        data = json.loads(text)
    spec = ClusterSpec.from_dict(data)
    if spec.epoch <= 0.0:
        raise ValueError(
            f"cluster config {path} has no epoch; every process needs the "
            "shared time anchor (localhost_spec/init set it)"
        )
    return spec


def localhost_spec(
    n_nodes: int = 3,
    base_port: int = 7400,
    seed: int = 0,
    name: str = "local",
    epoch: Optional[float] = None,
    run_dir: str = "live-runs/latest",
    music: Optional[Dict[str, Any]] = None,
    store: Optional[Dict[str, Any]] = None,
) -> ClusterSpec:
    """A ready-to-run N-process localhost cluster, one site per process.

    Mirrors the DES deployment shape (``build_music``): site ``site-i``
    hosts store replica ``store-i-0`` and MUSIC replica ``music-i-0``,
    replication factor = number of sites, quorums of
    ``floor(n/2) + 1``.
    """
    import time as _time

    nodes = [
        NodeSpec(
            name=f"n{index}",
            host="127.0.0.1",
            port=base_port + index,
            site=f"site-{index}",
            store=[f"store-{index}-0"],
            music=[f"music-{index}-0"],
        )
        for index in range(n_nodes)
    ]
    return ClusterSpec(
        name=name,
        seed=seed,
        epoch=_time.time() if epoch is None else epoch,
        nodes=nodes,
        music=dict(music or {}),
        store=dict(store or {}),
        run_dir=run_dir,
    )


TOML_SKELETON = """\
# repro.live cluster config.  Every node and client process loads this
# same file.  Regenerate the epoch (unix seconds) for each fresh run:
# it anchors every process's clock so cross-process timestamps compare.

[cluster]
name = "{name}"
seed = {seed}
epoch = {epoch}
run_dir = "{run_dir}"

[music]
# MusicConfig overrides, e.g.:
# fast_locks = true

[store]
# StoreConfig overrides, e.g.:
# replication_factor = 3

{nodes}"""


def toml_skeleton(spec: ClusterSpec) -> str:
    """Render ``spec`` as a commented TOML config (for ``init``)."""
    blocks = []
    for node in spec.nodes:
        blocks.append(
            "[[node]]\n"
            f'name = "{node.name}"\n'
            f'host = "{node.host}"\n'
            f"port = {node.port}\n"
            f'site = "{node.site}"\n'
            f"store = {json.dumps(node.store)}\n"
            f"music = {json.dumps(node.music)}\n"
        )
    return TOML_SKELETON.format(
        name=spec.name,
        seed=spec.seed,
        epoch=spec.epoch,
        run_dir=spec.run_dir,
        nodes="\n".join(blocks),
    )
