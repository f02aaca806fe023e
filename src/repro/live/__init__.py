"""repro.live: the MUSIC stack on real asyncio sockets and wall clocks.

The protocol classes (:mod:`repro.core`, :mod:`repro.lockstore`,
:mod:`repro.store`, :mod:`repro.leases`) are written against two seams,
each a base class: a :class:`~repro.sim.Clock` and a
:class:`~repro.net.Transport`.  Under the DES their subclasses are
:class:`~repro.sim.Simulator` and :class:`~repro.net.Network`; here
they are :class:`LiveClock` (asyncio wall time) and
:class:`TcpTransport` (length-prefixed JSON over TCP, per-peer
connection pooling, reconnect with backoff), which inherit all but the
scheduling hooks and ``send`` from the same bases.  The same unmodified
protocol code runs in both worlds; the DES stays bit-identical and the
live mode gives real executions for the ECF auditor to verify.

Quick start::

    python -m repro.live localcluster --nodes 3 --ops 200

boots a three-node localhost cluster (one OS process per node), runs
an audited critical-section workload, SIGTERMs the nodes (graceful
drain), merges every node's audit slice and replays the Exclusivity /
Latest-State / FIFO checkers over the merged history.
"""

from .clock import LiveClock
from .codec import CodecError, FrameReader, decode, encode, encode_frame
from .config import ClusterSpec, load_cluster, localhost_spec, toml_skeleton
from .client import WorkloadResult, cs_workload, workload_metrics
from .harness import LocalCluster, replay_merged, run_localcluster
from .node import LiveProcess
from .transport import TcpTransport

__all__ = [
    "ClusterSpec",
    "CodecError",
    "FrameReader",
    "LiveClock",
    "LiveProcess",
    "LocalCluster",
    "TcpTransport",
    "WorkloadResult",
    "cs_workload",
    "decode",
    "encode",
    "encode_frame",
    "load_cluster",
    "localhost_spec",
    "replay_merged",
    "run_localcluster",
    "toml_skeleton",
    "workload_metrics",
]
