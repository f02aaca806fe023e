"""Elastic membership: gossip, live bootstrap/decommission, repair.

The control plane that grows and shrinks the store cluster under live
traffic (the paper's Fig. 4b scaling axis, made dynamic):

- :class:`Gossiper` — versioned endpoint-state gossip with phi-accrual
  suspicion, per store replica;
- :class:`TopologyManager` — pending-range transitions on the hash
  ring, quorum range streaming out of the storage engines, atomic
  per-partition handover (data *and* lock rows together), cleanup, and
  Merkle anti-entropy repair;
- :class:`MerkleTree` — the hash trees repair exchanges.

Enable with ``build_music(..., elastic=True)``; the default deployment
constructs none of this, keeping baseline timings untouched.
"""

from .gossip import STATUS_LEAVING, STATUS_NORMAL
from .merkle import MerkleTree, leaf_index, partition_hash
from .elastic import TopologyManager

__all__ = [
    "MerkleTree",
    "STATUS_LEAVING",
    "STATUS_NORMAL",
    "TopologyManager",
    "leaf_index",
    "partition_hash",
]
