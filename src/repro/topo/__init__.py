"""Elastic membership: gossip, live bootstrap/decommission, repair.

The control plane that grows and shrinks the store cluster under live
traffic (the paper's Fig. 4b scaling axis, made dynamic):

- :class:`Gossiper` — versioned endpoint-state gossip with phi-accrual
  suspicion, per store replica;
- :class:`TopologyManager` — pending-range transitions on the hash
  ring, quorum range streaming out of the storage engines, atomic
  per-partition handover (data *and* lock rows together), cleanup, and
  on-demand repair: ``repair_pair`` runs the store's own Merkle
  anti-entropy round (:meth:`repro.store.StorageReplica.repair`)
  between two replicas.

Enable with ``build_music(..., elastic=True)``; the default deployment
constructs none of this, keeping baseline timings untouched.
"""

from .gossip import STATUS_LEAVING, STATUS_NORMAL
from .elastic import TopologyManager

__all__ = [
    "STATUS_LEAVING",
    "STATUS_NORMAL",
    "TopologyManager",
]
