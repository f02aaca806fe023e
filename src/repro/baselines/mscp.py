"""MSCP: MUSIC with sequentially-consistent (LWT) critical puts.

Section VIII's lower-bound comparator: identical to MUSIC in every way
except that ``criticalPut`` performs a Cassandra light-weight
transaction (4 quorum round trips through per-partition Paxos) instead
of a plain quorum write (1 round trip).  The ~30% throughput/latency gap
between the two (Figs. 4, 5, 8, 9) *is* the paper's argument that ECF
can be provided without paying for consensus on every state update.
"""

from __future__ import annotations

from typing import Any, Generator

from ..core.deployment import MusicDeployment, build_music
from ..core.replica import DATA_TABLE, VALUE_ROW, MusicReplica
from ..store import Condition, Stamp
from ..store.types import Update

__all__ = ["MscpReplica", "build_mscp"]


class MscpReplica(MusicReplica):
    """A MUSIC replica whose critical puts are LWT writes."""

    def _put_value(self, key: str, value: Any, stamp: Stamp) -> Generator[Any, Any, Any]:
        """criticalPut's store write via LWT [cost: value consensus
        write].  Exclusivity already comes from the lock; the LWT is
        used purely as a sequentially-consistent write."""
        return self.coordinator.cas(
            DATA_TABLE, key, Condition("always"),
            [Update(DATA_TABLE, key, VALUE_ROW, {"value": value}, stamp)],
        )


def build_mscp(**kwargs) -> MusicDeployment:
    """A deployment identical to build_music but with MSCP replicas."""
    return build_music(replica_class=MscpReplica, **kwargs)
