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
from ..store import Condition
from ..store.types import Update

__all__ = ["MscpReplica", "build_mscp"]


class MscpReplica(MusicReplica):
    """A MUSIC replica whose critical puts are LWT writes."""

    def critical_put(self, key: str, lock_ref: int, value: Any) -> Generator[Any, Any, bool]:
        """criticalPut via LWT [cost: value consensus write]."""
        started = self.sim.now
        proceed = yield from self._guard(key, lock_ref)
        if not proceed:
            return False
        offset = yield from self._lease_offset(key, lock_ref)
        yield from self.coordinator.cas(
            DATA_TABLE,
            key,
            # Exclusivity already comes from the lock; the LWT is used
            # purely as a sequentially-consistent write.
            Condition("always"),
            [Update(DATA_TABLE, key, VALUE_ROW, {"value": value},
                    self._stamp(lock_ref, offset))],
        )
        self._record("criticalPut", started)
        return True


def build_mscp(**kwargs) -> MusicDeployment:
    """A deployment identical to build_music but with MSCP replicas."""
    return build_music(replica_class=MscpReplica, **kwargs)
