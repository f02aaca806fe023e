"""Consistent-hash ring with site-aware replica placement.

The paper's deployments keep "one copy of each key-value pair on each
site" while sharding partitions across the nodes within a site as the
cluster grows from 3 to 9 nodes (Fig. 4b).  ``HashRing`` reproduces
that: tokens are derived from node ids via virtual nodes, and replica
selection walks the ring taking the first node encountered in each site
until the replication factor is met — Cassandra's
NetworkTopologyStrategy with one replica per datacenter.

Topology *changes* go through a :class:`RingTransition` (Cassandra's
pending ranges, simplified to whole partitions).  While a transition is
open:

- unmoved partitions keep resolving on the **pre-change** token
  snapshot, so reads/writes stay on the replicas that actually hold the
  data;
- :meth:`pending_owners` names the nodes that will gain an unmoved
  partition under the new layout — coordinators dual-write to them and
  count their acks toward the write's required replies (Cassandra's
  blockFor + pending endpoints), so no acknowledged write can be missing
  from the post-flip owner set;
- :meth:`mark_moved` flips one partition to the new layout atomically
  (the elasticity controller calls it in the same event-loop step that
  receives the handover ack).

``end_transition`` drops the overlay once every affected partition has
been streamed and flipped.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Optional, Sequence, Set, Tuple

__all__ = ["HashRing", "RingTransition"]


def _hash64(data: str) -> int:
    return int.from_bytes(hashlib.md5(data.encode()).digest()[:8], "big")


class RingTransition:
    """A frozen pre-change placement plus the set of flipped partitions."""

    __slots__ = ("tokens", "token_values", "sites", "moved")

    def __init__(
        self,
        tokens: List[Tuple[int, str]],
        token_values: List[int],
        sites: Dict[str, str],
    ) -> None:
        self.tokens = tokens
        self.token_values = token_values
        self.sites = sites
        self.moved: Set[str] = set()  # partition keys now on the new layout


class HashRing:
    """Maps partition keys to replica lists, one replica per site."""

    def __init__(self, vnodes: int = 16) -> None:
        self.vnodes = vnodes
        self._sites: Dict[str, str] = {}  # node_id -> site
        self._tokens: List[Tuple[int, str]] = []  # sorted (token, node_id)
        self._token_values: List[int] = []
        self._transition: Optional[RingTransition] = None
        # (partition_key, factor) -> placement, valid while the token
        # table is stable and no transition is open.  Placement is on
        # every read/write path, and the md5 + ring walk dominates it;
        # membership changes are rare, so lookups amortise to a dict hit.
        self._placement_cache: Dict[Tuple[str, int], Tuple[str, ...]] = {}

    def add_node(self, node_id: str, site: str) -> None:
        if node_id in self._sites:
            raise ValueError(f"node {node_id!r} already on the ring")
        self._placement_cache.clear()
        self._sites[node_id] = site
        for vnode in range(self.vnodes):
            entry = (_hash64(f"{node_id}#{vnode}"), node_id)
            # O(log n) search + insert per token instead of re-sorting
            # the whole list on every join; (token, node_id) tuples are
            # unique, so this lands exactly where a full sort would.
            position = bisect.bisect_left(self._tokens, entry)
            self._tokens.insert(position, entry)
            self._token_values.insert(position, entry[0])

    def remove_node(self, node_id: str) -> None:
        if node_id not in self._sites:
            raise KeyError(node_id)
        self._placement_cache.clear()
        del self._sites[node_id]
        self._tokens = [(token, owner) for token, owner in self._tokens if owner != node_id]
        self._token_values = [token for token, _ in self._tokens]

    @property
    def nodes(self) -> List[str]:
        return list(self._sites)

    @property
    def sites(self) -> List[str]:
        return sorted(set(self._sites.values()))

    def site_of(self, node_id: str) -> str:
        return self._sites[node_id]

    # -- transitions (pending ranges) -----------------------------------------

    @property
    def transition(self) -> Optional[RingTransition]:
        return self._transition

    @property
    def in_transition(self) -> bool:
        return self._transition is not None

    def begin_transition(self) -> RingTransition:
        """Snapshot the current placement before add/remove_node calls.

        Until :meth:`end_transition`, partitions not yet
        :meth:`mark_moved` keep resolving on this snapshot.
        """
        if self._transition is not None:
            raise RuntimeError("a ring transition is already open")
        self._transition = RingTransition(
            list(self._tokens), list(self._token_values), dict(self._sites)
        )
        return self._transition

    def mark_moved(self, partition_key: str) -> None:
        """Flip one partition to the post-change layout."""
        if self._transition is None:
            raise RuntimeError("no ring transition is open")
        self._transition.moved.add(partition_key)

    def end_transition(self) -> None:
        if self._transition is None:
            raise RuntimeError("no ring transition is open")
        self._transition = None

    def pending_owners(
        self, partition_key: str, replication_factor: int = 0
    ) -> Sequence[str]:
        """Nodes that will own ``partition_key`` after the transition but
        do not own it yet (empty outside a transition / once moved)."""
        transition = self._transition
        if transition is None or partition_key in transition.moved:
            return ()
        old = self._walk(
            transition.tokens, transition.token_values, transition.sites,
            partition_key, replication_factor,
        )
        new = self._walk(
            self._tokens, self._token_values, self._sites,
            partition_key, replication_factor,
        )
        return [node_id for node_id in new if node_id not in old]

    def pre_transition_owners(
        self, partition_key: str, replication_factor: int = 0
    ) -> Tuple[str, ...]:
        """Placement on the frozen pre-change snapshot (requires an open
        transition); the set that currently holds an unmoved partition."""
        transition = self._transition
        if transition is None:
            raise RuntimeError("no ring transition is open")
        return self._walk(
            transition.tokens, transition.token_values, transition.sites,
            partition_key, replication_factor,
        )

    def post_transition_owners(
        self, partition_key: str, replication_factor: int = 0
    ) -> Tuple[str, ...]:
        """Placement on the live token table — the layout every
        partition lands on once the transition ends."""
        return self._walk(
            self._tokens, self._token_values, self._sites,
            partition_key, replication_factor,
        )

    # -- placement -------------------------------------------------------------

    def replicas_for(self, partition_key: str, replication_factor: int = 0) -> Tuple[str, ...]:
        """Replica node ids for a partition, first-walked order.

        With the default replication factor (number of sites), the tuple
        holds exactly one node per site.  Raises if the ring cannot
        satisfy the requested factor with distinct sites.  During a
        transition, partitions that have not been handed over yet
        resolve on the pre-change snapshot.
        """
        transition = self._transition
        if transition is not None:
            if partition_key not in transition.moved:
                return self._walk(
                    transition.tokens, transition.token_values, transition.sites,
                    partition_key, replication_factor,
                )
            return self._walk(
                self._tokens, self._token_values, self._sites,
                partition_key, replication_factor,
            )
        cache_key = (partition_key, replication_factor)
        cached = self._placement_cache.get(cache_key)
        if cached is None:
            cached = self._placement_cache[cache_key] = self._walk(
                self._tokens, self._token_values, self._sites,
                partition_key, replication_factor,
            )
        return cached

    @staticmethod
    def _walk(
        tokens: List[Tuple[int, str]],
        token_values: List[int],
        sites: Dict[str, str],
        partition_key: str,
        replication_factor: int,
    ) -> Tuple[str, ...]:
        if not tokens:
            raise ValueError("ring is empty")
        site_count = len(set(sites.values()))
        factor = replication_factor or site_count
        if factor > site_count:
            raise ValueError(
                f"replication factor {factor} exceeds site count {site_count}"
            )
        start = bisect.bisect_right(token_values, _hash64(partition_key))
        replicas: List[str] = []
        seen_sites: set = set()
        count = len(tokens)
        for step in range(count):
            _token, node_id = tokens[(start + step) % count]
            site = sites[node_id]
            if site in seen_sites or node_id in replicas:
                continue
            replicas.append(node_id)
            seen_sites.add(site)
            if len(replicas) == factor:
                return tuple(replicas)
        raise ValueError(f"could not place {factor} replicas across sites")

    def is_replica(self, node_id: str, partition_key: str, replication_factor: int = 0) -> bool:
        return node_id in self.replicas_for(partition_key, replication_factor)
