"""The transaction layer's oracle: committed footprints and the
serializability check that replays them.

Every engine records one :class:`CommittedTxn` per commit, carrying the
*real store cell stamps* it read and installed, and one
:class:`SerializabilityChecker` verifies that any engine's history has a
valid serial order — the regimes are compared on checked histories, not
trust.  (The locking engine's other checked invariant, deadlock
freedom, is :class:`~repro.txn.locking.WaitsForGraph`, a subscriber of
the audit stream.)
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from ..verification.invariants import ViolationRecord

__all__ = ["CommittedTxn", "SerializabilityChecker", "Stamp", "find_cycle"]

Stamp = Tuple[float, str]


@dataclass(slots=True)
class CommittedTxn:
    """One committed transaction's footprint, as the txn engines record it.

    ``reads`` maps each read key to the *stamp* of the version observed
    (None for a never-written key); ``writes`` maps each written key to
    the stamp of the installed version.  Stamps are real store cell
    stamps — the same ``(scalar, writer)`` tokens the ECF checkers see —
    so the serializability check replays exactly what the store
    persisted, not an engine-private notion of version.
    """

    txn_id: str
    engine: str
    commit_seq: int
    reads: Dict[str, Optional[Stamp]] = field(default_factory=dict)
    writes: Dict[str, Stamp] = field(default_factory=dict)
    begin_seq: Optional[int] = None
    commit_ms: Optional[float] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "txn_id": self.txn_id,
            "engine": self.engine,
            "commit_seq": self.commit_seq,
            "reads": {k: (list(s) if s is not None else None)
                      for k, s in self.reads.items()},
            "writes": {k: list(s) for k, s in self.writes.items()},
            "begin_seq": self.begin_seq,
            "commit_ms": self.commit_ms,
        }


_INITIAL = "<initial>"


class SerializabilityChecker:
    """Replays committed transactions' read/write stamps and verifies
    there is a valid serial order (conflict serializability).

    The check is the textbook precedence-graph construction over the
    *stamped* version history:

    * per key, the committed writes ordered by stamp are the version
      chain (any read stamp below every write stamp is the pre-seeded
      initial version);
    * edges: wr (writer of version v → each reader of v), ww
      (consecutive writers in the chain), rw (reader of version v →
      writer of the version after v — the anti-dependency);
    * the history is serializable iff the graph is acyclic.  The serial
      order is then a topological sort biased toward commit order.

    Commit order alone is *not* required to be serial: SSI legally
    commits an rw-antidependent reader after the writer it precedes in
    the serial order.  The checker therefore reports (but does not fail
    on) a non-serial commit order, and fails only on a cycle, a read of
    a version that was never written (a phantom version), or a replay of
    the serial order that does not reproduce every read.
    """

    def __init__(self, name: str = "Serializability") -> None:
        self.name = name
        self.violations: List[ViolationRecord] = []
        self.serial_order: List[str] = []
        self.commit_order_serial: Optional[bool] = None

    # -- the check --------------------------------------------------------

    def check(self, txns: Sequence[CommittedTxn]) -> List[ViolationRecord]:
        """Run the full check; returns (and stores) the violations."""
        self.violations = []
        self.serial_order = []
        self.commit_order_serial = None
        txns = sorted(txns, key=lambda t: t.commit_seq)
        by_id = {t.txn_id: t for t in txns}
        if len(by_id) != len(txns):
            self._violate("duplicate txn_id in committed history", None)
            return self.violations

        # 1. Per-key version chains from the write stamps.
        chains: Dict[str, List[Tuple[Stamp, str]]] = {}
        for txn in txns:
            for key, stamp in txn.writes.items():
                chains.setdefault(key, []).append((stamp, txn.txn_id))
        for key, chain in chains.items():
            chain.sort()
            for (s1, t1), (s2, t2) in zip(chain, chain[1:]):
                if s1 == s2:
                    self._violate(
                        f"duplicate version stamp {s1} on {key!r} "
                        f"(txns {t1} and {t2})", key,
                    )

        # 2. Resolve each read to a version (writer txn_id or _INITIAL).
        reads_of: Dict[Tuple[str, str], str] = {}  # (txn, key) -> writer
        for txn in txns:
            for key, stamp in txn.reads.items():
                chain = chains.get(key, [])
                if stamp is None:
                    reads_of[(txn.txn_id, key)] = _INITIAL
                    continue
                writer = next((t for s, t in chain if s == stamp), None)
                if writer is not None:
                    reads_of[(txn.txn_id, key)] = writer
                elif not chain or stamp < chain[0][0]:
                    # Below every committed write: the pre-seeded value.
                    reads_of[(txn.txn_id, key)] = _INITIAL
                else:
                    self._violate(
                        f"txn {txn.txn_id} read {key!r} at stamp {stamp}, "
                        "which matches no committed write and is not the "
                        "initial version (phantom version)", key,
                    )
                    reads_of[(txn.txn_id, key)] = _INITIAL

        # 3. Precedence edges.
        edges: Dict[str, Dict[str, str]] = {t.txn_id: {} for t in txns}

        def add_edge(a: str, b: str, reason: str) -> None:
            if a != b and a in edges and b not in edges[a]:
                edges[a][b] = reason

        for key, chain in chains.items():
            order = [t for _s, t in chain]
            for t1, t2 in zip(order, order[1:]):
                add_edge(t1, t2, f"ww on {key!r}")
        for (reader, key), writer in reads_of.items():
            chain = chains.get(key, [])
            order = [t for _s, t in chain]
            if writer == _INITIAL:
                if order:
                    add_edge(reader, order[0], f"rw on {key!r}")
            else:
                add_edge(writer, reader, f"wr on {key!r}")
                index = order.index(writer)
                if index + 1 < len(order):
                    add_edge(reader, order[index + 1], f"rw on {key!r}")

        # 4. Cycle detection (iterative DFS).
        cycle = find_cycle(edges)
        if cycle is not None:
            labels = []
            for a, b in zip(cycle, cycle[1:]):
                labels.append(f"{a} -[{edges[a][b]}]-> {b}")
            self._violate(
                "committed history has no serial order; dependency cycle: "
                + "; ".join(labels),
                None,
                trace=[f"commit order: {' -> '.join(t.txn_id for t in txns)}"],
            )
            return self.violations

        # 5. Serial order: topological sort, commit order as tie-break.
        seq = {t.txn_id: t.commit_seq for t in txns}
        indeg = {t.txn_id: 0 for t in txns}
        for a in edges:
            for b in edges[a]:
                indeg[b] += 1
        ready = [(seq[t], t) for t in indeg if indeg[t] == 0]
        heapq.heapify(ready)
        order: List[str] = []
        while ready:
            _, t = heapq.heappop(ready)
            order.append(t)
            for b in edges[t]:
                indeg[b] -= 1
                if indeg[b] == 0:
                    heapq.heappush(ready, (seq[b], b))
        self.serial_order = order
        self.commit_order_serial = order == [t.txn_id for t in txns]

        # 6. Replay the serial order; every read must reproduce.
        latest: Dict[str, str] = {}
        for txn_id in order:
            txn = by_id[txn_id]
            for key in txn.reads:
                expected = latest.get(key, _INITIAL)
                observed = reads_of[(txn_id, key)]
                if observed != expected:
                    self._violate(
                        f"serial replay failed: txn {txn_id} read {key!r} "
                        f"from {observed} but the serial order says "
                        f"{expected}", key,
                    )
            for key in txn.writes:
                latest[key] = txn_id
        return self.violations

    @property
    def clean(self) -> bool:
        return not self.violations

    def render_report(self) -> str:
        lines = [
            f"serializability check: {len(self.violations)} violation(s)"
        ]
        if self.commit_order_serial is not None:
            lines.append(
                "  commit order is "
                + ("a valid serial order"
                   if self.commit_order_serial
                   else "NOT serial (a legal reordering exists)")
            )
        for record in self.violations[:10]:
            lines.append(record.render())
        return "\n".join(lines)

    # -- internals --------------------------------------------------------

    def _violate(
        self, detail: str, key: Optional[str],
        trace: Optional[List[str]] = None,
    ) -> None:
        self.violations.append(
            ViolationRecord(
                invariant=self.name, source="runtime", detail=detail,
                key=key, trace=trace or [],
            )
        )



def find_cycle(edges: Mapping[str, Iterable[str]]) -> Optional[List[str]]:
    """A cycle of the directed graph ``edges`` (node -> successors) as
    ``[n0, n1, ..., n0]``, or None if acyclic; nodes and successors are
    visited in iteration order.  A successor need not have out-edges."""
    WHITE, GREY, BLACK = 0, 1, 2
    color: Dict[str, int] = {}
    for start in edges:
        if color.get(start, WHITE) != WHITE:
            continue
        stack: List[Tuple[str, Iterator[str]]] = [(start, iter(edges[start]))]
        color[start] = GREY
        path = [start]
        while stack:
            node, children = stack[-1]
            advanced = False
            for child in children:
                state = color.get(child, WHITE)
                if state == GREY:
                    return path[path.index(child):] + [child]
                if state == WHITE:
                    color[child] = GREY
                    path.append(child)
                    stack.append((child, iter(edges.get(child, ()))))
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                path.pop()
                stack.pop()
    return None
