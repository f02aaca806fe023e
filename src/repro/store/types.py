"""Data model of the replicated store.

The store speaks a narrow subset of Cassandra's model, which is all the
paper needs (Fig. 2):

- A **table** holds **partitions** addressed by a partition key.
- A partition holds **rows** addressed by a clustering key (``None`` for
  single-row partitions such as the data table).
- A row holds named **cells**; each cell carries the writer-supplied
  scalar timestamp, and conflicts resolve last-write-wins per cell.
- Row deletes write a **tombstone** timestamp hiding older cells.

Timestamps are ``(ts, writer)`` pairs: the scalar part is supplied by
the writer (this is where MUSIC's v2s(lockRef, time) mapping plugs in),
and the writer id breaks exact ties deterministically, as Cassandra
breaks timestamp ties by value comparison.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional, Tuple

__all__ = [
    "Stamp",
    "Cell",
    "Row",
    "Partition",
    "Update",
    "DeleteRow",
    "Mutation",
    "Condition",
    "Ballot",
    "Consistency",
    "digest64",
    "payload_size",
]

# A write stamp: (scalar timestamp, writer id).  Compared lexicographically.
Stamp = Tuple[float, str]


@dataclass(slots=True)
class Cell:
    """One column value with its write stamp.

    ``op_id`` identifies the logical operation that wrote the cell (set
    by the LWT coordinator); it lets a coordinator recognise that its
    own partially-accepted proposal was completed by someone else even
    after retries re-stamped the mutation.

    Cells are treated as immutable: a newer write *replaces* the Cell
    object in the row dict (see :meth:`Row.apply_cell`), which is what
    lets :meth:`Row.copy` share Cell objects between snapshots.
    """

    value: Any
    stamp: Stamp
    op_id: str = ""


@dataclass(slots=True)
class Row:
    """A row: cells by column name, plus a tombstone stamp if deleted.

    A cell is *visible* only if its stamp is newer than the tombstone;
    a newer write resurrects the row, matching Cassandra semantics (and
    making lock-queue deletes safe because lockRefs are never reused).

    A row held by a storage engine is *frozen*: the engine replaces it
    with a modified :meth:`copy` on every write and hands the stored
    object itself to read replies, so whoever holds one — a reader, a
    peer's anti-entropy batch, the commit log — holds a snapshot that
    can never change.  The mutators raise on a frozen row; ``copy()``
    is how a holder gets a row of its own.
    """

    cells: Dict[str, Cell] = field(default_factory=dict)
    tombstone: Optional[Stamp] = None
    # Cached payload_bytes() result; -1 = dirty.  Rows are sized on every
    # read reply and streaming batch, but mutated only through apply_cell
    # and delete, which invalidate the cache.
    _pb: int = field(default=-1, init=False, repr=False, compare=False)
    # A frozen row's (clustering, digest()), computed on the first
    # anti-entropy round that hashes it: the row can no longer change.
    _digest: Optional[Tuple[Any, int]] = field(default=None, init=False, repr=False, compare=False)
    _frozen: bool = field(default=False, init=False, repr=False, compare=False)

    def freeze(self) -> "Row":
        """Make the mutators raise from now on (there is no thaw)."""
        self._frozen = True
        return self

    def apply_cell(self, column: str, value: Any, stamp: Stamp, op_id: str = "") -> bool:
        """Last-write-wins merge of one cell; True if the write took effect.

        Exact stamp ties break by value comparison (as Cassandra breaks
        equal-timestamp writes by comparing the serialized values), so
        the merge stays commutative for any pair of writes.
        """
        if self._frozen:
            raise TypeError("a stored row is immutable: copy() it first")
        existing = self.cells.get(column)
        if existing is not None and _survives(existing, stamp, value):
            return False
        self.cells[column] = Cell(value, stamp, op_id)
        self._pb = -1
        return True

    def delete(self, stamp: Stamp) -> None:
        if self._frozen:
            raise TypeError("a stored row is immutable: copy() it first")
        if self.tombstone is None or stamp > self.tombstone:
            self.tombstone = stamp
            self._pb = -1

    def visible_cells(self) -> Dict[str, Cell]:
        """Cells newer than the tombstone.  With no tombstone this is
        the row's own cell dict (callers must treat it as read-only)."""
        tombstone = self.tombstone
        if tombstone is None:
            return self.cells
        return {
            name: cell for name, cell in self.cells.items() if cell.stamp > tombstone
        }

    def visible_values(self) -> Dict[str, Any]:
        tombstone = self.tombstone
        if tombstone is None:
            return {name: cell.value for name, cell in self.cells.items()}
        return {
            name: cell.value
            for name, cell in self.cells.items()
            if cell.stamp > tombstone
        }

    def visible_cell(self, column: str) -> Optional[Cell]:
        """The visible cell of one column, without building a dict."""
        cell = self.cells.get(column)
        if cell is None:
            return None
        tombstone = self.tombstone
        if tombstone is not None and not cell.stamp > tombstone:
            return None
        return cell

    def cell_stamp(self, column: str) -> Optional[Stamp]:
        """The visible stamp of one column (None if absent/deleted) —
        the v2s staleness evidence the read-lease layer keys on."""
        cell = self.visible_cell(column)
        return None if cell is None else cell.stamp

    @property
    def live(self) -> bool:
        tombstone = self.tombstone
        if tombstone is None:
            return bool(self.cells)
        for cell in self.cells.values():
            if cell.stamp > tombstone:
                return True
        return False

    def payload_bytes(self) -> int:
        """Wire size of the visible values, without building a dict.

        Equivalent to ``payload_size(self.visible_values())``.
        """
        total = self._pb
        if total >= 0:
            return total
        tombstone = self.tombstone
        total = 8
        for name, cell in self.cells.items():
            if tombstone is None or cell.stamp > tombstone:
                total += payload_size(name) + payload_size(cell.value)
        self._pb = total
        return total

    def digest(self, clustering: Any) -> int:
        """A 64-bit digest of the row's full LWW state under its
        clustering key — every cell with its value, stamp and op id, and
        the tombstone — equal in every process, and cached once the row
        is frozen (a stored row sits under one key)."""
        cached = self._digest
        if cached is not None and cached[0] == clustering:
            return cached[1]
        cells = tuple(
            (column, repr(cell.value), cell.stamp, cell.op_id)
            for column, cell in sorted(self.cells.items())
        )
        digest = digest64(repr((clustering, self.tombstone, cells)))
        if self._frozen:
            self._digest = (clustering, digest)
        return digest

    def merge_from(self, other: "Row") -> None:
        """Fold another replica's view of this row into ours (anti-entropy)."""
        if other.tombstone is not None:
            self.delete(other.tombstone)
        for column, cell in other.cells.items():
            self.apply_cell(column, cell.value, cell.stamp, cell.op_id)

    def merged(self, other: "Row") -> "Row":
        """The merge of two views of one row, changing neither.

        Returns ``self`` when ``other`` adds nothing to it — replicas in
        sync, the usual case — and an unfrozen merged copy otherwise.
        """
        tombstone = other.tombstone
        if tombstone is None or (
            self.tombstone is not None and self.tombstone >= tombstone
        ):
            cells = self.cells
            for column, cell in other.cells.items():
                mine = cells.get(column)
                if mine is None or not _survives(mine, cell.stamp, cell.value):
                    break
            else:
                return self
        row = self.copy()
        row.merge_from(other)
        return row

    def copy(self) -> "Row":
        """An unfrozen row with the same content."""
        # Shallow: Cell objects are replaced on write, never mutated in
        # place, so snapshots can share them; only the dict is copied.
        row = Row(cells=dict(self.cells), tombstone=self.tombstone)
        row._pb = self._pb
        return row


def _survives(cell: Cell, stamp: Stamp, value: Any) -> bool:
    """Last-write-wins: does the stored ``cell`` survive a write of
    ``value`` at ``stamp``?"""
    mine = cell.stamp
    # A value ties with itself (in-sync replicas of one simulator hold
    # the same object), so only distinct values are rendered to compare.
    return mine > stamp or (
        mine == stamp and (cell.value is value or repr(cell.value) >= repr(value))
    )


# A partition: rows by clustering key.  Clustering keys must be mutually
# comparable within a partition (the lock table uses integer lockRefs).
Partition = Dict[Any, Row]


@dataclass(slots=True)
class Update:
    """Upsert of some cells in one row."""

    # Its commit-log record kind (repro.storage.wal).
    wal_kind: ClassVar[str] = "update"

    table: str
    partition: str
    clustering: Any
    columns: Dict[str, Any]
    stamp: Stamp
    op_id: str = ""
    # Wire size, computed once on first use (updates are sized several
    # times along the write path: coordinator fan-out, WAL journal,
    # memtable accounting).  Columns are not mutated after construction.
    _size: int = field(default=-1, init=False, repr=False, compare=False)

    def size_bytes(self) -> int:
        size = self._size
        if size < 0:
            size = 32
            for value in self.columns.values():
                size += payload_size(value)
            self._size = size
        return size

    def restamped(self, stamp: Stamp, op_id: str) -> "Update":
        """This write under another stamp and operation id — what
        ``dataclasses.replace`` makes, minus its introspection."""
        return Update(
            self.table, self.partition, self.clustering, self.columns, stamp, op_id
        )


@dataclass(slots=True)
class DeleteRow:
    """Row-level delete (tombstone)."""

    wal_kind: ClassVar[str] = "delete"

    table: str
    partition: str
    clustering: Any
    stamp: Stamp
    op_id: str = ""

    def size_bytes(self) -> int:
        return 32

    def restamped(self, stamp: Stamp, op_id: str) -> "DeleteRow":
        """This delete under another stamp and operation id."""
        return DeleteRow(self.table, self.partition, self.clustering, stamp, op_id)


# An atomic batch of writes within one (table, partition) — the unit a
# light-weight transaction commits.
Mutation = List[Any]  # list of Update | DeleteRow


@dataclass(frozen=True)
class Condition:
    """The IF-clause of a compare-and-set, evaluated on merged quorum state.

    kinds:
      ``always``      unconditional (still serialized through Paxos)
      ``not_exists``  row at ``clustering`` must not be live
      ``exists``      row at ``clustering`` must be live
      ``col_eq``      ``column`` of the row equals ``expected`` (a missing
                      row or column compares equal to ``None``)
    """

    kind: str
    clustering: Any = None
    column: Optional[str] = None
    expected: Any = None

    def evaluate(self, partition: Partition) -> bool:
        if self.kind == "always":
            return True
        row = partition.get(self.clustering)
        live = row is not None and row.live
        if self.kind == "not_exists":
            return not live
        if self.kind == "exists":
            return live
        if self.kind == "col_eq":
            current = None
            if live:
                cell = row.visible_cell(self.column)
                current = cell.value if cell is not None else None
            return current == self.expected
        raise ValueError(f"unknown condition kind {self.kind!r}")


# Paxos ballot: (round number, proposer id); lexicographic order.
Ballot = Tuple[int, str]


class Consistency:
    """Consistency levels for reads and writes (Cassandra-style)."""

    ONE = "ONE"
    LOCAL_ONE = "LOCAL_ONE"  # nearest replica in the caller's site
    QUORUM = "QUORUM"
    ALL = "ALL"


def digest64(text: str) -> int:
    """The first 8 bytes of ``text``'s MD5: a 64-bit digest that, unlike
    the built-in ``hash()`` of a string, no ``PYTHONHASHSEED`` salts."""
    return int.from_bytes(hashlib.md5(text.encode()).digest()[:8], "big")


def payload_size(value: Any) -> int:
    """Rough wire size of a value, for transmission/CPU cost modelling.

    Objects exposing a ``payload_size()`` method (e.g. the workload
    generator's SizedValue) declare their own modelled size.  Exact-type
    dispatch first: the overwhelmingly common cases (str keys, numeric
    values, small dicts) resolve without an attribute probe.
    """
    kind = type(value)
    if kind is str or kind is bytes or kind is bytearray:
        return len(value)
    if kind is int or kind is float:
        return 8
    if value is None or kind is bool:
        return 1
    if kind is dict:
        return sum(payload_size(k) + payload_size(v) for k, v in value.items()) + 8
    if kind is list or kind is tuple:
        return sum(payload_size(item) for item in value) + 8
    sized = getattr(value, "payload_size", None)
    if sized is not None:
        return sized()
    if isinstance(value, bool):
        return 1
    if isinstance(value, (bytes, bytearray, str)):
        return len(value)
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, dict):
        return sum(payload_size(k) + payload_size(v) for k, v in value.items()) + 8
    if isinstance(value, (list, tuple)):
        return sum(payload_size(item) for item in value) + 8
    return 64
