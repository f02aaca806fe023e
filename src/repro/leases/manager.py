"""The local-serve mirror and the lease windows it may serve under.

A replica answers a ``critical_get`` without a quorum read only from its
:class:`Mirror`: per key, the section it may answer for, the value, and
the evidence that the value is still the true one (DESIGN.md §8) — a
**lease window** anchored at the local-clock time a quorum read started
that saw no revocation of the holder's era (the synchFlag stamp below
``(lockRef + δ)·T``), or the **hand-off**, until the section's first
write.

Window safety rests on quorum intersection plus the forcedRelease
wait-out (see ``MusicReplica.forced_release``): the preemptor's quorum
flag write acknowledges *before* it sleeps ``read_lease_ms + 2·skew``
and only then dequeues the holder.  A read that started after the ack
sees the revocation stamp (R+W > N) and does not anchor; one that
started before anchored a window that expires before the dequeue.
Clock offsets cancel out of durations; the ``2·skew`` margin absorbs
drift.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

__all__ = ["NULL_LEASES", "LeaseManager", "Mirror"]

Stamp = Tuple[float, str]

# Margin absorbing local-clock drift over one lease window (clock
# offsets cancel out of durations; drift does not).
CLOCK_SKEW_BOUND_MS = 5.0

# The expiry of an entry without a lease window, and its value while
# it has none.
NO_WINDOW = float("-inf")
NO_VALUE = object()


class MirrorEntry:
    """A key's entry: the section's lockRef, its value, and the evidence —
    a lease window (``expires_ms``) and the hand-off's ``source``:
    ``"grant"`` (the value is the grant's read), ``"row"`` (the guard
    read's hand-off row) or None."""

    __slots__ = ("lock_ref", "expires_ms", "source", "value", "value_stamp")

    def __init__(self, lock_ref: int) -> None:
        self.lock_ref = lock_ref
        self.expires_ms = NO_WINDOW
        self.source: Optional[str] = None
        self.value: Any = NO_VALUE
        self.value_stamp: Optional[Stamp] = None


class Mirror:
    """A replica's entries, one per key: a new lockRef's replaces the old
    one whole.  ``leases`` opens and checks the windows (or is
    :data:`NULL_LEASES`)."""

    def __init__(self, leases: Any) -> None:
        self.leases = leases
        self._entries: Dict[str, MirrorEntry] = {}

    def _entry(self, key: str, lock_ref: int) -> MirrorEntry:
        entry = self._entries.get(key)
        if entry is None or entry.lock_ref != lock_ref:
            entry = self._entries[key] = MirrorEntry(lock_ref)
        return entry

    def granted(self, key: str, lock_ref: int, kept: Optional[Tuple[Any, Any]],
                synced: bool) -> None:
        """``lock_ref`` was granted here: unless synchronized, its gets may
        serve the hand-off — ``kept``, its grant read's ``(value,
        stamp)``, or with no read (a fast grant) the hand-off row."""
        if synced:
            return
        entry = self._entry(key, lock_ref)
        entry.source = "row" if kept is None else "grant"
        if kept is not None:
            entry.value, entry.value_stamp = kept

    def anchor(self, key: str, lock_ref: int, anchor_ms: Optional[float],
               flag_stamp: Optional[Stamp]) -> bool:
        """Open or extend ``lock_ref``'s window at a quorum read that
        started at local time ``anchor_ms`` and saw ``flag_stamp``;
        whether it did."""
        if anchor_ms is None:
            return False
        expires = self.leases.window(lock_ref, anchor_ms, flag_stamp)
        if expires is None:
            return False
        entry = self._entry(key, lock_ref)
        if expires > entry.expires_ms:
            entry.expires_ms = expires
        return True

    def fill(self, key: str, lock_ref: int, value: Any, stamp: Optional[Stamp]) -> None:
        """Write-through of the section's write or anchoring read: the
        newest value is mirrored, and the hand-off ends."""
        entry = self._entries.get(key)
        if entry is None or entry.lock_ref != lock_ref:
            return
        entry.source = None
        if entry.value_stamp is None or stamp is None or stamp > entry.value_stamp:
            entry.value, entry.value_stamp = value, stamp

    def drop(self, key: str, lock_ref: int, only: bool = False) -> None:
        """Revoke ``key``'s entry if its section is at or below ``lock_ref``
        (released, forcibly released or dead), or with ``only`` if it is
        ``lock_ref``'s."""
        entry = self._entries.get(key)
        if entry is not None and (
            entry.lock_ref == lock_ref or not only and entry.lock_ref < lock_ref
        ):
            del self._entries[key]

    def serve(self, key: str, lock_ref: int, min_stamp: Optional[Stamp], clock: Any,
              forced: Optional[int], handoff: Any) -> Optional[Tuple[str, Any, Any]]:
        """``(evidence, value, stamp)`` answering ``lock_ref``'s criticalGet,
        or None.  ``min_stamp`` is the session watermark (None: the
        section wrote nothing); ``forced`` and ``handoff`` are what its
        guard read showed.  Under an open window (``"lease"``) the value
        must be no older than the watermark; the hand-off (``"grant"``
        or ``"row"``) serves a section that wrote nothing.  Reads
        ``clock`` (stateful) only for a windowed entry with such a value."""
        entry = self._entries.get(key)
        if entry is None or entry.lock_ref != lock_ref:
            return None
        if entry.value is not NO_VALUE and entry.expires_ms > NO_WINDOW and (
            min_stamp is None or (entry.value_stamp is not None and entry.value_stamp >= min_stamp)
        ) and self.leases.window_open(entry, clock.now()):
            return "lease", entry.value, entry.value_stamp
        if entry.source is None or min_stamp is not None:
            return None
        if entry.source == "grant":
            return "grant", entry.value, entry.value_stamp
        kept = self.handed_row(lock_ref, forced, handoff)
        return None if kept is None else ("row", *kept)

    @staticmethod
    def handed_row(lock_ref: int, forced: Optional[int], handoff: Any) -> Optional[Tuple]:
        """The ``(value, stamp)`` of a hand-off row ``lock_ref`` may serve,
        and that lets its grant skip the flag read: it names ``lock_ref -
        1`` and no forced dequeue at or above that ref shows (DESIGN.md
        §8, rules (b) and (c))."""
        if handoff is None:
            return None
        released, kept = handoff
        if released != lock_ref - 1 or (forced is not None and forced >= released):
            return None
        return kept


class LeaseManager:
    """The lease tier: when a window opens, how long it lasts, and the
    forcedRelease wait-out that bounds it."""

    def __init__(self, read_lease_ms: float, period_ms: float, delta: float) -> None:
        self.read_lease_ms = read_lease_ms
        self.period_ms = period_ms
        self.delta = delta
        # The ECF-window wait-out (DESIGN.md §8): how long forcedRelease
        # sleeps between its quorum flag write acking and the dequeue,
        # so every window anchored before the ack has expired by the
        # time a successor can be granted.
        self.wait_out_ms = read_lease_ms + 2.0 * CLOCK_SKEW_BOUND_MS

    def anchor_at(self, clock: Any, started: float) -> float:
        """Where a window opens for a quorum read that started at
        simulated time ``started``: its local time then, never later."""
        return clock.at(started)

    def window(self, lock_ref: int, anchor_ms: float,
               flag_stamp: Optional[Stamp]) -> Optional[float]:
        """The expiry of a window anchored at ``anchor_ms``, or None if the
        read's synchFlag stamp shows ``lock_ref``'s era revoked (every
        forcedRelease of it or a successor stamps ``(lock_ref + δ)·T``
        or above)."""
        revoked_from = (lock_ref + self.delta) * self.period_ms
        if flag_stamp is not None and flag_stamp[0] >= revoked_from:
            return None
        return anchor_ms + self.read_lease_ms

    def window_open(self, entry: MirrorEntry, now_clock_ms: float) -> bool:
        """Conservative expiry check: the window must outlast ``now``
        plus the drift margin for a local serve to be safe."""
        return now_clock_ms + CLOCK_SKEW_BOUND_MS < entry.expires_ms


class _LeasesOff:
    """The read-lease tier off: stands in for the lease manager *and* the
    read cache (the ``NULL_AUDIT`` pattern).  It opens no window and
    holds nothing, and reads no clock (``NodeClock.now`` is stateful)."""

    wait_out_ms = 0.0

    def anchor_at(self, clock: Any, started: float) -> None:
        return None

    def fill(self, *args: Any) -> None:
        return None


NULL_LEASES = _LeasesOff()
