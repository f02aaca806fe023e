"""Leaseholder read leases: local critical reads inside the ECF window.

A lease is evidence that this replica's lockholder view is still the
consensus view.  It is *anchored* at the local-clock time a quorum read
started when that read (a) intersected the key's synchFlag row and
(b) observed no revocation stamp at or above the holder's own lockRef —
i.e. no ``forcedRelease`` of this era had yet acknowledged.  For
``read_lease_ms`` after the anchor the replica may answer
``critical_get`` from a local write-through mirror without touching the
quorum.

Safety rests on quorum intersection plus the forcedRelease wait-out
(see ``MusicReplica.forced_release``): the preemptor's quorum flag write
acknowledges *before* it sleeps ``read_lease_ms + 2·skew`` and only then
dequeues the holder.  Any anchoring read that started after the ack must
observe the revocation stamp (R+W > N) and refuses to anchor; any read
that started before the ack anchored a window that expires before the
dequeue — so no lease window ever overlaps the next holder's grant.
Clock offsets cancel out of durations on the offset-skew model; the
``2·skew`` margin absorbs drift.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Tuple

__all__ = ["NULL_LEASES", "LeaseManager", "LeaseView"]

Stamp = Tuple[float, str]

# Margin absorbing local-clock drift over one lease window (clock
# offsets cancel out of durations; drift does not).
CLOCK_SKEW_BOUND_MS = 5.0


class LeaseView:
    """One key's lease at one replica: window plus write-through mirror."""

    __slots__ = ("lock_ref", "anchor_ms", "expires_ms", "value", "value_stamp",
                 "has_value")

    def __init__(self, lock_ref: int) -> None:
        self.lock_ref = lock_ref
        self.anchor_ms = float("-inf")
        self.expires_ms = float("-inf")
        self.value: Any = None
        self.value_stamp: Optional[Stamp] = None
        self.has_value = False


class LeaseManager:
    """Per-replica lease state for leaseholder local reads.

    One lease per key (the holder this replica granted or last anchored
    for); a new lockRef anchoring the key replaces the old lease whole.
    """

    def __init__(self, read_lease_ms: float, period_ms: float, delta: float) -> None:
        self.read_lease_ms = read_lease_ms
        self.period_ms = period_ms
        self.delta = delta
        # The ECF-window wait-out (DESIGN.md §8): how long forcedRelease
        # sleeps between its quorum flag write acking and the dequeue.
        # From the ack on no read can anchor a fresh lease for the
        # preempted era (quorum intersection shows it the revocation
        # stamp), so sleeping the full window plus the drift margin
        # guarantees every lease anchored *before* the ack has expired
        # by the time a successor can be granted — local lease reads
        # never outlive the ECF window even under false failure
        # detection.
        self.wait_out_ms = read_lease_ms + 2.0 * CLOCK_SKEW_BOUND_MS
        self._leases: Dict[str, LeaseView] = {}

    # -- anchoring --------------------------------------------------------

    def anchor_start(self, clock: Any) -> float:
        """The local-clock time an anchoring quorum read *starts*: a
        lease window opens there, not when the read returns."""
        return clock.now()

    def anchor(self, key: str, lock_ref: int, anchor_clock_ms: float,
               flag_stamp: Optional[Stamp]) -> bool:
        """(Re-)anchor the key's lease at a read-start local-clock time
        if the read's synchFlag stamp proves no revocation of
        ``lock_ref``'s era has acknowledged (every forcedRelease of it
        or a successor stamps the flag at >= ``(lock_ref + δ)·T``).
        Returns whether it anchored."""
        revoked_from = (lock_ref + self.delta) * self.period_ms
        if flag_stamp is not None and flag_stamp[0] >= revoked_from:
            return False
        view = self._leases.get(key)
        if view is None or view.lock_ref != lock_ref:
            view = self._leases[key] = LeaseView(lock_ref)
        if anchor_clock_ms > view.anchor_ms:
            view.anchor_ms = anchor_clock_ms
            view.expires_ms = anchor_clock_ms + self.read_lease_ms
        return True

    def fill(self, key: str, lock_ref: int, value: Any,
             stamp: Optional[Stamp]) -> None:
        """Write-through: update the holder's local mirror (never extends
        the window — only anchoring quorum reads do that)."""
        view = self._leases.get(key)
        if view is None or view.lock_ref != lock_ref:
            return
        if view.value_stamp is None or stamp is None or stamp > view.value_stamp:
            view.value = value
            view.value_stamp = stamp
            view.has_value = True

    # -- serving ----------------------------------------------------------

    def serve(self, key: str, lock_ref: int, min_stamp: Optional[Stamp],
              clock: Any) -> Optional[LeaseView]:
        """The view that may answer ``lock_ref``'s criticalGet locally,
        or None: a mirrored value no older than the session watermark
        ``min_stamp``, in a window that outlasts now plus clock skew.
        Reads ``clock`` (stateful) only for a view with such a value."""
        view = self._leases.get(key)
        if view is None or view.lock_ref != lock_ref or not view.has_value:
            return None
        if min_stamp is not None and (
            view.value_stamp is None or view.value_stamp < min_stamp
        ):
            return None
        return view if self.window_open(view, clock.now()) else None

    def window_open(self, view: LeaseView, now_clock_ms: float) -> bool:
        """Conservative expiry check: the window must outlast ``now``
        plus the drift margin for a local serve to be safe."""
        return now_clock_ms + CLOCK_SKEW_BOUND_MS < view.expires_ms

    # -- revocation -------------------------------------------------------

    def revoke(self, key: str) -> bool:
        """Drop the key's lease (forced flag write seen, revocation row
        observed, push-grant invalidation, or clean release)."""
        return self._leases.pop(key, None) is not None

    def revoke_up_to(self, key: str, revoked_ref: int) -> bool:
        """Drop the lease if its holder was revoked (``lock_ref`` at or
        below the lock store's revocation marker)."""
        view = self._leases.get(key)
        if view is not None and view.lock_ref <= revoked_ref:
            del self._leases[key]
            return True
        return False


class _LeasesOff:
    """The read-lease tier switched off: stands in for the lease manager
    *and* the read cache (the ``NULL_AUDIT`` pattern), so the replica's
    one path calls both unconditionally.  It never anchors, serves or
    holds anything — and ``anchor_start`` does not read the clock
    (``NodeClock.now`` is stateful), which keeps the features-off clock
    reads, hence stamps, bit-identical."""

    wait_out_ms = 0.0

    def anchor_start(self, clock: Any) -> None:
        return None

    def anchor(self, *args: Any) -> bool:
        return False

    def serve(self, *args: Any) -> None:
        return None

    def fill(self, *args: Any) -> None:
        return None

    def revoke(self, key: str) -> bool:
        return False


NULL_LEASES = _LeasesOff()
