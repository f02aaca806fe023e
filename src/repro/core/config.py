"""MUSIC configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

__all__ = ["MusicConfig"]


@dataclass
class MusicConfig:
    """Tunables for MUSIC replicas and clients (its ``ClassVar`` client
    timings are set by no deployment, so they are not fields).

    ``period_ms`` is the paper's T: the maximum time a lockholder may
    spend in one critical section, which both bounds the v2s time
    component and acts as the lease after which a lockholder can be
    preempted.  ``delta`` is the paper's δ: the fractional lockRef bump
    forcedRelease applies to its synchFlag write so it beats a racing
    reset by the released lockRef but loses to the next lockRef's reset
    (the paper used 1 microsecond in scalar space; any 0 < δ < 1 works).
    """

    # T: maximum critical-section duration in ms (defaults long enough
    # that benchmark critical sections never expire; failure tests
    # shrink it).
    period_ms: float = 10_000_000.0

    # δ for forcedRelease synchFlag stamps, in lockRef units.
    delta: float = 1e-6

    # Client-side behaviour.
    acquire_poll_interval_ms: ClassVar[float] = 10.0  # backoff between acquireLock polls
    acquire_poll_max_ms: ClassVar[float] = 500.0
    op_retry_delay_ms: ClassVar[float] = 100.0

    # Failure detection: how long a granted lock may sit idle before any
    # MUSIC replica may preempt it, and how long an enqueued-but-never-
    # acquired (orphan) lockRef may linger.
    detector_scan_interval_ms: float = 5_000.0
    lease_timeout_ms: float = 60_000.0
    orphan_timeout_ms: float = 60_000.0
    failure_detection_enabled: bool = False

    # Ablation knobs (not part of MUSIC proper; see DESIGN.md §14):
    # poll acquireLock against a quorum instead of the local replica,
    peek_quorum: bool = False
    # and synchronize the data store on every acquire, not just when the
    # synchFlag is set.
    always_sync: bool = False

    # Contention hot path (DESIGN.md §7–§8): one switch, on by default;
    # off, it is the paper's polling protocol with timings bit-identical
    # to the seed.  On, five things move together — mint group commit
    # (createLockRef ops on a key queued at one coordinator share one
    # guard CAS), releaseLock as one quorum row delete that also writes
    # the hand-off row, three-round LWTs (the Paxos promise carries the
    # read; an uncontended mint also reads the data in its accept round
    # and returns at its local commit), the hand-off (a grant whose head
    # read shows the row naming the ref below and no forced dequeue at
    # or above it skips its quorum flag read, and a get may serve the
    # row or the grant's read; never under ``always_sync``) and push
    # grants (see ``push_grants`` below).
    fast_locks: bool = True

    # Read scale-out leases (DESIGN.md §8).  Default off with
    # bit-identical timings.
    #
    # Leaseholder local reads: the current lockholder's replica serves
    # critical_get from a local mirror while its lease — anchored at the
    # start of the last quorum read that observed no revocation — is
    # provably inside the ECF window.
    read_leases: bool = False
    # Local-read window per lease anchor.  forcedRelease waits this plus
    # 2x the skew bound after its quorum flag write acks and before the
    # dequeue, so every window anchored before the revocation became
    # quorum-visible has expired by the time the next holder can enter.
    read_lease_ms: float = 400.0

    @property
    def push_grants(self) -> bool:
        """Whether releaseLock/forcedRelease notify the waiting client
        they hand the lock to, so its acquire_lock_blocking wakes
        immediately instead of backing off.
        Part of ``fast_locks``; ``read_leases`` needs it too — the cache
        invalidation stream rides the push channel, so leases without it
        would serve cached reads up to their staleness bound instead of
        the push latency."""
        return self.fast_locks or self.read_leases
