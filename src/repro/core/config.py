"""MUSIC configuration."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MusicConfig"]


@dataclass
class MusicConfig:
    """Tunables for MUSIC replicas and clients.

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
    acquire_poll_interval_ms: float = 10.0  # backoff between acquireLock polls
    acquire_poll_max_ms: float = 500.0
    op_retry_limit: int = 5  # retries of a nacked operation
    op_retry_delay_ms: float = 100.0

    # Failure detection: how long a granted lock may sit idle before any
    # MUSIC replica may preempt it, and how long an enqueued-but-never-
    # acquired (orphan) lockRef may linger.
    detector_scan_interval_ms: float = 5_000.0
    lease_timeout_ms: float = 60_000.0
    orphan_timeout_ms: float = 60_000.0
    failure_detection_enabled: bool = False

    # Data/lock table names.
    data_table: str = "music_data"

    # Ablation knobs (not part of MUSIC proper; see DESIGN.md §5):
    # poll acquireLock against a quorum instead of the local replica,
    peek_quorum: bool = False
    # and synchronize the data store on every acquire, not just when the
    # synchFlag is set.
    always_sync: bool = False

    # Contention hot path (DESIGN.md §9).  All three features default
    # off with bit-identical timings; ``build_music(fast_locks=True)``
    # flips them together.
    #
    # LWT group commit: concurrent createLockRef/releaseLock operations
    # on the same key, arriving at the same coordinator within the batch
    # window, share one Paxos round (one ballot, one atomic batch of
    # queue mutations under the guard counter).
    lwt_batch_enabled: bool = False
    # Cap on ops per batch flush: a slow coordinator otherwise grows
    # ever-larger mint batches, minting long runs of consecutive lockRefs
    # that serialize the grant order onto one site (and its quorum
    # geometry).  Excess ops simply wait for the next self-clocked flush.
    lwt_batch_max_ops: int = 4
    # synchFlag fast path: skip the grant-time quorum flag read when the
    # local forced-release epoch proves no forcedRelease has applied
    # since this replica last established flag=False at quorum.
    synch_fast_path: bool = False
    # Push grants: releaseLock/forcedRelease notify waiting clients so
    # acquire_lock_blocking wakes immediately instead of backing off.
    push_grants: bool = False

    # Read scale-out leases (DESIGN.md §10).  Default off with
    # bit-identical timings.  ``read_leases`` implies ``push_grants``
    # (``__post_init__``): the cache invalidation stream rides the
    # push-grant channel, so leases without it would serve cached reads
    # up to their staleness bound instead of the push latency.
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

    def __post_init__(self) -> None:
        if self.read_leases:
            self.push_grants = True
