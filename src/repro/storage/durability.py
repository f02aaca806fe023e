"""Commit-log durability: when a journaled batch may be applied.

``wal_sync`` picks the sync point (:mod:`repro.storage.config`):
``"always"`` syncs each batch before it is applied, after an optional
charged fsync latency; ``"periodic"`` applies at once and leaves the
tail to a background sync; ``"off"`` never syncs.  The periodic sync
is a demand-driven daemon that exits once the tail is synced, so a
simulation that runs its event heap dry still terminates.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional, Tuple

__all__ = ["Durability"]


class Durability:
    """The commit-log durability of :class:`~repro.storage.StorageEngine`."""

    def _durably(
        self, lsn: Optional[int], apply: Callable[[Any], None], arg: Any
    ) -> Tuple[Any, ...]:
        """Run ``apply(arg)`` once the records from ``lsn`` on are durable
        per ``wal_sync``: now, returning ``()``, unless ``"always"`` has an
        fsync latency to wait out — then when it ends (not at all if the
        engine crashed meanwhile), returning ``(event,)``: what a process
        caller yields from."""
        if lsn is not None:
            mode = self.config.wal_sync
            if mode == "always":
                latency = self.config.fsync_latency_ms
                if latency > 0.0:
                    synced = self.sim.event()
                    self._pending_lsns.add(lsn)
                    self.sim.schedule(latency, self._fsynced, (lsn, apply, arg, synced))
                    return (synced,)
                self._fsync()
            elif mode == "periodic":
                self._ensure_sync_loop()
            elif mode != "off":
                raise ValueError(f"unknown wal_sync mode {mode!r}")
        apply(arg)
        return ()

    def _fsynced(self, pending: Tuple[int, Callable[[Any], None], Any, Any]) -> None:
        lsn, apply, arg, synced = pending
        self._pending_lsns.discard(lsn)
        if not self.crashed:  # else lost with the unsynced tail
            self._fsync()
            apply(arg)
        synced.succeed()

    def _fsync(self) -> None:
        self.stats["synced_bytes"] += self.wal.sync()
        self.stats["fsyncs"] += 1

    def _ensure_sync_loop(self) -> None:
        if self._sync_looping or self.crashed:
            return
        self._sync_looping = True
        self.sim.process(
            self._sync_loop(self._epoch), name=f"walsync:{self.node_id}"
        )

    def _sync_loop(self, epoch: int) -> Generator[Any, Any, None]:
        # Demand-driven daemon: syncs every interval while there is an
        # unsynced tail, then exits (so idle sims drain their heaps).
        while not self.crashed and self._epoch == epoch:
            yield self.sim.timeout(self.config.wal_sync_interval_ms)
            if self.crashed or self._epoch != epoch:
                return
            if self.wal.unsynced_count:
                self._fsync()
            if not self.wal.unsynced_count:
                break
        if self._epoch == epoch:
            self._sync_looping = False
