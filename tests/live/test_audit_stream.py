"""Sim and live attach the same audit stream; only where the checker is
subscribed differs (a live process sees one slice, so it records and
the merged history is checked)."""

import asyncio

from repro import build_music
from repro.live import LiveProcess, replay_merged
from repro.obs import AuditStream

from .conftest import make_spec

T = 1_000.0


def duplicate_mint(stream):
    stream.emit("enqueue", key="k", node="n0", lock_ref=1)
    stream.emit("enqueue", key="k", node="n0", lock_ref=1)


def test_live_and_sim_attach_one_stream_class(tmp_path):
    async def main():
        process = LiveProcess(make_spec(n_nodes=1, tmp_path=tmp_path), "n0")
        try:
            return process.recorder, process.obs.audit
        finally:
            await process.shutdown(drain_s=0.0)

    recorder, attached = asyncio.run(main())
    auditor = build_music(audit=True).auditor
    assert recorder is attached
    assert type(recorder) is type(auditor) is AuditStream
    # Only the simulated deployment's stream has a checker subscribed.
    duplicate_mint(recorder)
    duplicate_mint(auditor)
    assert len(recorder.events) == len(auditor.events) == 2
    assert recorder.clean and recorder.violations == []
    assert auditor.violation_counts == {"LockQueueFIFO": 1}


def test_slices_record_and_the_merged_history_is_checked():
    """Two processes each mint lockRef 1 (a split-brain guard): neither
    slice is checked where it is recorded, the merged history is."""
    slices = [AuditStream(period_ms=T), AuditStream(period_ms=T)]
    for index, stream in enumerate(slices):
        stream.emit("enqueue", key="k", node=f"n{index}", lock_ref=1)
        stream.emit("grant", key="k", node=f"n{index}", lock_ref=1, flag=False)
    assert all(stream.clean and len(stream.events) == 2 for stream in slices)

    merged = replay_merged([stream.events for stream in slices], period_ms=T)
    assert type(merged) is AuditStream
    assert len(merged.events) == 4
    assert "LockQueueFIFO" in merged.violation_counts
