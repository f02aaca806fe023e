"""A dequeue completed by a rival's LWT recovery is reported where it is
decided, so the ECF auditor never sees its successor granted first.

Six library clients at three sites run ten counter increments each on
one key.  On the polling protocol their mints and releases race on the
key's lock partition, and now and then a mint's coordinator finds a
release's proposal accepted but not committed and completes it before
its own mint.  The release's own coordinator learns of that only on its
next attempt, after the successor may already hold the lock.  Reported
then, the release reads to the checker as a lockholder still queued
when the next one was granted (a ``LockQueueFIFO`` and an
``Exclusivity`` flag on a history with neither).  On the hot path a
release is a quorum row delete, reported as it is sent, and the same
contended run must audit clean too; with the poll fuse stretched to
30 s, it must also push every hand-off.
"""

import pytest

from repro.core import MusicConfig, build_music

SITES = ("N.California", "Ohio", "Oregon")


def _audited_run(seed, fast_locks, clients=6, rounds=10, until=600_000):
    music = build_music(
        seed=seed, audit=True, music_config=MusicConfig(fast_locks=fast_locks)
    )
    sim = music.sim
    done = []

    def worker(client):
        for _ in range(rounds):
            section = yield from client.critical_section("k")
            value = yield from section.get()
            yield from section.put((value or 0) + 1)
            yield from section.exit()
        done.append(client.client_id)

    for index in range(clients):
        sim.process(worker(music.client(SITES[index % len(SITES)])))
    sim.run(until=until, strict=False)
    return music, len(done)


@pytest.mark.parametrize("fast_locks", [False, True])
@pytest.mark.parametrize("seed", [1, 4, 5, 7, 9, 10])
def test_a_release_completed_by_a_rival_audits_clean(seed, fast_locks):
    music, finished = _audited_run(seed, fast_locks)
    assert finished == 6
    assert music.auditor.clean, music.auditor.render_report()


@pytest.mark.parametrize("seed", [1, 3, 5, 7, 9, 10])
def test_every_hand_off_of_a_contended_run_is_pushed(seed, monkeypatch):
    """The push, not the poll fuse, wakes each successor.  With the fuse
    stretched to 30 s, a hand-off left to the fuse stalls the run for
    30 s; all 60 sections finish inside 30 simulated seconds only if
    every release wakes its successor, including one whose mint has not
    reached the releaser's replica when the release reads its head."""
    monkeypatch.setattr(MusicConfig, "acquire_poll_interval_ms", 30_000.0)
    monkeypatch.setattr(MusicConfig, "acquire_poll_max_ms", 30_000.0)
    music, finished = _audited_run(seed, fast_locks=True, until=30_000)
    assert finished == 6
    assert music.auditor.clean, music.auditor.render_report()
