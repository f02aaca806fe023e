"""An audited hot-key sweep of the default hot path, where a release is
one quorum row delete: sixteen clients at three sites run twenty counter
increments each on one key (the ``contention16`` shape), at sixty seeds.
Every seed must audit clean, apply every section and leave the
auditor's lock-queue model equal to the store's queue.

Slow-marked (a few minutes); CI's scheduled ``figures-slow`` workflow
runs it.
"""

import pytest

from repro.core import build_music
from tests.helpers import assert_queue_model_matches_store

CLIENTS, ROUNDS = 16, 20


def _hot_key_run(seed):
    music = build_music(profile_name="lUs", seed=seed, audit=True)
    sim, sites = music.sim, music.profile.site_names
    done = []

    def worker(client):
        for _ in range(ROUNDS):
            section = yield from client.critical_section("hot", timeout_ms=1e9)
            value = yield from section.get()
            yield from section.put((value or 0) + 1)
            yield from section.exit()
            done.append(1)

    processes = [
        sim.process(worker(music.client(sites[index % len(sites)])))
        for index in range(CLIENTS)
    ]
    for process in processes:
        sim.run_until_complete(process, limit=1e9)

    def read():
        section = yield from music.client(sites[0]).critical_section("hot", timeout_ms=1e9)
        value = yield from section.get()
        yield from section.exit()
        return value

    final = sim.run_until_complete(sim.process(read()), limit=1e9)
    return music, len(done), final


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(60))
def test_a_hot_key_audits_clean_and_applies_every_section(seed):
    music, applied, final = _hot_key_run(seed)
    assert applied == final == CLIENTS * ROUNDS
    assert music.auditor.clean, music.auditor.render_report()
    assert_queue_model_matches_store(music, ("hot",))
