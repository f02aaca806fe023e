"""Tests for the ablation configuration knobs (DESIGN.md §14)."""

import pytest

from repro.core import MusicConfig, build_music


def run(music, generator, limit=1e9):
    return music.sim.run_until_complete(music.sim.process(generator), limit=limit)


def cs_roundtrip(music):
    client = music.client("Ohio")

    def task():
        cs = yield from client.critical_section("k")
        value = yield from cs.get()
        yield from cs.put((value or 0) + 1)
        yield from cs.exit()
        return value

    return run(music, task())


def test_peek_quorum_variant_still_correct_but_crosses_wan():
    music = build_music(music_config=MusicConfig(peek_quorum=True))
    wan_reads = {"n": 0}
    net = music.network
    net.add_tap(lambda m: wan_reads.__setitem__(
        "n", wan_reads["n"] + (
            1 if m.kind == "store_read"
            and net.site_of(m.src) != net.site_of(m.dst) else 0)))
    assert cs_roundtrip(music) is None  # first CS sees no prior value
    assert wan_reads["n"] > 0  # even the uncontended acquire went remote


def test_always_sync_variant_still_correct():
    music = build_music(music_config=MusicConfig(always_sync=True))
    cs_roundtrip(music)
    # Every acquire synchronized (2 acquires happen inside the helper? 1).
    assert sum(r.counters["syncs"] for r in music.replicas) >= 1
    # And values survive the redundant syncs.
    client = music.client("Oregon")

    def check():
        cs = yield from client.critical_section("k")
        value = yield from cs.get()
        yield from cs.exit()
        return value

    assert run(music, check()) == 1


@pytest.mark.parametrize("fast_locks", [False, True])
def test_always_sync_preserves_value_across_many_sections(fast_locks):
    # The synchFlag fast path must not skip the sync always_sync asks for.
    music = build_music(music_config=MusicConfig(always_sync=True, fast_locks=fast_locks))
    client = music.client("Ohio")

    def task():
        for index in range(3):
            cs = yield from client.critical_section("k")
            value = yield from cs.get()
            assert value == (index if index > 0 else None) or value == index
            yield from cs.put(index + 1)
            yield from cs.exit()
        cs = yield from client.critical_section("k")
        final = yield from cs.get()
        yield from cs.exit()
        return final

    assert run(music, task()) == 3
    assert sum(r.counters["syncs"] for r in music.replicas) == 4
