"""A run's memory is its state, not its history.

A lockholder re-reading its key off the read lease changes no state at
all, so what the process retains must not depend on how many reads it
has served.  Measured with the cyclic collector *off*: whatever a
finished read leaves behind has to go by reference count, the moment
the read finishes (DESIGN.md §4, "Object lifetime").
"""

import gc
import tracemalloc

import pytest

from repro.core import build_music

READS = 200
# Retained-bytes drift allowed across 4 * READS further reads: a counter
# crossing a small-int boundary, a list growing by a slot.  A leak is a
# kilobyte *per read*.
SLACK_BYTES = 4_096


@pytest.mark.parametrize("deployed", ["library", "service"])
def test_lease_served_reads_retain_nothing_per_read(deployed):
    gc.collect()
    gc.disable()
    try:
        music = build_music(read_leases=True, seed=7)
        sim = music.sim
        make_client = music.client if deployed == "library" else music.service_client
        client = make_client("Ohio")
        held = {}

        def enter():
            held["section"] = section = yield from client.critical_section("k")
            yield from section.put("v")

        def reads(count):
            section = held["section"]
            for _ in range(count):
                assert (yield from section.get()) == "v"

        sim.run_until_complete(sim.process(enter()))
        sim.run_until_complete(sim.process(reads(10)))  # first-use caches filled
        tracemalloc.start()
        try:
            retained = []
            for count in (READS, 4 * READS):
                sim.run_until_complete(sim.process(reads(count)))
                retained.append(tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
    finally:
        gc.enable()
    assert music.replica_at("Ohio").counters["lease_hits"] >= 5 * READS
    after_n, after_5n = retained
    assert abs(after_5n - after_n) < SLACK_BYTES, (after_n, after_5n)
