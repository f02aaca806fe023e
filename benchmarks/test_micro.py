"""Micro-benchmarks of the substrate itself (real wall-clock timing).

Unlike the figure benchmarks (which time one simulated experiment),
these exercise hot paths repeatedly so pytest-benchmark's statistics
mean something: kernel event throughput, a quorum write, an LWT, and a
full MUSIC critical section.
"""

from repro.core import build_music
from repro.sim import Simulator
from repro.store import Condition
from repro.store.types import Update
from tests.helpers import make_store


def test_kernel_event_throughput(benchmark):
    """Pure kernel: ping-pong processes through a mailbox."""

    def run_ping_pong():
        from repro.sim import Mailbox

        sim = Simulator()
        box_a, box_b = Mailbox(sim), Mailbox(sim)

        def ping():
            for _ in range(2_000):
                box_b.put("ping")
                yield box_a.get()

        def pong():
            while True:
                yield box_b.get()
                box_a.put("pong")

        sim.process(pong())
        done = sim.process(ping())
        sim.run_until_complete(done)
        return sim.now

    benchmark(run_ping_pong)


def test_quorum_write_cost(benchmark):
    """One dsPutQuorum on a fresh 3-site cluster (sim setup included)."""

    def run():
        sim, _net, cluster, (host,) = make_store()
        coord = cluster.coordinator_for(host)

        def client():
            for index in range(50):
                yield from coord.put("t", f"k{index}", None, {"v": index},
                                     (float(index + 1), "w"))

        sim.run_until_complete(sim.process(client()))
        return sim.now

    benchmark(run)


def test_lwt_cost(benchmark):
    """50 uncontended LWTs (the createLockRef/releaseLock building block)."""

    def run():
        sim, _net, cluster, (host,) = make_store()
        coord = cluster.coordinator_for(host)

        def client():
            for index in range(50):
                yield from coord.cas(
                    "t", f"k{index}", Condition("always"),
                    [Update("t", f"k{index}", None, {"v": index},
                            (float(index + 1), host.node_id))],
                )

        sim.run_until_complete(sim.process(client()))
        return sim.now

    benchmark(run)


def test_full_critical_section_cost(benchmark):
    """20 complete MUSIC critical sections end to end."""

    def run():
        music = build_music(seed=5)
        client = music.client("Ohio")

        def task():
            for index in range(20):
                cs = yield from client.critical_section(f"k{index}")
                yield from cs.put(index)
                yield from cs.exit()

        music.sim.run_until_complete(music.sim.process(task()))
        return music.sim.now

    benchmark(run)
