#!/usr/bin/env python
"""Hierarchical MUSIC (the paper's future work) head-to-head with flat
MUSIC on a site-local burst.

Twelve clients at the same site each run a critical section on the same
key.  Flat MUSIC pays a WAN mint (an LWT, shared by the mints queued at
its coordinator) and a WAN release (a quorum row delete on the default
hot path) per client; the hierarchical proxy
acquires the global lock once and multiplexes it locally, then releases
it when the burst drains so other sites can enter.

Run:  python examples/hierarchical_music.py
"""

from collections import Counter

from repro import build_music
from repro.bench.report import render_bars
from repro.core.hierarchical import HierarchicalClient


def run_burst(hierarchical: bool, burst: int = 12):
    music = build_music(profile_name="lUs", seed=99)
    sim = music.sim
    sent = Counter()  # message kind -> sends, from the network's raw tap
    music.network.add_tap(lambda message: sent.update((message.kind,)))
    hclient = HierarchicalClient(music.replica_at("Ohio"), idle_release_ms=100.0)

    def worker(index):
        if hierarchical:
            section = yield from hclient.critical_section("hot-key")
        else:
            client = music.client("Ohio", f"w{index}")
            section = yield from client.critical_section("hot-key", timeout_ms=1e8)
        value = yield from section.get()
        yield from section.put((value or 0) + 1)
        yield from section.exit()

    start = sim.now
    procs = [sim.process(worker(i)) for i in range(burst)]
    for proc in procs:
        sim.run_until_complete(proc, limit=1e9)
    makespan = sim.now - start

    def check():
        client = music.client("Ohio")
        cs = yield from client.critical_section("hot-key", timeout_ms=1e8)
        value = yield from cs.get()
        yield from cs.exit()
        return value

    final = sim.run_until_complete(sim.process(check()), limit=1e9)
    # Each LWT begins with one paxos_prepare per replica (3): count LWTs.
    lwts = sent["paxos_prepare"] // 3
    return makespan, lwts, final


def main() -> None:
    burst = 12
    print(f"{burst} colocated clients, one hot key, lUs WAN profile\n")
    flat_ms, flat_lwts, flat_final = run_burst(hierarchical=False, burst=burst)
    tier_ms, tier_lwts, tier_final = run_burst(hierarchical=True, burst=burst)
    assert flat_final == tier_final == burst, "an increment was lost!"

    print(render_bars("Burst makespan (lower is better)",
                      {"flat MUSIC": flat_ms, "hierarchical": tier_ms},
                      unit="ms"))
    print()
    print(render_bars("WAN consensus operations (LWTs)",
                      {"flat MUSIC": flat_lwts, "hierarchical": tier_lwts}))
    print()
    print(f"Both variants applied all {burst} increments (final counter "
          f"{tier_final}); the hierarchical proxy finished "
          f"{flat_ms / tier_ms:.1f}x sooner using {flat_lwts / max(1, tier_lwts):.0f}x "
          f"fewer consensus operations.")
    print("Cross-site safety is unchanged: the proxy holds the ordinary")
    print("global MUSIC lock, so preemption and ECF semantics apply to it")
    print("exactly as to any single client.")


if __name__ == "__main__":
    main()
