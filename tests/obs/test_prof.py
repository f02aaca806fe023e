"""The DES self-profiler: zero cost when off, bit-identical when on.

``profile=True`` registers a :class:`SimProfiler` in the simulator's
``profiler`` slot; the kernel's one dispatch loop hands it each popped
``(fn, arg)`` to time and call, so every simulated timing is
bit-identical with the profiler attached.  When off, the only residue
is a class-level ``Simulator.profiler = None`` attribute, one read of
it per ``run``, and ``is not None`` guards on the two allocation
counters.
"""

import time

import pytest

from repro.core import build_music
from repro.obs import SimProfiler, subsystem_of
from repro.sim import Simulator
from tests.obs.test_overhead import _workload


def test_profiler_does_not_change_simulated_time():
    baseline = _workload(build_music(seed=5))
    profiled_deployment = build_music(seed=5, profile=True)
    profiled = _workload(profiled_deployment)
    assert profiled == baseline
    assert profiled_deployment.profiler.events > 0


def test_profiler_composes_with_obs_bit_identically():
    baseline = _workload(build_music(seed=5, obs=True))
    profiled = _workload(build_music(seed=5, obs=True, profile=True))
    assert profiled == baseline


def test_unprofiled_sim_has_no_profiler():
    deployment = build_music(seed=5)
    assert deployment.profiler is None
    assert deployment.sim.profiler is None
    assert "profiler" not in deployment.sim.__dict__
    assert Simulator.profiler is None  # class attribute, shared default


def test_profiler_counters_and_snapshot():
    deployment = build_music(seed=5, obs=True, profile=True)
    _workload(deployment)
    profiler = deployment.profiler
    assert profiler.events > 0
    assert profiler.wall_s > 0.0
    assert profiler.heap_high_water > 0
    assert profiler.rpc_envelopes > 0
    assert profiler.obs_spans > 0
    snapshot = profiler.snapshot()
    assert snapshot["events"] == profiler.events
    assert snapshot["by_event_type"]
    shares = snapshot["subsystem_shares"]
    assert shares and abs(sum(shares.values()) - 1.0) < 1e-6
    # Counted event-type wall time never exceeds total wall time by much.
    typed_wall = sum(wall for _count, wall in profiler.by_event_type.values())
    assert typed_wall <= profiler.wall_s * 1.5 + 1e-3


def test_profiler_obs_spans_zero_without_obs():
    deployment = build_music(seed=5, profile=True)
    _workload(deployment)
    assert deployment.profiler.obs_spans == 0
    assert deployment.profiler.rpc_envelopes > 0


def test_install_guards_and_uninstall():
    deployment = build_music(seed=5)
    profiler = SimProfiler()
    profiler.install(deployment.sim)
    try:
        with pytest.raises(RuntimeError, match="already has a profiler"):
            SimProfiler().install(deployment.sim)
        with pytest.raises(RuntimeError, match="already installed"):
            profiler.install(Simulator())
        assert deployment.sim.profiler is profiler
    finally:
        profiler.uninstall()
    assert deployment.sim.profiler is None


def test_subsystem_classifier():
    assert subsystem_of("lockstore-A-0") == "store"
    assert subsystem_of("music-A-0") == "music"
    assert subsystem_of("client-3") == "client"
    assert subsystem_of("gossip:music-B-0") == "topo"
    assert subsystem_of("rpc:storage-A-1") == "net"
    assert subsystem_of("Timeout") == "timer"
    assert subsystem_of(None) == "other"


def test_a_delivery_is_billed_to_its_destination_handler():
    """``Network._deliver`` carries the handler's work (or, for a reply,
    the waiting caller's), so its time belongs to ``<dst>:<kind>``'s
    subsystem — not to a bucket of its own."""
    deployment = build_music(seed=5, profile=True)
    deployment.profiler.sample_every = 1  # exact attribution
    _workload(deployment)
    profiler = deployment.profiler
    kinds = set(profiler.by_event_type)
    # (A CPU hold ends in ``_end_hold``, not in a process's wake.)
    assert {"Network._deliver", "_end_hold", "Process.start"} <= kinds
    assert "Node._serve" not in kinds and "Node._expire_rpc" not in kinds
    deliveries = profiler.by_event_type["Network._deliver"][0]
    assert deliveries > 0.5 * profiler.events  # most of what the kernel runs
    # Counts, not wall time: exact at sample_every=1.  Every delivery
    # went to a store or a music node; billed to "Network" they would
    # all sit in "other".
    billed = {name: count for name, (count, _wall) in profiler.by_subsystem.items()}
    assert billed["store"] + billed["music"] >= deliveries
    assert billed.get("other", 0) < profiler.events - deliveries


def test_a_hold_is_billed_to_whoever_it_runs_as():
    """A CPU hold's end runs a continuation as the step it replaced, so
    it is billed to that step's owner: ``"<node>:<kind>"`` for a served
    handler (store), the calling process for a coordinator op (here a
    client) — never to the core (``cpu:…``, net) or to nobody."""
    deployment = build_music(seed=5, profile=True)
    deployment.profiler.sample_every = 1
    client = deployment.client(deployment.profile.site_names[0])

    def body():
        for index in range(3):
            section = yield from client.critical_section(f"key-{index}")
            yield from section.put(index)
            yield from section.exit()

    sim = deployment.sim
    sim.run_until_complete(sim.process(body(), name="client-0"))
    profiler = deployment.profiler
    billed = {name: count for name, (count, _wall) in profiler.by_subsystem.items()}
    assert set(billed) == {"store", "music", "client"}
    # The client's bootstrap, and the coordinator holds it waited out.
    assert billed["client"] > 1


def test_off_path_guard_is_near_free():
    """The enabled=False residue is one attribute load + an `is not
    None` branch per call site; 200k rounds stay ~ns per op."""
    sim = Simulator()
    rounds = 200_000
    counter = 0
    started = time.perf_counter()
    for _ in range(rounds):
        profiler = sim.profiler  # the exact call-site pattern
        if profiler is not None:
            counter += 1
    elapsed = time.perf_counter() - started
    assert counter == 0
    assert elapsed < rounds * 5e-6, f"off-path guard too slow: {elapsed:.3f}s"


def test_a_timer_fire_is_billed_to_the_process_it_resumes():
    """A fired ``Timeout`` runs the next step of the process waiting on
    it, so its time belongs to that process: an idle store's
    anti-entropy rounds (tree build included) are store work, and
    nothing is billed to the timer."""
    deployment = build_music(seed=5, profile=True, anti_entropy=True)
    deployment.profiler.sample_every = 1
    deployment.sim.run(until=3_000.0)
    profiler = deployment.profiler
    billed = {name: count for name, (count, _wall) in profiler.by_subsystem.items()}
    assert profiler.by_event_type["_fire_event"][0] > 0
    assert billed == {"store": profiler.events}
