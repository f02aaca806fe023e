"""A finished process is freed by its last reference, not by the collector.

``Process._resume_cb`` is a bound method of the process, cached so the
hot path binds none per ``yield``; a finished process drops it and its
generator, so what is left is a tree.  The unit tests here pin that per
exit arm with the cyclic collector *off* — returned and interrupted to
death die on the spot; raised keeps its whole traceback, the one cycle
left on purpose — and the run-level guard pins what it buys: a
fault-free MUSIC run leaves ``gc.collect()`` nothing to do, whatever
the feature mix, the client deployment or the recorder attached.
"""

import gc
import itertools
import types
import weakref

import pytest

from repro.core import MusicConfig, build_music
from repro.sim import Interrupt, Process, Simulator


@pytest.fixture
def collector_off():
    """Everything freed inside the test is freed by reference counts."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


class WeakProcess(Process):
    """``Process`` has no ``__weakref__`` slot (it would cost every event
    eight bytes); the tests watch one through a subclass that does."""

    __slots__ = ("__weakref__",)


def spawn(sim, generator):
    process = WeakProcess(sim, generator)
    sim.schedule(0.0, Process.start, process)
    return process, weakref.ref(process)


# -- one process, three ways to finish ------------------------------------------


def test_a_process_that_returned_dies_with_its_last_reference(collector_off):
    sim = Simulator()

    def body():
        yield 1.0
        yield sim.timeout(1.0)
        return 7

    process, ref = spawn(sim, body())
    sim.run()
    assert process.triggered and process.value == 7
    assert process.generator is None
    del process
    assert ref() is None


def test_a_process_that_raised_lets_go_of_everything_but_its_traceback(collector_off):
    sim = Simulator()
    seen = []

    def body():
        yield 1.0
        raise ValueError("boom")

    def watcher(target):
        try:
            yield target
        except ValueError as error:
            seen.append(str(error))

    process, ref = spawn(sim, body())
    sim.process(watcher(process))
    sim.run()
    assert seen == ["boom"]
    assert not process.ok and process.generator is None and process._resume_cb is None
    # The failure it keeps is whole — the traceback still starts in the
    # kernel, at the frame that stepped the generator, and that frame
    # names the process.  So this one exit is a cycle, kept for the
    # debugger's sake; the collector frees it (no e2e workload leaves a
    # single one behind: their failures are caught below the process).
    frames = []
    traceback = process._value.__traceback__
    while traceback is not None:
        frames.append(traceback.tb_frame.f_code.co_name)
        traceback = traceback.tb_next
    assert frames[-2:] == ["_advance", "body"]
    del process, traceback
    gc.collect()
    assert ref() is None


def test_a_process_interrupted_to_death_dies_and_its_stale_wake_is_a_no_op(collector_off):
    sim = Simulator()

    def sleeper():
        yield 10.0  # no handler: the interrupt escapes and ends it

    process, ref = spawn(sim, sleeper())
    sim.call_at(1.0, lambda: process.interrupt("enough"))
    sim.run(until=2.0)
    assert process.triggered and process.ok and process.value is None
    assert process.generator is None
    del process
    # The lambda above went with its dispatch; the wake of the sleep the
    # interrupt ended is still in the heap, and it holds the process.
    assert ref() is not None
    sim.run()  # t = 10: the stale wake arrives, token mismatch, ignored
    assert sim.now == 10.0
    assert ref() is None


def test_stale_resume_and_late_interrupt_on_a_finished_process_are_no_ops(collector_off):
    sim = Simulator()
    first, second = sim.event(), sim.event()
    log = []

    def body():
        try:
            yield first
        except Interrupt as interrupt:
            log.append(("interrupted", interrupt.cause))
        log.append((yield second))

    process = sim.process(body())
    resume = process._resume_cb
    sim.call_at(1.0, lambda: process.interrupt("move on"))
    sim.call_at(2.0, lambda: second.succeed("second"))
    sim.call_at(3.0, lambda: first.succeed("first"))  # left behind at t=1
    sim.run()
    assert log == [("interrupted", "move on"), "second"]
    assert process.triggered and process.generator is None
    # Whatever still points at the finished process finds it inert.
    resume(first)
    process._resume(second)
    process._wake(-1)
    process.interrupt("too late")
    process.start()
    sim.run()
    assert log == [("interrupted", "move on"), "second"]
    assert process.ok and process.value is None


# -- the run-level guard ------------------------------------------------------------

CLIENTS = 6
ROUNDS = 10
LEASE_READS = 40

MIXES = list(itertools.product([False, True], repeat=3))


@pytest.mark.parametrize("recorder", ["obs", "audit"])
@pytest.mark.parametrize("deployed", ["library", "service"])
@pytest.mark.parametrize("fast_locks,read_leases,peek_quorum", MIXES)
def test_a_fault_free_run_leaves_the_collector_nothing_to_do(
    collector_off, fast_locks, read_leases, peek_quorum, deployed, recorder
):
    config = MusicConfig(
        fast_locks=fast_locks, read_leases=read_leases, peek_quorum=peek_quorum
    )
    music = build_music(music_config=config, seed=5, **{recorder: True})
    sim = music.sim
    sites = music.profile.site_names
    library = deployed == "library"
    make_client = music.client if library else music.service_client
    # Library clients: all six on one key, spread over the sites.
    # Service clients: two per key, both at the key's site — across
    # sites (or three to a key) a createLockRef RPC outlives its 4 s
    # timeout in a ballot duel, the client mints again, and the first
    # mint lands as an orphan lockRef everyone waits behind (ROADMAP
    # item 2; a liveness debt, not this test's subject).
    per_key = CLIENTS if library else 2
    done = []

    def contender(index):
        key_index = index // per_key
        client = make_client(sites[(index if library else key_index) % len(sites)])
        key = f"hot-{key_index}"
        for _ in range(ROUNDS):
            section = yield from client.critical_section(key, timeout_ms=600_000.0)
            value = yield from section.get()
            yield from section.put((value or 0) + 1)
            yield from section.exit()
            done.append(key)

    def reader():
        # One lockholder re-reading its key: lease-served when
        # read_leases is on, quorum reads otherwise.
        client = make_client(sites[0])
        section = yield from client.critical_section("read-mostly", timeout_ms=600_000.0)
        yield from section.put("v")
        for _ in range(LEASE_READS):
            assert (yield from section.get()) == "v"
        yield from section.exit()

    processes = [sim.process(contender(index)) for index in range(CLIENTS)]
    processes.append(sim.process(reader()))
    for process in processes:
        sim.run_until_complete(process, limit=1e9)
    del processes, process
    assert len(done) == CLIENTS * ROUNDS

    gc.set_debug(gc.DEBUG_SAVEALL)
    gc.collect()
    garbage = list(gc.garbage)
    kinds = sorted({type(item).__name__ for item in garbage})
    assert not [g for g in garbage if isinstance(g, (Process, types.GeneratorType))], kinds
    assert len(garbage) < 100, (len(garbage), kinds)
