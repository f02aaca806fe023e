"""The kernel's dispatch rule against a single-heap reference model.

``Simulator`` keeps same-instant work in a FIFO deque and future work in
a heap, and its one loop pops "same-time heap entries, then the ready
queue, then the next future heap entry".  The claim (module docstring of
``repro.sim.core``) is that this equals one heap ordered by
``(time, seq)`` holding every action.  Here hypothesis generates action
trees — zero delays, equal future times, actions that schedule further
actions — and every way of driving the loop (``run()``, ``run(until=)``
in two legs, ``run_until_complete``; each plain and profiled) must
execute them in exactly the reference order.
"""

import heapq
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import SimProfiler
from repro.sim import SimulationError, Simulator

STOP = "stop"
INF = float("inf")


def reference(roots, until=INF, stop_after=None):
    """Every action in one heap keyed ``(time, seq)``: the model."""
    heap, seq, now, executed = [], itertools.count(), 0.0, []
    for delay, _via, ident, children in roots:
        heapq.heappush(heap, (delay, next(seq), ident, children))
    while heap and heap[0][0] <= until:
        now, _seq, ident, children = heapq.heappop(heap)
        if ident is STOP:
            break
        executed.append((now, ident))
        for delay, _via, child, grandchildren in children:
            heapq.heappush(heap, (now + delay, next(seq), child, grandchildren))
        if ident == stop_after:
            heapq.heappush(heap, (now, next(seq), STOP, ()))
    return executed, now


# Delays are multiples of 0.5 so sums are exact and collide often.
delays = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 3.0])
trees = st.recursive(
    st.tuples(delays, st.booleans(), st.just([])),
    lambda children: st.tuples(delays, st.booleans(), st.lists(children, max_size=3)),
    max_leaves=20,
)
schedules = st.lists(trees, min_size=1, max_size=6)


def numbered(roots, ids=None):
    """``(delay, via_call_at, children)`` trees -> the same with unique ids."""
    ids = itertools.count() if ids is None else ids
    return [
        (delay, via, next(ids), numbered(children, ids))
        for delay, via, children in roots
    ]


class Harness:
    """Schedules a numbered tree on a real ``Simulator`` and logs what runs."""

    def __init__(self, roots, profiled, waiting=False, stop_after=None):
        self.sim = Simulator()
        self.profiler = SimProfiler().install(self.sim) if profiled else None
        self.executed = []
        self.stop_after = stop_after
        self.done = self.sim.event()
        # Bootstraps ahead of every root, so it is already waiting on
        # `done` when any action succeeds it.
        self.waiter = self.sim.process(self._wait()) if waiting else None
        self._schedule(roots)

    def _wait(self):
        yield self.done
        return "finished"

    def _schedule(self, nodes):
        sim = self.sim
        for node in nodes:
            if node[1]:
                sim.call_at(sim.now + node[0], lambda node=node: self._fire(node))
            else:
                sim.schedule(node[0], self._fire, node)

    def _fire(self, node):
        _delay, _via, ident, children = node
        self.executed.append((self.sim.now, ident))
        self._schedule(children)
        if ident == self.stop_after:
            self.done.succeed()


both = pytest.mark.parametrize("profiled", [False, True], ids=["plain", "profiled"])


@both
@settings(max_examples=60, deadline=None)
@given(roots=schedules)
def test_run_matches_the_reference(profiled, roots):
    roots = numbered(roots)
    expected, end = reference(roots)
    harness = Harness(roots, profiled)
    harness.sim.run()
    assert harness.executed == expected
    assert harness.sim.now == end
    if profiled:
        assert harness.profiler.events == len(expected)


@both
@settings(max_examples=60, deadline=None)
@given(roots=schedules, until=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 4.0, 50.0]))
def test_windowed_run_in_two_legs_matches_the_reference(profiled, roots, until):
    roots = numbered(roots)
    expected, end = reference(roots)
    first_leg, _ = reference(roots, until=until)
    harness = Harness(roots, profiled)
    harness.sim.run(until=until)
    assert harness.executed == first_leg
    assert harness.sim.now == until  # windows have exact lengths
    harness.sim.run()
    assert harness.executed == expected
    assert harness.sim.now == max(until, end)
    if profiled:
        assert harness.profiler.events == len(expected)


@both
@settings(max_examples=60, deadline=None)
@given(roots=schedules, data=st.data())
def test_run_until_complete_matches_the_reference(profiled, roots, data):
    roots = numbered(roots)
    everything, _ = reference(roots)
    stop_after = data.draw(st.sampled_from([ident for _now, ident in everything]))
    expected, end = reference(roots, stop_after=stop_after)
    harness = Harness(roots, profiled, waiting=True, stop_after=stop_after)
    assert harness.sim.run_until_complete(harness.waiter, limit=1e6) == "finished"
    assert harness.executed == expected
    assert harness.sim.now == end
    # The rest of the schedule is still queued, in order.
    harness.sim.run()
    assert harness.executed == everything


@both
@settings(max_examples=40, deadline=None)
@given(roots=schedules, limit=st.sampled_from([0.0, 0.5, 1.0, 2.5]))
def test_run_until_complete_limit_and_deadlock_errors(profiled, roots, limit):
    roots = numbered(roots)
    everything, end = reference(roots)
    within, _ = reference(roots, until=limit)

    # No stop_after: nothing ever succeeds `done`.
    harness = Harness(roots, profiled, waiting=True)
    if end > limit:
        with pytest.raises(SimulationError, match=f"simulated time limit {limit} exceeded"):
            harness.sim.run_until_complete(harness.waiter, limit=limit)
        assert harness.executed == within
        assert harness.sim.now <= limit
    with pytest.raises(SimulationError, match="deadlock: no scheduled events"):
        harness.sim.run_until_complete(harness.waiter)
    assert harness.executed == everything
    assert harness.sim.now == end


def test_run_is_not_reentrant():
    sim = Simulator()
    sim.schedule(0.0, lambda _arg: sim.run(), None)
    with pytest.raises(SimulationError, match="re-entrant"):
        sim.run()
