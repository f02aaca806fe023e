"""The kernel's dispatch rule against a single-heap reference model.

``Simulator`` keeps same-instant work in a FIFO deque and future work in
a heap, and its one loop pops "same-time heap entries, then the ready
queue, then the next future heap entry".  The claim (module docstring of
``repro.sim.core``) is that this equals one heap ordered by
``(time, seq)`` holding every scheduled entry, with two rules on top:

- a wakeup raised by the loop itself — a dispatched action triggers an
  event while no process is executing — runs the waiters *in place*, in
  registration order, inside that dispatch; a wakeup raised by a running
  process is queued for the same instant instead;
- a process that yields a bare delay costs exactly what one that yields
  ``sim.timeout(delay)`` costs in the model: one entry at ``now + delay``.

Here hypothesis generates programs — action trees with zero delays,
equal future times, actions that schedule further actions and trigger
events; processes that wait on those events, sleep both ways and trigger
events themselves — and every way of driving the loop (``run()``,
``run(until=)`` in two legs, ``run_until_complete``; each plain and
profiled) must execute them in exactly the reference order, in exactly
the reference number of dispatches.
"""

import heapq
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import SimProfiler
from repro.sim import SimulationError, Simulator

INF = float("inf")
EVENTS = 3


class Reference:
    """Every entry in one heap keyed ``(time, seq)``: the model.

    An entry is an action node or the index of a process to continue.
    """

    def __init__(self, roots, scripts):
        self.heap, self.seq, self.now = [], itertools.count(), 0.0
        self.executed, self.dispatches = [], 0
        self.scripts = scripts
        self.position = [0] * len(scripts)
        self.fired = [False] * EVENTS
        self.waiters = [[] for _ in range(EVENTS)]
        # Harness order: the processes are spawned ahead of the roots.
        for index in range(len(scripts)):
            self.push(0.0, index)
        for root in roots:
            self.push(root[0], root)

    def push(self, delay, entry):
        heapq.heappush(self.heap, (self.now + delay, next(self.seq), entry))

    def fire(self, event, by_process):
        if self.fired[event]:
            return
        self.fired[event] = True
        waiters, self.waiters[event] = self.waiters[event], []
        for index in waiters:
            if by_process:
                self.push(0.0, index)  # deferred: run-to-completion
            else:
                self.advance(index)  # raised by the loop: in place

    def advance(self, index):
        """Run process ``index`` from where it blocked to where it blocks."""
        script = self.scripts[index]
        while True:
            done = self.position[index]
            self.executed.append((self.now, ("p", index, done)))
            if done == len(script):
                return
            op, operand = script[done]
            self.position[index] = done + 1
            if op == "fire":
                self.fire(operand, by_process=True)
                continue
            if op == "wait" and not self.fired[operand]:
                self.waiters[operand].append(index)
            else:
                # A bare delay and a Timeout are the same single entry;
                # so is waiting on an event that has already triggered.
                self.push(0.0 if op == "wait" else operand, index)
            return

    def run(self, until=INF, stop_after=None):
        heap = self.heap
        while heap and heap[0][0] <= until:
            self.now, _seq, entry = heapq.heappop(heap)
            self.dispatches += 1
            if isinstance(entry, int):
                self.advance(entry)
                continue
            _delay, _via, ident, fires, children = entry
            self.executed.append((self.now, ident))
            for child in children:
                self.push(child[0], child)
            if fires is not None:
                self.fire(fires, by_process=False)
            if ident == stop_after:
                # The action succeeds `done` from the loop: the process
                # run_until_complete waits for finishes inside it.
                break
        return self


def reference(program, until=INF, stop_after=None):
    model = Reference(*program).run(until, stop_after)
    return model.executed, model.now, model.dispatches


# Delays are multiples of 0.5 so sums are exact and collide often.
delays = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 3.0])
events = st.integers(0, EVENTS - 1)
fires = st.one_of(st.none(), st.none(), events)
trees = st.recursive(
    st.tuples(delays, st.booleans(), fires, st.just([])),
    lambda children: st.tuples(
        delays, st.booleans(), fires, st.lists(children, max_size=3)
    ),
    max_leaves=20,
)
steps = st.one_of(
    st.tuples(st.just("wait"), events),
    st.tuples(st.just("sleep"), delays),
    st.tuples(st.just("timeout"), delays),
    st.tuples(st.just("fire"), events),
)
programs = st.tuples(
    st.lists(trees, min_size=1, max_size=6),
    st.lists(st.lists(steps, max_size=4), max_size=4),
)


def numbered(program):
    """Give every action of ``(roots, scripts)`` a unique id:
    ``(delay, via_call_at, fires, children)`` trees become
    ``(delay, via_call_at, ident, fires, children)``."""
    ids = itertools.count()

    def number(nodes):
        return [
            (delay, via, next(ids), fires, number(children))
            for delay, via, fires, children in nodes
        ]

    roots, scripts = program
    return number(roots), scripts


def action_ids(executed):
    return [ident for _now, ident in executed if isinstance(ident, int)]


class Harness:
    """Runs a numbered program on a real ``Simulator`` and logs what runs."""

    def __init__(self, program, profiled, waiting=False, stop_after=None, sim=None):
        roots, scripts = program
        self.sim = sim or Simulator()
        self.profiler = SimProfiler().install(self.sim) if profiled else None
        self.executed = []
        self.stop_after = stop_after
        self.done = self.sim.event()
        self.events = [self.sim.event() for _ in range(EVENTS)]
        # Bootstraps ahead of everything else, so it is already waiting
        # on `done` when any action succeeds it.
        self.waiter = self.sim.process(self._wait()) if waiting else None
        for index, script in enumerate(scripts):
            self.sim.process(self._process(index, script))
        self._schedule(roots)

    def _wait(self):
        yield self.done
        return "finished"

    def _log(self, ident):
        self.executed.append((self.sim.now, ident))

    def _trigger(self, event):
        if not self.events[event].triggered:
            self.events[event].succeed()

    def _process(self, index, script):
        self._log(("p", index, 0))
        for number, (op, operand) in enumerate(script, 1):
            if op == "wait":
                yield self.events[operand]
            elif op == "sleep":
                yield operand  # a bare delay
            elif op == "timeout":
                yield self.sim.timeout(operand)
            else:
                self._trigger(operand)
            self._log(("p", index, number))

    def _schedule(self, nodes):
        sim = self.sim
        for node in nodes:
            if node[1]:
                sim.call_at(sim.now + node[0], lambda node=node: self._fire(node))
            else:
                sim.schedule(node[0], self._fire, node)

    def _fire(self, node):
        _delay, _via, ident, fires, children = node
        self._log(ident)
        self._schedule(children)
        if fires is not None:
            self._trigger(fires)
        if ident == self.stop_after:
            self.done.succeed()


both = pytest.mark.parametrize("profiled", [False, True], ids=["plain", "profiled"])


@both
@settings(max_examples=60, deadline=None)
@given(program=programs)
def test_run_matches_the_reference(profiled, program):
    program = numbered(program)
    expected, end, dispatches = reference(program)
    harness = Harness(program, profiled)
    harness.sim.run()
    assert harness.executed == expected
    assert harness.sim.now == end
    if profiled:
        assert harness.profiler.events == dispatches


@both
@settings(max_examples=60, deadline=None)
@given(program=programs, until=st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0, 4.0, 50.0]))
def test_windowed_run_in_two_legs_matches_the_reference(profiled, program, until):
    program = numbered(program)
    expected, end, dispatches = reference(program)
    first_leg, _, _ = reference(program, until=until)
    harness = Harness(program, profiled)
    harness.sim.run(until=until)
    assert harness.executed == first_leg
    assert harness.sim.now == until  # windows have exact lengths
    harness.sim.run()
    assert harness.executed == expected
    assert harness.sim.now == max(until, end)
    if profiled:
        assert harness.profiler.events == dispatches


@both
@settings(max_examples=60, deadline=None)
@given(program=programs, data=st.data())
def test_run_until_complete_matches_the_reference(profiled, program, data):
    program = numbered(program)
    everything, _, _ = reference(program)
    stop_after = data.draw(st.sampled_from(action_ids(everything)))
    expected, end, _ = reference(program, stop_after=stop_after)
    harness = Harness(program, profiled, waiting=True, stop_after=stop_after)
    assert harness.sim.run_until_complete(harness.waiter, limit=1e6) == "finished"
    assert harness.executed == expected
    assert harness.sim.now == end
    # The rest of the schedule is still queued, in order.
    harness.sim.run()
    assert harness.executed == everything


@both
@settings(max_examples=40, deadline=None)
@given(program=programs, limit=st.sampled_from([0.0, 0.5, 1.0, 2.5]))
def test_run_until_complete_limit_and_deadlock_errors(profiled, program, limit):
    program = numbered(program)
    everything, end, _ = reference(program)
    within, _, _ = reference(program, until=limit)

    # No stop_after: nothing ever succeeds `done`.
    harness = Harness(program, profiled, waiting=True)
    if end > limit:
        with pytest.raises(SimulationError, match=f"simulated time limit {limit} exceeded"):
            harness.sim.run_until_complete(harness.waiter, limit=limit)
        assert harness.executed == within
        assert harness.sim.now <= limit
    with pytest.raises(SimulationError, match="deadlock: no scheduled events"):
        harness.sim.run_until_complete(harness.waiter)
    assert harness.executed == everything
    assert harness.sim.now == end


# p0 waits on event 0, which p1 triggers mid-step, logging again before
# it yields; p2 waits on event 1, which action 1 triggers from the loop
# at the same instant, after p1's wake (its entry is the younger one).
RUN_TO_COMPLETION = (
    [(0.0, False, 0, None, [(1.0, False, 1, 1, [])])],
    [[("wait", 0)], [("sleep", 1.0), ("fire", 0)], [("wait", 1)]],
)


def test_a_process_raised_wakeup_is_deferred_and_a_loop_raised_one_is_not():
    harness = Harness(RUN_TO_COMPLETION, profiled=False)
    harness.sim.run()
    assert harness.executed == reference(RUN_TO_COMPLETION)[0]
    assert harness.executed[4:] == [
        (1.0, ("p", 1, 1)),  # p1 wakes and triggers event 0 ...
        (1.0, ("p", 1, 2)),  # ... and finishes its step first;
        (1.0, 1),  # action 1 triggers event 1 ...
        (1.0, ("p", 2, 1)),  # ... and p2 runs inside that dispatch,
        (1.0, ("p", 0, 1)),  # ahead of p0's queued wakeup.
    ]


def test_the_model_catches_in_place_wakeups_inside_a_running_process():
    """The mutation the rule exists to exclude: with no notion of "a
    process is executing", p1's trigger runs p0 in the middle of p1's
    step — and the reference model notices."""

    class NoRunToCompletion(Simulator):
        active_process = property(lambda self: None, lambda self, process: None)

    harness = Harness(RUN_TO_COMPLETION, profiled=False, sim=NoRunToCompletion())
    harness.sim.run()
    assert harness.executed != reference(RUN_TO_COMPLETION)[0]
    assert harness.executed[4:7] == [
        (1.0, ("p", 1, 1)),
        (1.0, ("p", 0, 1)),  # p0 ran inside p1's step
        (1.0, ("p", 1, 2)),
    ]


def test_run_is_not_reentrant():
    sim = Simulator()
    sim.schedule(0.0, lambda _arg: sim.run(), None)
    with pytest.raises(SimulationError, match="re-entrant"):
        sim.run()
