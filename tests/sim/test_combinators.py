"""Edge cases of AllOf/AnyOf and kernel strictness."""

import pytest

from repro.sim import Simulator


def test_all_of_fails_with_first_child_failure():
    sim = Simulator()
    bad = sim.event()
    good = sim.timeout(10.0, "fine")
    caught = []

    def waiter():
        try:
            yield sim.all_of([good, bad])
        except ValueError as error:
            caught.append((str(error), sim.now))

    sim.process(waiter())
    sim.call_at(2.0, lambda: bad.fail(ValueError("child died")))
    sim.run()
    assert caught == [("child died", 2.0)]


def test_any_of_failure_propagates():
    sim = Simulator()
    bad = sim.event()
    slow = sim.timeout(100.0)
    caught = []

    def waiter():
        try:
            yield sim.any_of([slow, bad])
        except KeyError:
            caught.append(sim.now)

    sim.process(waiter())
    sim.call_at(1.0, lambda: bad.fail(KeyError("boom")))
    sim.run()
    assert caught == [1.0]


def test_any_of_ignores_later_children():
    sim = Simulator()
    results = []

    def waiter():
        index, value = yield sim.any_of(
            [sim.timeout(5.0, "five"), sim.timeout(1.0, "one"), sim.timeout(3.0, "three")]
        )
        results.append((index, value))
        yield sim.timeout(10.0)  # the slower timeouts fire harmlessly

    sim.process(waiter())
    sim.run()
    assert results == [(1, "one")]


def test_strict_run_surfaces_unobserved_process_failure():
    sim = Simulator()

    def doomed():
        yield sim.timeout(1.0)
        raise RuntimeError("nobody is watching")

    sim.process(doomed())
    with pytest.raises(RuntimeError, match="nobody is watching"):
        sim.run()


def test_non_strict_run_suppresses_unobserved_failures():
    sim = Simulator()

    def doomed():
        yield sim.timeout(1.0)
        raise RuntimeError("ignored")

    sim.process(doomed())
    sim.run(strict=False)  # must not raise


def test_observed_failure_not_raised_twice():
    sim = Simulator()

    def doomed():
        yield sim.timeout(1.0)
        raise RuntimeError("caught by parent")

    def parent():
        try:
            yield sim.process(doomed())
        except RuntimeError:
            return "handled"

    proc = sim.process(parent())
    assert sim.run_until_complete(proc) == "handled"
    sim.run()  # nothing unhandled left


def test_nested_all_of_values_preserve_structure():
    sim = Simulator()

    def waiter():
        inner = sim.all_of([sim.timeout(1.0, "a"), sim.timeout(2.0, "b")])
        outer = yield sim.all_of([inner, sim.timeout(3.0, "c")])
        return outer

    proc = sim.process(waiter())
    assert sim.run_until_complete(proc) == [["a", "b"], "c"]
