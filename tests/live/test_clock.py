"""LiveClock: the DES kernel surface on wall time.

The same generator/Event/Mailbox machinery that runs under the
Simulator must run under LiveClock — including every ``sim.timeout``
that protocol and client code uses for retry backoff and polling
(there is no ``time.sleep`` anywhere in the stack; the Clock seam is
the only way to wait).
"""

import asyncio

import pytest

from repro.live import LiveClock
from repro.sim import Mailbox


def run(coro):
    return asyncio.run(coro)


def test_timeouts_fire_in_wall_clock_order():
    async def main():
        clock = LiveClock()
        fired = []

        def waiter(delay, tag):
            yield clock.timeout(delay)
            fired.append(tag)

        # Start out of order; completion must follow the delays.
        procs = [
            clock.process(waiter(30.0, "slow")),
            clock.process(waiter(5.0, "fast")),
            clock.process(waiter(15.0, "mid")),
        ]
        await clock.wait(clock.all_of(procs))
        return fired

    assert run(main()) == ["fast", "mid", "slow"]


def test_now_advances_in_real_milliseconds():
    async def main():
        clock = LiveClock()
        start = clock.now
        await clock.run_process(_sleep(clock, 20.0))
        return clock.now - start

    elapsed = run(main())
    # Generous bounds: at least the requested sleep, well under a second.
    assert 15.0 <= elapsed < 1000.0


def _sleep(clock, delay):
    yield clock.timeout(delay)


def test_concurrent_processes_interleave_through_the_clock_seam():
    """Satellite: backoff/poll sleeps run through Clock.timeout, so two
    clients backing off concurrently overlap in wall time instead of
    serialising — total runtime ~max(delays), not sum(delays)."""

    async def main():
        clock = LiveClock()
        start = clock.now

        def backoff_loop():
            for _ in range(4):
                yield clock.timeout(10.0)

        procs = [clock.process(backoff_loop()) for _ in range(8)]
        await clock.wait(clock.all_of(procs))
        return clock.now - start

    elapsed = run(main())
    # 8 processes x 4 sleeps x 10ms = 320ms if serialised; concurrent
    # execution should finish in roughly one 40ms chain.
    assert elapsed < 200.0


def test_event_value_and_failure_propagate():
    async def main():
        clock = LiveClock()

        def producer(event):
            yield clock.timeout(1.0)
            event.succeed("payload")

        def consumer(event):
            value = yield event
            return value

        event = clock.event()
        clock.process(producer(event))
        value = await clock.run_process(consumer(event))

        failing = clock.event()

        def fail_soon():
            yield clock.timeout(1.0)
            failing.fail(RuntimeError("boom"))

        clock.process(fail_soon())

        def waits_on_failure():
            yield failing

        with pytest.raises(RuntimeError, match="boom"):
            await clock.run_process(waits_on_failure())
        return value

    assert run(main()) == "payload"


def test_mailbox_works_on_live_clock():
    async def main():
        clock = LiveClock()
        box = Mailbox(clock, name="m")

        def receiver():
            first = yield box.get()
            second = yield box.get()
            return [first, second]

        def sender():
            box.put("a")
            yield clock.timeout(5.0)
            box.put("b")

        proc = clock.process(receiver())
        clock.process(sender())
        return await clock.wait(proc)

    assert run(main()) == ["a", "b"]


def test_call_at_runs_at_absolute_time():
    async def main():
        clock = LiveClock()
        hits = []
        clock.call_at(clock.now + 10.0, lambda: hits.append(clock.now))
        clock.call_at(clock.now - 50.0, lambda: hits.append("past"))
        await asyncio.sleep(0.05)
        return hits

    hits = run(main())
    assert "past" in hits
    assert len(hits) == 2


def test_scheduled_action_errors_are_captured_not_fatal():
    async def main():
        clock = LiveClock()

        def explode(message):
            raise ValueError(message)

        clock.schedule(0.0, explode, "handler bug")
        await asyncio.sleep(0.02)
        failures = clock.drain_failures()
        # Drained once; a second drain is empty.
        return failures, clock.drain_failures()

    failures, rest = run(main())
    assert len(failures) == 1
    assert "handler bug" in failures[0]
    assert rest == []


def test_close_cancels_outstanding_timers():
    async def main():
        clock = LiveClock()
        fired = []
        clock.schedule(5.0, fired.append, "timer")
        assert clock._handles
        clock.close()
        assert not clock._handles
        clock.schedule(1.0, fired.append, "late")  # no-op when closed
        await asyncio.sleep(0.03)
        return fired

    assert run(main()) == []
