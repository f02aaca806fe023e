"""An uncontended critical section sends exactly the messages of its
closed-form budget.

X-B4 prices a critical section of ``x`` state updates at ``2C + (x+1)Q``:
createLockRef and releaseLock are consensus operations, the grant's
synchFlag read and each update are quorum operations.  The hot path
prices it at ``C + (x+2)Q``: its release is one quorum row delete, so
only the mint is a consensus operation.  In messages at replication
factor RF, an LWT (``C``) is four rounds — prepare, read, propose,
commit — of one request and one reply per replica, three on the hot
path, whose promises carry the read; a quorum operation (``Q``) is one
such round.  Around that budget the implementation pays a fixed set of
cheaper messages: a single-replica read (``L``, one request and one
reply) for the mint's guard, the grant's peek, each critical
operation's guard and the release's head read; and the grant's eventual
startTime write (one round, ``Q`` messages).  The section below also
reads once (one more ``Q``).  On the hot path the release also pushes
to the other two MUSIC replicas (``P``, one one-way message each), even
with no successor in its head read, which may lack a mint not yet at its
replica.  On the hot path the section's read costs nothing more: the
grant's synchFlag read fetches the value row beside the flag, and the
get serves it (one ``Q`` less, ``C + (x+1)Q`` in all).  A repeated
section on a key skips the synchFlag read, and its read is served by the
hand-off its predecessor's release wrote beside the row delete (same
batch, no extra message): two ``Q`` less than the paper's count.
"""

import pytest

from repro.bench.paper import CostModel
from repro.core import MusicConfig, build_music
from repro.store import StoreConfig
from tests.helpers import run

RF = 3
C = 4 * 2 * RF
C_HOT = 3 * 2 * RF
Q = 2 * RF
L = 2
P = 2


def _budget(updates, reads, flag_read=True, hot=False, handed=0):
    if hot:
        paper = C_HOT + (updates + 2) * Q + P      # C + (x+2)Q, and the push
    else:
        paper = CostModel(consensus=C, quorum=Q).music_critical_section(updates)
    guards = 3 + updates + reads                  # mint, peek, release; each op
    extra = (reads - handed) * Q + guards * L + Q  # reads, guards, startTime write
    return paper + extra - (0 if flag_read else Q)


def _section_messages(fast_locks, sections):
    music = build_music(music_config=MusicConfig(fast_locks=fast_locks))
    sent = []
    music.network.add_tap(lambda message: sent.append(message.kind))
    client = music.client("Ohio")
    counts = []

    def body():
        for index in range(sections):
            before = len(sent)
            section = yield from client.critical_section("k")
            value = yield from section.get()
            yield from section.put((value or 0) + 1)
            yield from section.exit()
            yield music.sim.timeout(1_000.0)      # every straggler reply lands
            counts.append(len(sent) - before)

    run(music.sim, body())
    return counts


@pytest.mark.parametrize("fast_locks", [False, True])
def test_an_uncontended_section_costs_the_closed_form(fast_locks):
    first, repeated = _section_messages(fast_locks, sections=2)
    assert first == _budget(
        updates=1, reads=1, hot=fast_locks, handed=1 if fast_locks else 0,
    ) == (54 if fast_locks else 82)
    assert repeated == _budget(
        updates=1, reads=1, flag_read=not fast_locks, hot=fast_locks,
        handed=1 if fast_locks else 0,
    ) == (48 if fast_locks else 82)


def test_an_uncontended_first_section_is_five_wan_rounds():
    """X-B4 in time: from Oregon on lUs, where a quorum is Oregon's own
    replica and N.California's (RTT ``R``), a first section on a key
    waits out the mint's three rounds, its put and its release: five
    WAN rounds.  The grant's flag read starts at the mint's decide point
    and ends inside its commit round, and the get serves its value, so
    neither adds one.  Around them: each Paxos phase's service time
    ``P``, a quorum write's coordinator and replica service ``c + w``,
    five single-replica reads (the mint's guard read, the acquire's peek
    and three guards, ``c + r + l`` each, ``l`` the in-site RTT), the
    startTime write (``c + w + l``) and the coordinator's service ahead
    of the prepare."""
    music = build_music()
    client = music.client("Oregon")
    rtt, local = music.profile.rtt("Oregon", "N.California"), music.profile.rtt("Oregon", "Oregon")
    c, r, w = (StoreConfig.coordinator_service_ms, StoreConfig.read_service_ms,
               StoreConfig.write_service_ms)
    paxos = StoreConfig.paxos_phase_service_ms

    def body():
        started = music.sim.now
        section = yield from client.critical_section("k")
        value = yield from section.get()
        yield from section.put((value or 0) + 1)
        yield from section.exit()
        return music.sim.now - started

    closed_form = (
        3 * (rtt + paxos) + 2 * (rtt + c + w) + 5 * (c + r + local) + (c + w + local) + c
    )
    assert run(music.sim, body()) == pytest.approx(closed_form, abs=0.05)
    assert closed_form == pytest.approx(127.45)


def test_an_uncontended_first_section_dispatches_92_events():
    """The kernel events of the benchmark's core drive (a first section
    on a fresh key from Ohio, traced and profiled, 60 ms drained): the
    early flag read saves the grant's read round and the get's."""
    music = build_music(seed=4242, obs=True, profile=True)
    client = music.client("Ohio")
    counts = []

    def body():
        for index in range(4):
            before = music.profiler.events
            section = yield from client.critical_section(f"key-{index}", timeout_ms=1e9)
            value = yield from section.get()
            yield from section.put((value or 0) + 1)
            yield from section.exit()
            yield music.sim.timeout(60.0)
            counts.append(music.profiler.events - before)

    run(music.sim, body())
    assert counts == [92] * 4
