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
replica.  A repeated section on a key skips the synchFlag read, and its
read is served by the hand-off its predecessor's release wrote beside the
row delete (same batch, no extra message): two ``Q`` less.
"""

import pytest

from repro.bench.paper import CostModel
from repro.core import MusicConfig, build_music
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
    assert first == _budget(updates=1, reads=1, hot=fast_locks) == (60 if fast_locks else 82)
    assert repeated == _budget(
        updates=1, reads=1, flag_read=not fast_locks, hot=fast_locks,
        handed=1 if fast_locks else 0,
    ) == (48 if fast_locks else 82)
