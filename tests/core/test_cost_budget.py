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
operation's guard and, on the polling protocol, the release's head
read; and the grant's eventual startTime write (one round, ``Q``
messages).  The section below also reads once (one more ``Q``).  A
hot-path release reads no head: the last guard's read showed its ref
at the head.  On the hot path the release also pushes to the other two
MUSIC replicas (``P``, one one-way message each), even with no
successor in that read, which may lack a mint not yet at its replica.
On the hot path neither the grant's synchFlag read nor the section's
read costs a message: a mint whose promises show an empty queue reads
the data partition in its accept round, and the get serves the value
row that read fetched beside the flag (``C + (x+1)Q`` in all: the
updates and the release).  A repeated section on a key skips the
synchFlag read, and its read is served by the hand-off its
predecessor's release wrote beside the row delete (same batch, no extra
message): the same count.  With read leases on the hot path costs the
same: the accept round's read anchors the lease window its get is
served under.
"""

import pytest

from repro.bench.paper import CostModel
from repro.core import MusicConfig, build_music
from repro.net.topology import PROFILE_LUS
from repro.obs import extract_critpaths
from repro.obs.critpath import ROOT_SPAN
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
        flag_read = False                          # read in the accept round
    else:
        paper = CostModel(consensus=C, quorum=Q).music_critical_section(updates)
    guards = (2 if hot else 3) + updates + reads  # mint, peek, polling's release; each op
    extra = (reads - handed) * Q + guards * L + Q  # reads, guards, startTime write
    return paper + extra - (0 if flag_read else Q)


def _section_messages(config, sections):
    music = build_music(music_config=config)
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


@pytest.mark.parametrize("config", [
    MusicConfig(fast_locks=False), MusicConfig(), MusicConfig(read_leases=True),
], ids=["polling", "hot-path", "hot-path-leases"])
def test_an_uncontended_section_costs_the_closed_form(config):
    fast_locks = config.fast_locks
    first, repeated = _section_messages(config, sections=2)
    assert first == _budget(
        updates=1, reads=1, hot=fast_locks, handed=1 if fast_locks else 0,
    ) == (46 if fast_locks else 82)
    assert repeated == _budget(
        updates=1, reads=1, flag_read=not fast_locks, hot=fast_locks,
        handed=1 if fast_locks else 0,
    ) == (46 if fast_locks else 82)


# From Oregon on lUs a quorum is Oregon's own replica and N.California's
# (RTT ``R``); ``LOCAL`` is the in-site RTT, ``SVC_P`` a Paxos phase's
# service at a replica, ``SVC_C``, ``SVC_R`` and ``SVC_W`` the
# coordinator's, a read's and a write's service time.
R, LOCAL = PROFILE_LUS.rtt("Oregon", "N.California"), PROFILE_LUS.rtt("Oregon", "Oregon")
SVC_C, SVC_R, SVC_W = (
    StoreConfig.coordinator_service_ms, StoreConfig.read_service_ms, StoreConfig.write_service_ms,
)
SVC_P = StoreConfig.paxos_phase_service_ms
LOCAL_READ = SVC_C + SVC_R + LOCAL          # a single-replica read at our site
# The phases of an uncontended hot-path section from Oregon, in closed
# form.  The mint is its guard read, the coordinator's service, two WAN
# rounds (prepare, propose) and its commit's local ack; the acquire its
# peek and the startTime write, and no flag read (the accept round
# carried it); the get serves that read behind its guard; the put is its
# guard and a quorum write, split at the local replica's reply; the
# release a row delete that returns at the local replica's ack, its head
# read the put's guard's.
PHASES = {
    "mint.lwt": LOCAL_READ + SVC_C + 2 * (R + SVC_P) + (LOCAL + SVC_P),
    "acquire.peek": LOCAL_READ,
    "acquire.grant": SVC_C + SVC_W + LOCAL,
    "op.local_read": LOCAL_READ,
    "op.quorum_fastest": LOCAL_READ + SVC_C + SVC_W,
    "op.quorum_straggler": R,
    "release.lwt": SVC_C + SVC_W + LOCAL,
}


def _oregon_sections(sections, obs=False, read_leases=False):
    """Sections on one key from Oregon on lUs, a second apart: the
    deployment and each section's latency (with ``obs``, each traced
    under a ``music.cs`` root)."""
    music = build_music(obs=obs or None, read_leases=read_leases)
    client = music.client("Oregon")
    tracer = music.obs.tracer

    def section():
        started = music.sim.now
        cs = yield from client.critical_section("k")
        value = yield from cs.get()
        yield from cs.put((value or 0) + 1)
        yield from cs.exit()
        return music.sim.now - started

    def body():
        latencies = []
        for _ in range(sections):
            if obs:
                with tracer.span(ROOT_SPAN, node=client.client_id, site=client.site):
                    latencies.append((yield from section()))
            else:
                latencies.append((yield from section()))
            yield music.sim.timeout(1_000.0)
        return latencies

    return music, run(music.sim, body())


@pytest.mark.parametrize("read_leases", [False, True], ids=["hot-path", "hot-path-leases"])
def test_an_uncontended_section_is_three_wan_rounds(read_leases):
    """X-B4 in time: a section on a key waits out the mint's prepare and
    propose rounds and its put: three WAN rounds, first section or
    repeat, with read leases on or off.  The mint returns at its commit's
    local ack and the release at its delete's, the grant's flag read rode
    the accept round, and the get serves its value (under the lease
    window that read anchored, with leases on; a repeat: the hand-off
    row), so none adds one.  Around them: each Paxos phase's service
    time, the local commit round, the put's ``c + w``, the release's
    local write round, four single-replica reads (the mint's guard read,
    the acquire's peek and two guards), the startTime write and the
    coordinator's service ahead of the prepare."""
    _, latencies = _oregon_sections(2, read_leases=read_leases)
    closed_form = (
        2 * (R + SVC_P) + (LOCAL + SVC_P) + (R + SVC_C + SVC_W) + 4 * LOCAL_READ
        + 2 * (SVC_C + SVC_W + LOCAL) + SVC_C
    )
    assert latencies == [pytest.approx(closed_form, abs=0.05)] * 2
    # The four-round form less the release's WAN round and head read,
    # plus its local ack.
    assert closed_form == pytest.approx(103.45 - R - LOCAL_READ + LOCAL) == 79.0
    assert closed_form == pytest.approx(sum(PHASES.values()))


def test_an_uncontended_first_sections_phase_table():
    """The critical-path partition of the traced first section is the
    closed form, phase by phase: no flag read is billed."""
    music, _ = _oregon_sections(1, obs=True)
    (path,) = extract_critpaths(music.obs.tracer.spans)
    totals = path.phase_totals()
    assert set(totals) == set(PHASES)
    for phase, closed_form in PHASES.items():
        assert totals[phase] == pytest.approx(closed_form, abs=0.01), phase


def test_an_uncontended_first_section_dispatches_77_events():
    """The kernel events of the benchmark's core drive (a first section
    on a fresh key from Ohio, traced and profiled, 60 ms drained): the
    flag read in the mint's accept round saves the grant's read round
    and the get's, and the release reads no head.  The release returns
    at its local ack, so its Oregon replica's ack (72.14 ms from Ohio)
    lands after the drain, in the next section's window: 77 events a
    section, 76 in the first window."""
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
    assert counts == [76] + [77] * 3
