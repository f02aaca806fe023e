"""Property: a revoked leaseholder never serves past the ECF window.

For any δ in (0, 1) and any schedule of read gaps / preemption delay,
every read the holder's lease tier serves returns state from before the
forcedRelease became visible — the new holder's writes are never
shadowed by a stale local mirror, and the auditor agrees.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import MusicConfig, build_music
from repro.errors import NotLockHolder


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    delta=st.floats(min_value=1e-6, max_value=0.999, allow_nan=False),
    gaps=st.lists(
        st.floats(min_value=1.0, max_value=60.0), min_size=1, max_size=5
    ),
    preempt_after_ms=st.floats(min_value=10.0, max_value=300.0),
)
def test_revoked_lease_never_outlives_the_forced_release(
    delta, gaps, preempt_after_ms
):
    config = MusicConfig()
    config.delta = delta
    # Wide enough that the grant-anchored window survives the ~108ms of
    # grant + criticalPut WAN rounds, short enough to expire mid-loop.
    config.read_lease_ms = 250.0
    music = build_music(
        music_config=config, seed=11, read_leases=True, audit=True
    )
    sim = music.sim
    holder = music.client("Ohio")
    ohio = music.replica_at("Ohio")
    oregon = music.replica_at("Oregon")
    oregon_client = music.client("Oregon")
    state = {}
    lease_served = []

    def holder_proc():
        ref = yield from holder.create_lock_ref("k")
        granted = yield from holder.acquire_lock_blocking("k", ref)
        assert granted
        yield from holder.critical_put("k", ref, "PRE")
        # One read before the preemptor learns the ref: the grant-time
        # anchor is still open, so the lease tier provably served once
        # even under the most aggressive preemption schedules.
        before = ohio.counters["lease_hits"]
        ok, value, _ = yield from ohio.critical_get("k", ref)
        assert ok and ohio.counters["lease_hits"] > before
        lease_served.append(value)
        state["ref"] = ref
        for index in range(80):
            yield sim.timeout(gaps[index % len(gaps)])
            before = ohio.counters["lease_hits"]
            try:
                ok, value, _ = yield from ohio.critical_get("k", ref)
            except NotLockHolder:
                return
            if not ok:
                return
            if ohio.counters["lease_hits"] > before:
                lease_served.append(value)

    def preemptor_proc():
        while "ref" not in state:
            yield sim.timeout(5.0)
        yield sim.timeout(preempt_after_ms)
        yield from oregon.forced_release("k", state["ref"])
        cs = yield from oregon_client.critical_section("k", timeout_ms=60_000.0)
        yield from cs.put("POST")
        yield from cs.exit()

    procs = [sim.process(holder_proc()), sim.process(preemptor_proc())]
    for proc in procs:
        sim.run_until_complete(proc, limit=1e9)
    sim.run(until=sim.now + 1_000.0)

    # The lease tier served at least once (the window is real) ...
    assert lease_served
    # ... but only pre-preemption state, under every δ and schedule.
    assert all(value == "PRE" for value in lease_served)
    assert music.auditor.clean, music.auditor.render_report()
