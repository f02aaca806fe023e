"""MSCP must inherit MUSIC's full failure semantics — the paper's claim
is "identical guarantees", so the ECF failure scenarios are re-run
against the LWT-critical-put variant."""

from repro.baselines.mscp import build_mscp
from repro.core import MusicConfig
from repro.errors import NotLockHolder


def failure_mscp():
    config = MusicConfig(
        failure_detection_enabled=True,
        detector_scan_interval_ms=1_000.0,
        lease_timeout_ms=3_000.0,
        orphan_timeout_ms=3_000.0,
    )
    return build_mscp(music_config=config)


def run(deployment, generator, limit=1e9):
    return deployment.sim.run_until_complete(
        deployment.sim.process(generator), limit=limit
    )


def test_mscp_preemption_and_takeover():
    mscp = failure_mscp()
    client_a = mscp.client("Ohio")
    client_b = mscp.client("Oregon")

    def holder():
        cs = yield from client_a.critical_section("k")
        yield from cs.put("A")
        return cs.lock_ref

    run(mscp, holder())  # A dies silently

    def takeover():
        cs = yield from client_b.critical_section("k", timeout_ms=60_000.0)
        inherited = yield from cs.get()
        yield from cs.put("B")
        yield from cs.exit()
        return inherited

    assert run(mscp, takeover()) == "A"


def test_mscp_zombie_lwt_put_cannot_corrupt():
    """Even through Paxos, a preempted client's LWT criticalPut carries a
    stale lockRef stamp and cannot override the synchronized value."""
    mscp = failure_mscp()
    sim = mscp.sim
    replica_ohio = mscp.replica_at("Ohio")
    client_a = mscp.client("Ohio")
    client_b = mscp.client("Oregon")

    def acquire_a():
        cs = yield from client_a.critical_section("k")
        yield from cs.put("A-initial")
        return cs.lock_ref

    ref_a = run(mscp, acquire_a())
    mscp.network.isolate_site("Ohio")
    sim.run(until=sim.now + 10_000.0)

    def takeover_b():
        cs = yield from client_b.critical_section("k", timeout_ms=120_000.0)
        yield from cs.put("B-value")
        return cs

    cs_b = run(mscp, takeover_b())
    mscp.network.heal_all()

    def zombie():
        try:
            yield from replica_ohio.critical_put("k", ref_a, "ZOMBIE")
            return "went-through"
        except NotLockHolder:
            return "rejected"

    outcome = run(mscp, zombie())

    def verify():
        value = yield from cs_b.get()
        yield from cs_b.exit()
        return value

    assert run(mscp, verify()) == "B-value"
    assert outcome in ("went-through", "rejected")


def test_mscp_orphan_cleanup():
    mscp = failure_mscp()
    client_a = mscp.client("Ohio")
    client_b = mscp.client("Oregon")

    def orphan():
        yield from client_a.create_lock_ref("k")

    run(mscp, orphan())

    def next_client():
        cs = yield from client_b.critical_section("k", timeout_ms=60_000.0)
        yield from cs.exit()
        return "entered"

    assert run(mscp, next_client()) == "entered"
