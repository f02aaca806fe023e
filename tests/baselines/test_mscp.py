"""MSCP: same semantics as MUSIC, LWT-priced critical puts."""

from repro.baselines.mscp import MscpReplica, build_mscp


def run(music, generator, limit=1e8):
    return music.sim.run_until_complete(music.sim.process(generator), limit=limit)


def test_mscp_round_trip_semantics():
    mscp = build_mscp()
    client = mscp.client("Ohio")

    def task():
        cs = yield from client.critical_section("k")
        value = yield from cs.get()
        yield from cs.put((value or 0) + 1)
        yield from cs.exit()
        cs = yield from client.critical_section("k")
        final = yield from cs.get()
        yield from cs.exit()
        return final

    assert run(mscp, task()) == 1
    assert all(isinstance(replica, MscpReplica) for replica in mscp.replicas)


def test_mscp_critical_put_costs_an_lwt():
    """The defining difference: MSCP put ~4 RTT vs MUSIC put ~1 RTT."""
    from repro.core import build_music

    def put_latency(deployment):
        client = deployment.client("Ohio")

        def task():
            cs = yield from client.critical_section("k")
            yield from cs.put("x")
            yield from cs.exit()

        run(deployment, task())
        [put] = [s for s in deployment.obs.tracer.spans if s.name == "music.criticalPut"]
        return put.duration_ms

    music_put = put_latency(build_music(obs=True))
    mscp_put = put_latency(build_mscp(obs=True))
    assert music_put < 60.0
    assert mscp_put > 200.0
    assert 3.0 < mscp_put / music_put < 6.0


def test_mscp_exclusivity_preserved():
    mscp = build_mscp()
    holding = {"count": 0, "max": 0}

    def contender(site):
        client = mscp.client(site)
        cs = yield from client.critical_section("mutex")
        holding["count"] += 1
        holding["max"] = max(holding["max"], holding["count"])
        yield mscp.sim.timeout(100.0)
        holding["count"] -= 1
        yield from cs.exit()

    procs = [mscp.sim.process(contender(s)) for s in ("Ohio", "Oregon")]
    for proc in procs:
        mscp.sim.run_until_complete(proc, limit=1e8)
    assert holding["max"] == 1


def test_an_audited_mscp_section_is_clean_and_holds_its_put():
    """MSCP overrides the store write, not the operation: its
    criticalPut still opens the span and reports to the auditor."""
    mscp = build_mscp(audit=True, obs=True)
    client = mscp.client("Ohio")

    def task():
        cs = yield from client.critical_section("k")
        stamp = yield from cs.put("x")
        yield from cs.exit()
        return stamp

    stamp = run(mscp, task())
    assert mscp.auditor.clean, mscp.auditor.render_report()
    [put] = [e for e in mscp.auditor.events if e.kind == "critical_put"]
    assert (put.fields["value"], put.stamp) == ("x", stamp)
    assert any(s.name == "music.criticalPut" for s in mscp.obs.tracer.spans)


def test_a_service_mode_mscp_put_returns_the_stamp_the_store_holds():
    mscp = build_mscp()
    client = mscp.service_client("Ohio")

    def task():
        cs = yield from client.critical_section("k")
        put_stamp = yield from cs.put("x")
        held = yield from client.critical_get_stamped("k", cs.lock_ref)
        yield from cs.exit()
        return put_stamp, held

    put_stamp, held = run(mscp, task())
    assert put_stamp is not None
    assert held == ("x", put_stamp)
