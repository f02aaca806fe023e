"""The Section VII services driven through scripted fault scenarios."""

from repro.core import MusicConfig, build_music
from repro.errors import ReproError
from repro.faults import FaultSchedule
from repro.services import (
    ClientApi,
    CloudSite,
    HomingRequest,
    HomingWorker,
    JobState,
    PortalBackend,
    PortalFrontend,
    VnfSpec,
)
from repro.store import StoreConfig


def detecting_music(**kwargs):
    config = MusicConfig(
        failure_detection_enabled=True,
        detector_scan_interval_ms=1_500.0,
        lease_timeout_ms=6_000.0,
        orphan_timeout_ms=6_000.0,
    )
    return build_music(music_config=config, **kwargs)


def simple_request(job_id):
    return HomingRequest(
        job_id=job_id,
        vnfs=[VnfSpec("vnf", cpu_cores=2, memory_gb=4)],
        candidate_sites=[CloudSite("dc", cpu_cores=8, memory_gb=16)],
    )


def test_homing_completes_despite_site_partition_midway():
    """Jobs survive a partition that cuts off a worker mid-pass."""
    music = detecting_music(seed=301)
    sim = music.sim
    api = ClientApi(music.client("N.California"))
    workers = [
        HomingWorker(music.client(site), query_time_ms=400.0, solve_time_ms=200.0)
        for site in ("Ohio", "Oregon")
    ]
    faults = (FaultSchedule(sim, music.network)
              .partition_at(1_500.0, "Ohio")
              .heal_at(20_000.0))
    faults.arm()

    def submit():
        for index in range(3):
            yield from api.submit(simple_request(f"job-{index}"))
        yield sim.timeout(100.0)

    sim.run_until_complete(sim.process(submit()), limit=1e9)

    def worker_loop(worker, until_ms):
        while sim.now < until_ms:
            try:
                yield from worker.run_once()
            except ReproError:
                pass
            yield sim.timeout(1_000.0)

    procs = [sim.process(worker_loop(w, 60_000.0)) for w in workers]
    for proc in procs:
        sim.run_until_complete(proc, limit=1e9)

    def check():
        done = []
        for index in range(3):
            value = yield from api.poll_done(f"job-{index}")
            done.append(value is not None and value["state"] == JobState.DONE)
        return done

    assert all(sim.run_until_complete(sim.process(check()), limit=1e9))


def test_portal_survives_rolling_backend_failures():
    """Role updates stay correct while owners fail one after another."""
    music = detecting_music(seed=302)
    sim = music.sim
    backends = [
        PortalBackend(music.replica_at(site), backend_id=f"be-{site}")
        for site in music.profile.site_names
    ]
    frontend = PortalFrontend(music.client("Ohio", "fe"), backends)

    def scenario():
        applied = []
        for round_number in range(3):
            role = f"role-{round_number}"
            result = yield from frontend.write("alice", role)
            applied.append((role, result))
            # Kill whoever owns alice now; the next write must fail over.
            owner_id = frontend._owner_cache["alice"]
            owner = next(b for b in backends if b.backend_id == owner_id)
            owner.fail()
            yield sim.timeout(500.0)
        # Revive everyone and do a final write + read.
        for backend in backends:
            backend.recover()
        yield from frontend.write("alice", "final-role")
        reader = next(b for b in backends
                      if b.backend_id == frontend._owner_cache["alice"])
        role = yield from reader.read("alice")
        return applied, role

    applied, role = sim.run_until_complete(sim.process(scenario()), limit=1e9)
    assert all(result == "SUCCESS" for _r, result in applied)
    assert role == "final-role"


def test_homing_worker_respects_partitioned_backend_with_nacks(monkeypatch):
    """A worker on an isolated site nacks (no split-brain homing)."""
    music = detecting_music(seed=303)
    monkeypatch.setattr(StoreConfig, "rpc_timeout_ms", 400.0)
    sim = music.sim
    api = ClientApi(music.client("N.California"))
    isolated_worker = HomingWorker(music.client("Ohio"),
                                   query_time_ms=100.0, solve_time_ms=100.0)

    def submit():
        yield from api.submit(simple_request("job-x"))
        yield sim.timeout(200.0)

    sim.run_until_complete(sim.process(submit()), limit=1e9)
    music.network.isolate_site("Ohio")

    def isolated_pass():
        try:
            advanced = yield from isolated_worker.run_once()
            return ("ok", advanced)
        except ReproError:
            return ("nack", None)

    outcome, advanced = sim.run_until_complete(
        sim.process(isolated_pass()), limit=1e9
    )
    # Either the scan nacked outright or no job could be advanced.
    assert outcome == "nack" or advanced == 0
    assert isolated_worker.jobs_completed == []
