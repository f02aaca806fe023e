"""Tests for the VNF Homing service (Section VII-a)."""

from repro.core import MusicConfig, build_music
from repro.services import (
    ClientApi,
    CloudSite,
    HomingRequest,
    HomingWorker,
    JobState,
    VnfSpec,
    solve_placement,
)


def sample_sites():
    return [
        CloudSite("dc-east", cpu_cores=16, memory_gb=64,
                  latency_ms={"dc-west": 60.0, "dc-central": 30.0}),
        CloudSite("dc-west", cpu_cores=16, memory_gb=64,
                  latency_ms={"dc-east": 60.0, "dc-central": 35.0}),
        CloudSite("dc-central", cpu_cores=8, memory_gb=32,
                  latency_ms={"dc-east": 30.0, "dc-west": 35.0}),
    ]


def sample_request(job_id="job-1"):
    return HomingRequest(
        job_id=job_id,
        vnfs=[
            VnfSpec("firewall", cpu_cores=4, memory_gb=8),
            VnfSpec("router", cpu_cores=4, memory_gb=8,
                    max_latency_to=(("firewall", 40.0),)),
        ],
        candidate_sites=sample_sites(),
    )


class TestSolver:
    def test_finds_feasible_placement(self):
        request = sample_request()
        placement = solve_placement(request.vnfs, request.candidate_sites)
        assert placement is not None
        assert set(placement) == {"firewall", "router"}

    def test_respects_latency_constraints(self):
        request = sample_request()
        placement = solve_placement(request.vnfs, request.candidate_sites)
        sites = {s.name: s for s in request.candidate_sites}
        fw, rt = placement["firewall"], placement["router"]
        latency = 0.0 if fw == rt else sites[rt].latency_ms[fw]
        assert latency <= 40.0

    def test_respects_capacity(self):
        vnfs = [VnfSpec(f"v{i}", cpu_cores=8, memory_gb=16) for i in range(4)]
        sites = [CloudSite("small", cpu_cores=8, memory_gb=16)]
        assert solve_placement(vnfs, sites) is None

    def test_backtracks_when_greedy_fails(self):
        # Two VNFs that must be co-located (0-latency bound) and exactly
        # fit one site: greedy spreading alone would fail.
        vnfs = [
            VnfSpec("a", cpu_cores=2, memory_gb=2),
            VnfSpec("b", cpu_cores=2, memory_gb=2, max_latency_to=(("a", 0.0),)),
        ]
        sites = [
            CloudSite("s1", cpu_cores=4, memory_gb=4, latency_ms={"s2": 50.0}),
            CloudSite("s2", cpu_cores=4, memory_gb=4, latency_ms={"s1": 50.0}),
        ]
        placement = solve_placement(vnfs, sites)
        assert placement is not None
        assert placement["a"] == placement["b"]

    def test_infeasible_latency_returns_none(self):
        vnfs = [
            VnfSpec("a", cpu_cores=8, memory_gb=16),
            VnfSpec("b", cpu_cores=8, memory_gb=16, max_latency_to=(("a", 1.0),)),
        ]
        # Each site can hold only one of them, and they are 60ms apart.
        sites = [
            CloudSite("s1", cpu_cores=8, memory_gb=16, latency_ms={"s2": 60.0}),
            CloudSite("s2", cpu_cores=8, memory_gb=16, latency_ms={"s1": 60.0}),
        ]
        assert solve_placement(vnfs, sites) is None


def build_service(**kwargs):
    music = build_music(**kwargs)
    return music


def run(music, generator, limit=1e9):
    return music.sim.run_until_complete(music.sim.process(generator), limit=limit)


def test_single_worker_completes_job():
    music = build_service()
    api = ClientApi(music.client("Ohio"))
    worker = HomingWorker(music.client("Ohio"), query_time_ms=100.0, solve_time_ms=50.0)

    def scenario():
        yield from api.submit(sample_request())
        yield music.sim.timeout(50.0)
        advanced = yield from worker.run_once()
        result = yield from api.poll_done("job-1")
        return advanced, result

    advanced, result = run(music, scenario())
    assert advanced == 1
    assert result["state"] == JobState.DONE
    assert result["progress"]["placement"] is not None
    assert worker.jobs_completed == ["job-1"]


def test_each_job_homed_exactly_once_across_competing_workers():
    """The exclusivity requirement: no duplicated homing work."""
    music = build_service()
    api = ClientApi(music.client("Ohio"))
    workers = [
        HomingWorker(music.client(site), query_time_ms=200.0, solve_time_ms=100.0)
        for site in ("Ohio", "N.California", "Oregon")
    ]

    def submit():
        for index in range(4):
            yield from api.submit(sample_request(f"job-{index}"))
        yield music.sim.timeout(100.0)

    run(music, submit())
    procs = [music.sim.process(w.run_once()) for w in workers]
    for proc in procs:
        music.sim.run_until_complete(proc, limit=1e9)

    completed = [job for w in workers for job in w.jobs_completed]
    assert sorted(completed) == [f"job-{i}" for i in range(4)]
    assert len(completed) == len(set(completed))  # nobody homed a job twice

    def check():
        value = yield from api.poll_done("job-0")
        return value

    value = run(music, check())
    # Each job was solved by exactly one worker.
    assert value["progress"]["solved_by"].startswith("worker-")


def test_failed_worker_job_resumed_from_latest_state():
    """The latest-state requirement: a takeover continues, not restarts."""
    config = MusicConfig(
        failure_detection_enabled=True,
        detector_scan_interval_ms=1_000.0,
        lease_timeout_ms=3_000.0,
        orphan_timeout_ms=3_000.0,
    )
    music = build_service(music_config=config)
    api = ClientApi(music.client("Ohio"))

    class WorkerDied(Exception):
        pass

    def die_after_querying(worker, job_id, state):
        if state == JobState.SOLVING:
            raise WorkerDied()  # crashed right after checkpointing QUERYING->SOLVING

    doomed = HomingWorker(music.client("Ohio"), query_time_ms=100.0,
                          solve_time_ms=50.0, checkpoint_hook=die_after_querying)
    rescuer = HomingWorker(music.client("Oregon"), query_time_ms=100.0,
                           solve_time_ms=50.0)

    def submit():
        yield from api.submit(sample_request())
        yield music.sim.timeout(50.0)

    run(music, submit())

    def doomed_run():
        try:
            yield from doomed.run_once()
        except WorkerDied:
            return "died"
        return "survived"

    assert run(music, doomed_run()) == "died"

    def rescue():
        # Wait for the detector to preempt the dead worker's lock.
        yield music.sim.timeout(15_000.0)
        yield from rescuer.run_once()
        # An eventual read at Ohio: poll until the rescuer's last put,
        # acknowledged by Oregon's and N.California's replicas, lands.
        result = yield from api.poll_done("job-1")
        while result is None:
            yield music.sim.timeout(50.0)
            result = yield from api.poll_done("job-1")
        return result

    result = run(music, rescue())
    assert result["state"] == JobState.DONE
    # The rescuer resumed from SOLVING: querying was done by the dead
    # worker and must NOT have been redone.
    assert result["progress"]["queried_by"] == doomed.worker_id
    assert result["progress"]["solved_by"] == rescuer.worker_id


def test_worker_skips_done_jobs():
    music = build_service()
    api = ClientApi(music.client("Ohio"))
    worker = HomingWorker(music.client("Ohio"), query_time_ms=10.0, solve_time_ms=10.0)

    def scenario():
        yield from api.submit(sample_request())
        yield music.sim.timeout(50.0)
        yield from worker.run_once()
        steps_after_first = worker.steps_executed
        advanced = yield from worker.run_once()  # nothing left to do
        return steps_after_first, worker.steps_executed, advanced

    first, second, advanced = run(music, scenario())
    assert first == second
    assert advanced == 0


def test_job_state_machine_order():
    assert JobState.next_state(JobState.PENDING) == JobState.QUERYING
    assert JobState.next_state(JobState.QUERYING) == JobState.SOLVING
    assert JobState.next_state(JobState.SOLVING) == JobState.DONE
    assert JobState.next_state(JobState.DONE) == JobState.DONE
