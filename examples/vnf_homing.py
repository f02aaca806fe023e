#!/usr/bin/env python
"""The VNF Homing Service (Section VII-a) with a mid-job worker crash.

A homing request places a chain of virtual network functions onto cloud
sites under capacity and latency constraints.  Requests are admitted by
the Client API, then picked up by whichever scheduler worker is idle —
but each job must be processed *exclusively* and, after a failure, the
takeover must resume from the *latest checkpointed state* rather than
redoing the expensive controller-query step.

This script submits jobs, crashes a worker halfway through one of them,
and shows a worker at another site resuming exactly where the victim
stopped.

Run:  python examples/vnf_homing.py
"""

from repro import MusicConfig, build_music
from repro.services import (
    ClientApi,
    CloudSite,
    HomingRequest,
    HomingWorker,
    JobState,
    VnfSpec,
)


def make_request(job_id: str) -> HomingRequest:
    sites = [
        CloudSite("dc-east", cpu_cores=32, memory_gb=128,
                  latency_ms={"dc-west": 62.0, "dc-central": 28.0}),
        CloudSite("dc-west", cpu_cores=32, memory_gb=128,
                  latency_ms={"dc-east": 62.0, "dc-central": 34.0}),
        CloudSite("dc-central", cpu_cores=16, memory_gb=64,
                  latency_ms={"dc-east": 28.0, "dc-west": 34.0}),
    ]
    chain = [
        VnfSpec("vFirewall", cpu_cores=8, memory_gb=16),
        VnfSpec("vRouter", cpu_cores=8, memory_gb=32,
                max_latency_to=(("vFirewall", 40.0),)),
        VnfSpec("vDPI", cpu_cores=4, memory_gb=16,
                max_latency_to=(("vRouter", 40.0),)),
    ]
    return HomingRequest(job_id=job_id, vnfs=chain, candidate_sites=sites)


def main() -> None:
    config = MusicConfig(
        failure_detection_enabled=True,
        detector_scan_interval_ms=1_000.0,
        lease_timeout_ms=4_000.0,
        orphan_timeout_ms=4_000.0,
    )
    music = build_music(profile_name="lUs", music_config=config, seed=11)
    sim = music.sim

    api = ClientApi(music.client("Ohio"))

    class Crash(Exception):
        pass

    def crash_during_job2(worker, job_id, state):
        if job_id == "job-2" and state == JobState.SOLVING:
            print(f"  [{sim.now:8.1f} ms] !! {worker.worker_id} CRASHES on {job_id} "
                  f"(just checkpointed state={state})")
            raise Crash()

    doomed = HomingWorker(music.client("Ohio"), query_time_ms=800.0,
                          solve_time_ms=400.0, checkpoint_hook=crash_during_job2)
    rescuer = HomingWorker(music.client("Oregon"), query_time_ms=800.0,
                           solve_time_ms=400.0)

    def scenario():
        print("Submitting 3 homing requests to the Client API...\n")
        for index in range(1, 4):
            yield from api.submit(make_request(f"job-{index}"))
        yield sim.timeout(100.0)

        print(f"  [{sim.now:8.1f} ms] {doomed.worker_id} (Ohio) starts its pass")
        try:
            yield from doomed.run_once()
        except Crash:
            pass

        print(f"  [{sim.now:8.1f} ms] waiting for the failure detector to "
              f"preempt the dead worker's lock...")
        yield sim.timeout(12_000.0)

        print(f"  [{sim.now:8.1f} ms] {rescuer.worker_id} (Oregon) starts its pass")
        yield from rescuer.run_once()

        # poll_done is an eventual read at Ohio: poll until the rescuer's
        # last put, acknowledged at a quorum elsewhere, lands here.
        results = {}
        for index in range(1, 4):
            value = yield from api.poll_done(f"job-{index}")
            while value is None:
                yield sim.timeout(50.0)
                value = yield from api.poll_done(f"job-{index}")
            results[f"job-{index}"] = value
        return results

    results = sim.run_until_complete(sim.process(scenario()))

    print("\nOutcomes:")
    for job_id, value in sorted(results.items()):
        progress = value["progress"]
        print(f"  {job_id}: state={value['state']}")
        print(f"    controller query by : {progress['queried_by']}")
        print(f"    solved by           : {progress['solved_by']}")
        print(f"    placement           : {progress['placement']}")

    job2 = results["job-2"]["progress"]
    assert job2["queried_by"] == doomed.worker_id
    assert job2["solved_by"] == rescuer.worker_id
    print("\njob-2's expensive controller query was done by the crashed")
    print("worker and NOT redone: the rescuer resumed from the latest")
    print("checkpointed state, exactly the paper's latest-state guarantee.")


if __name__ == "__main__":
    main()
