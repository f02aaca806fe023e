"""The VNF Homing Service of Section VII-a: a multi-site job scheduler.

The job-scheduler structuring paradigm: any idle worker (scheduler
replica) may pick up any pending homing request (job), but each job must
be processed *exclusively* from its *latest state* — an interrupted
homing run is resumed by another worker from wherever the failed worker
last checkpointed, never restarted and never homed twice.

Components, mirroring Fig. 3:

- ``HomingRequest`` — the static job description: VNF chains with
  placement constraints over candidate cloud sites;
- the execution state machine of Fig. 3(b):
  PENDING → QUERYING (query cloud controllers for candidate sites)
          → SOLVING  (constraint optimisation)
          → DONE;
- ``ClientApi`` — front-end replicas that admit jobs with an unlocked
  ``put`` and garbage-collect DONE jobs;
- ``HomingWorker`` — iterates jobs via getAllKeys (unlocked, possibly
  stale — harmless), grabs a MUSIC lock per job, and advances the state
  machine inside the critical section with a criticalPut per step.

The homing "solver" here is a real (small) constraint solver: it scores
candidate sites against hardware/affinity constraints — enough to make
job state meaningful and failover observable, which is what the paper's
use case demands of MUSIC.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Tuple

from ..core.client import MusicClient
from ..errors import NotLockHolder

__all__ = [
    "CloudSite",
    "VnfSpec",
    "HomingRequest",
    "JobState",
    "ClientApi",
    "HomingWorker",
    "solve_placement",
]


@dataclass(frozen=True)
class CloudSite:
    """A candidate deployment site a VNF can be homed to."""

    name: str
    cpu_cores: int
    memory_gb: int
    latency_ms: Dict[str, float] = field(default_factory=dict, hash=False)


@dataclass(frozen=True)
class VnfSpec:
    """One virtual network function in a service chain."""

    name: str
    cpu_cores: int
    memory_gb: int
    # Max one-way latency (ms) tolerated to each named peer VNF.
    max_latency_to: Tuple[Tuple[str, float], ...] = ()


@dataclass
class HomingRequest:
    """A homing job: place every VNF of the chain on some site."""

    job_id: str
    vnfs: List[VnfSpec]
    candidate_sites: List[CloudSite]


class JobState:
    """The execution states of Fig. 3(b)."""

    PENDING = "PENDING"
    QUERYING = "QUERYING"
    SOLVING = "SOLVING"
    DONE = "DONE"
    ORDER = [PENDING, QUERYING, SOLVING, DONE]

    @classmethod
    def next_state(cls, state: str) -> str:
        index = cls.ORDER.index(state)
        return cls.ORDER[min(index + 1, len(cls.ORDER) - 1)]


def solve_placement(
    vnfs: List[VnfSpec], sites: List[CloudSite]
) -> Optional[Dict[str, str]]:
    """Greedy-with-backtracking placement honouring capacity and latency.

    Deterministic and small — the point is that the job carries real
    intermediate state, not that the optimiser is industrial-strength.
    """
    remaining = {site.name: (site.cpu_cores, site.memory_gb) for site in sites}
    by_name = {site.name: site for site in sites}
    placement: Dict[str, str] = {}

    def latency(site_a: str, site_b: str) -> float:
        if site_a == site_b:
            return 0.0
        return by_name[site_a].latency_ms.get(site_b, float("inf"))

    def feasible(vnf: VnfSpec, site_name: str) -> bool:
        cpu, memory = remaining[site_name]
        if vnf.cpu_cores > cpu or vnf.memory_gb > memory:
            return False
        for peer, bound in vnf.max_latency_to:
            if peer in placement and latency(site_name, placement[peer]) > bound:
                return False
        return True

    def assign(index: int) -> bool:
        if index == len(vnfs):
            return True
        vnf = vnfs[index]
        # Prefer sites with the most headroom (simple load spreading).
        ordered = sorted(remaining, key=lambda s: -sum(remaining[s]))
        for site_name in ordered:
            if not feasible(vnf, site_name):
                continue
            cpu, memory = remaining[site_name]
            remaining[site_name] = (cpu - vnf.cpu_cores, memory - vnf.memory_gb)
            placement[vnf.name] = site_name
            if assign(index + 1):
                return True
            remaining[site_name] = (cpu, memory)
            del placement[vnf.name]
        return False

    return dict(placement) if assign(0) else None


class ClientApi:
    """A homing front-end replica: admits jobs, reaps completed ones."""

    def __init__(self, client: MusicClient) -> None:
        self.client = client

    def submit(self, request: HomingRequest) -> Generator[Any, Any, None]:
        """Admit a job with an unlocked put (Section VII-a)."""
        value = {
            "state": JobState.PENDING,
            "description": request,
            "progress": {},
        }
        yield from self.client.put(request.job_id, value)

    def poll_done(self, job_id: str) -> Generator[Any, Any, Optional[Dict]]:
        """Unlocked read of a job; returns its value once DONE, else None."""
        value = yield from self.client.get(job_id)
        if value is not None and value["state"] == JobState.DONE:
            return value
        return None


class HomingWorker:
    """One scheduler replica competing for homing jobs."""

    _ids = itertools.count()

    def __init__(
        self,
        client: MusicClient,
        query_time_ms: float = 2_000.0,
        solve_time_ms: float = 1_000.0,
        checkpoint_hook=None,
    ) -> None:
        self.client = client
        self.sim = client.sim
        self.worker_id = f"worker-{next(self._ids)}"
        self.query_time_ms = query_time_ms
        self.solve_time_ms = solve_time_ms
        self.jobs_completed: List[str] = []
        self.steps_executed = 0
        # Test hook: called as hook(worker, job_id, state) after each
        # checkpointed step; may raise to simulate a crash mid-job.
        self.checkpoint_hook = checkpoint_hook

    # -- the worker loop of Section VII-a ------------------------------------------

    def run_once(self) -> Generator[Any, Any, int]:
        """One pass over all jobs; returns how many jobs this worker advanced."""
        advanced = 0
        keys = yield from self.client.get_all_keys()
        for job_id in keys:
            # Unlocked read: possibly stale, but only used as a filter.
            value = yield from self.client.get(job_id)
            if value is None or value.get("state") == JobState.DONE:
                continue
            did_work = yield from self._try_job(job_id)
            if did_work:
                advanced += 1
        return advanced

    def _try_job(self, job_id: str) -> Generator[Any, Any, bool]:
        lock_ref = yield from self.client.create_lock_ref(job_id)
        granted = yield from self.client.acquire_lock(job_id, lock_ref)
        if not granted:
            # Someone else is (probably) on it: evict our lockRef for
            # timely garbage collection (removeLockReference).
            yield from self.client.release_lock(job_id, lock_ref)
            return False
        try:
            did_work = yield from self._execute_in_critical_section(job_id, lock_ref)
            return did_work
        except NotLockHolder:
            return False  # preempted: another worker has taken over
        finally:
            yield from self.client.release_lock(job_id, lock_ref)

    def _execute_in_critical_section(
        self, job_id: str, lock_ref: int
    ) -> Generator[Any, Any, bool]:
        """executeJobInCriticalSection from Section VII-a.

        Returns whether this worker advanced the job at all — the
        critical get may reveal the job is already DONE (our unlocked
        pre-filter read was stale), in which case there is nothing to do.
        """
        value = yield from self.client.critical_get(job_id, lock_ref)
        if value is None:
            return False
        advanced = False
        while value["state"] != JobState.DONE:
            value = yield from self._advance(job_id, value)
            yield from self.client.critical_put(job_id, lock_ref, value)
            self.steps_executed += 1
            advanced = True
            if self.checkpoint_hook is not None:
                self.checkpoint_hook(self, job_id, value["state"])
        if advanced:
            self.jobs_completed.append(job_id)
        return advanced

    def _advance(self, job_id: str, value: Dict) -> Generator[Any, Any, Dict]:
        """Execute one state transition of Fig. 3(b)."""
        request: HomingRequest = value["description"]
        state = value["state"]
        progress = dict(value["progress"])
        if state == JobState.PENDING:
            next_state = JobState.QUERYING
        elif state == JobState.QUERYING:
            # Query cloud controllers for candidate sites (the 7-minute
            # mean step of the paper's production logs — scaled down).
            yield self.sim.timeout(self.query_time_ms)
            progress["candidates"] = [site.name for site in request.candidate_sites]
            progress["queried_by"] = self.worker_id
            next_state = JobState.SOLVING
        elif state == JobState.SOLVING:
            yield self.sim.timeout(self.solve_time_ms)
            placement = solve_placement(request.vnfs, request.candidate_sites)
            progress["placement"] = placement
            progress["solved_by"] = self.worker_id
            next_state = JobState.DONE
        else:
            next_state = JobState.DONE
        return {"state": next_state, "description": request, "progress": progress}
