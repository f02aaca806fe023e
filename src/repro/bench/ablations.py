"""Ablations of MUSIC's design choices (DESIGN.md §14): one row per
variant."""

from __future__ import annotations

from typing import Any, Dict

from ..core import MusicConfig
from .scenario import ExperimentResult, Run, scenario
from .workers import cs_latency


@scenario("ablation_peek", "Peek ablation")
def ablation_peek(run: Run) -> ExperimentResult:
    """Ablation: local vs quorum polling in acquireLock under contention."""
    hold_ms = 3_000.0

    def measure(variant: str, peek_quorum: bool) -> Dict[str, Any]:
        # The paper's polling protocol (PAPER_MUSIC) with the knob ablated.
        config = MusicConfig(fast_locks=False, peek_quorum=peek_quorum)
        deployment = run.build_music(profile_name="lUs", music_config=config, seed=52)
        sim = deployment.sim
        network = deployment.network
        # Count reads that cross the WAN during a *pure polling window*:
        # one client holds the lock while five wait, so the only store
        # traffic in the window is the waiters' acquireLock polling.
        counting = {"on": False, "wan": 0, "polls": 0}

        def tap(msg):
            if not counting["on"] or msg.kind != "store_read":
                return
            counting["polls"] += 1
            if network.site_of(msg.src) != network.site_of(msg.dst):
                counting["wan"] += 1

        network.add_tap(tap)
        holder = deployment.client("Ohio")
        waiters = [deployment.client(site)
                   for site in deployment.profile.site_names for _ in range(2)]

        def contend():
            cs = yield from holder.critical_section("hot")
            refs = []
            for waiter in waiters:
                ref = yield from waiter.create_lock_ref("hot")
                refs.append(ref)
            counting["on"] = True
            polls = [sim.process(w.acquire_lock_blocking("hot", r, timeout_ms=hold_ms))
                     for w, r in zip(waiters, refs)]
            yield sim.timeout(hold_ms)
            counting["on"] = False
            yield from cs.exit()
            for proc, waiter, ref in zip(polls, waiters, refs):
                yield proc
                yield from waiter.release_lock("hot", ref)

        sim.run_until_complete(sim.process(contend()), limit=1e8)
        return {"variant": variant, "polls": counting["polls"], "wan_reads": counting["wan"]}

    local, quorum = measure("local peek", False), measure("quorum peek", True)
    checks = [
        ("local polling never crosses the WAN", local["wan_reads"] == 0),
        ("quorum polling pays 2 WAN reads per poll", quorum["wan_reads"] > 10),
    ]
    return run.rows(
        "Ablation — acquireLock polling for one held lock, 6 waiters, "
        f"{hold_ms:.0f} ms window",
        {"variant": "variant", "poll store_reads": "polls",
         "of which WAN-crossing": "wan_reads"},
        [local, quorum], checks,
    )


@scenario("ablation_sync", "Sync ablation")
def ablation_sync(run: Run) -> ExperimentResult:
    """Ablation: lazy (synchFlag-gated) vs always-sync on lock acquisition."""
    latencies = {}
    for variant, always in (("lazy sync (MUSIC)", False), ("always sync", True)):
        config = MusicConfig(fast_locks=False, always_sync=always)  # PAPER_MUSIC, ablated
        latencies[variant] = cs_latency(
            run, "MUSIC", profile_name="lUs", music_config=config, seed=53, samples=10
        ).mean
    overhead = latencies["always sync"] / latencies["lazy sync (MUSIC)"]
    checks = [
        ("always-sync adds measurable cost to every CS entry", overhead > 1.1),
    ]
    return run.table(
        "Ablation — synchFlag laziness (batch-1 CS latency, lUs)",
        ["variant", "mean CS latency (ms)"],
        [[variant, mean] for variant, mean in latencies.items()], checks,
    )
