#!/usr/bin/env python
"""A fault-ridden run with the runtime ECF auditor attached.

``build_music(audit=True)`` attaches an audit stream
(:mod:`repro.obs.audit`) with the ECF checker subscribed
(:mod:`repro.obs.ecf`) to the observability recorder: every lockRef
enqueue/grant/release, every synchFlag read/write, and every
criticalGet/criticalPut quorum decision is checked *online* against the
ECF safety invariants (Exclusivity, Latest-State, queue FIFO, the δ > 0
forcedRelease rule, ...).  Alone it records the audit history and
nothing else; this script also asks for ``obs=True``, so every audit
event carries its span and a violation would render with its span tree.

This script throws a partition, a flapping WAN link, a store-node
crash, and a false failure detection at a contended deployment — then
prints the audit report.  The run must come back clean: the benign
races the paper *tolerates* (a zombie holder's stale writes, which lose
the timestamp race) show up as counters, not violations.

The history also dumps to JSONL so it can be re-checked offline with
``python -m repro.obs audit <file>``.

Run:  python examples/audited_fault_run.py
"""

import io

from repro import MusicConfig, build_music
from repro.errors import ReproError
from repro.faults import FaultSchedule, flaky_link_profile
from repro.obs import replay_audit, write_audit_jsonl


def main() -> None:
    config = MusicConfig(
        failure_detection_enabled=True,
        detector_scan_interval_ms=1_000.0,
        lease_timeout_ms=3_000.0,
        orphan_timeout_ms=3_000.0,
    )
    music = build_music(music_config=config, seed=77, obs=True, audit=True)
    sim = music.sim

    faults = FaultSchedule(sim, music.network)
    faults.partition_at(2_000.0, "Ohio")
    faults.heal_at(12_000.0)
    flaky_link_profile(faults, "Ohio", "Oregon", start=14_000.0,
                       end=30_000.0, period=4_000.0, duty=0.4)
    faults.crash_at(16_000.0, "store-1-0")
    faults.recover_at(24_000.0, "store-1-0")
    faults.arm()
    print("fault schedule: partition Ohio @2s, heal @12s, flaky "
          "Ohio<->Oregon 14-30s, crash store-1-0 @16s, recover @24s")

    def stalled_holder():
        # Acquires the lock, then stalls through the Ohio isolation:
        # the detectors preempt it (false failure detection) and its
        # wake-up write is a zombie criticalPut.
        client = music.client("Ohio")
        try:
            cs = yield from client.critical_section("shared",
                                                    timeout_ms=30_000.0)
            yield from cs.put("written-by-ohio")
            yield sim.timeout(15_000.0)
            yield from cs.put("ZOMBIE")
            yield from cs.exit()
        except ReproError:
            pass

    def takeover():
        yield sim.timeout(4_000.0)
        client = music.client("Oregon")
        cs = yield from client.critical_section("shared",
                                                timeout_ms=60_000.0)
        inherited = yield from cs.get()
        yield from cs.put("written-by-oregon")
        yield from cs.exit()
        print(f"  [{sim.now:8.1f} ms] Oregon preempted the isolated "
              f"holder and inherited {inherited!r}")

    def incrementer(site, key, rounds):
        client = music.client(site)
        done = 0
        while done < rounds:
            try:
                cs = yield from client.critical_section(key,
                                                        timeout_ms=60_000.0)
                value = yield from cs.get()
                yield from cs.put((value or 0) + 1)
                yield from cs.exit()
                done += 1
            except ReproError:
                yield sim.timeout(500.0)

    procs = [
        sim.process(stalled_holder()),
        sim.process(takeover()),
        sim.process(incrementer("Ohio", "ctr-a", 3)),
        sim.process(incrementer("N.California", "ctr-a", 3)),
        sim.process(incrementer("Oregon", "ctr-b", 3)),
    ]
    for proc in procs:
        sim.run_until_complete(proc, limit=1e9)
    sim.run(until=sim.now + 10_000.0)  # let the detectors quiesce

    print(f"\nsimulated {sim.now / 1_000.0:.1f}s of faults and contention;"
          " the audit report:\n")
    print(music.auditor.render_report(spans=music.obs.tracer.spans))
    music.auditor.assert_clean()

    # The same history re-checks offline, bit-identically.
    buffer = io.StringIO()
    write_audit_jsonl(music.auditor, buffer)
    buffer.seek(0)
    replayed = replay_audit(buffer)
    assert replayed.clean
    assert replayed.counters == music.auditor.counters
    print(f"\noffline replay of the {len(replayed.events)}-event JSONL "
          "history agrees: clean.")
    print("(dump a real run with: python -m repro.obs explain "
          "--audit-jsonl events.jsonl)")


if __name__ == "__main__":
    main()
