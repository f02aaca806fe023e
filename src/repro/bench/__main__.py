"""CLI: regenerate the paper's tables and figures.

Usage::

    python -m repro.bench              # run everything
    python -m repro.bench --list       # one line per scenario id
    python -m repro.bench fig6a fig8   # run a subset
    python -m repro.bench --audit fig8 # with the runtime ECF auditor on
    REPRO_BENCH_SCALE=full python -m repro.bench
"""

from __future__ import annotations

import sys
import time

from . import EXPERIMENTS, run_experiment
from .scenario import scale_name


def main(argv: list) -> int:
    audit = "--audit" in argv
    if audit:
        argv = [arg for arg in argv if arg != "--audit"]
        print("runtime ECF auditor: ON (every MUSIC deployment is checked)")
    if argv and argv[0] in ("--list", "-l"):
        for exp_id, declared in EXPERIMENTS.items():
            print(f"{exp_id:18s} {declared.doc}")
        return 0
    wanted = argv or list(EXPERIMENTS)
    unknown = [exp_id for exp_id in wanted if exp_id not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; available: {sorted(EXPERIMENTS)}")
        return 2
    print(f"scale preset: {scale_name()} (set REPRO_BENCH_SCALE=full for paper-sized runs)")
    failures = 0
    for exp_id in wanted:
        started = time.time()
        result = run_experiment(exp_id, audit=audit)
        elapsed = time.time() - started
        print()
        print(result.text)
        print(result.check_report())
        print(f"  ({elapsed:.1f}s wall clock)")
        if not result.ok:
            failures += 1
    print()
    print(f"{len(wanted) - failures}/{len(wanted)} experiments matched the paper's shape")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
