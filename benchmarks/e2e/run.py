#!/usr/bin/env python3
"""The repo's benchmark: six workloads, end to end and layer by layer.

    python3 benchmarks/e2e/run.py                      # every workload, E2E metrics
    python3 benchmarks/e2e/run.py --trace 1            # every workload, per-layer metrics
    python3 benchmarks/e2e/run.py --workload bigscale --seed 3 --seconds 10 --trace 0
    python3 benchmarks/e2e/run.py --compare out/e2e-a.json out/e2e-b.json
    python3 benchmarks/e2e/run.py --repeat-check       # two full sets must agree

With ``--workload`` it measures that one workload in this process and
prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
contract of ``BENCHMARK.json`` at the repo root, which also names every
metric, its unit, direction and regression bound).  Without it, each
workload runs in a fresh child process and the set is written to
``out/e2e-<label>.json``.  Any failed correctness check makes the exit
code non-zero.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for _entry in (str(ROOT / "src"), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from benchmarks.e2e import layers, workloads  # noqa: E402
from benchmarks.e2e.compare import compare  # noqa: E402
from benchmarks.e2e.workloads import Iteration, percentile  # noqa: E402

SPEC_FILE = ROOT / "BENCHMARK.json"
DEFAULT_OUT = HERE / "out"

MIN_ITERATIONS = {"full": 3, "tiny": 2}
# Set-up takes about a millisecond, so it is sampled many times (the
# live cluster's 0.15 s shutdown drain caps its count through the budget).
SETUP_SAMPLES = {"full": 40, "tiny": 2}
SETUP_BUDGET_S = 2.0
# Loop iterations per CPU second of the HostSpeed thread on the sandbox
# this was built on, on a good minute.  It only fixes the unit: the
# simulated workloads' host seconds are seconds of a host this fast, and
# every ratio between two runs is the same whatever its value.
REFERENCE_RATE = 1.0e7
# Each of the seventeen layer drives gets this share of --seconds.
DRIVE_SHARE = 0.03
MIN_DRIVE_S = 0.05


def load_spec() -> Dict[str, Any]:
    return json.loads(SPEC_FILE.read_text())


def environment() -> Dict[str, Any]:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "hashseed": os.environ.get("PYTHONHASHSEED"),
    }


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- one workload, tracing off ----------------------------------------------------


class HostSpeed(threading.Thread):
    """Measures how fast this host is *while* a workload runs.

    The sandbox this was built on runs identical code up to 50 % slower
    or faster from one second to the next and from one minute to the
    next; ten unscaled runs spread wider than the widest bound
    BENCHMARK.json may state.  This thread runs a fixed
    dict-and-arithmetic loop in short bursts beside the workload — they
    take turns on the interpreter lock, a few milliseconds each, on the
    one CPU the process is pinned to — and both are billed in their own
    thread's CPU seconds, so a slow second slows both alike.  The
    workload's seconds times ``speed`` are seconds at REFERENCE_RATE.
    (A probe before and after each iteration instead of a thread beside
    it does not work: the speed changes within an iteration.)
    """

    BURST_S = 0.003
    REST_S = 0.012

    def __init__(self) -> None:
        super().__init__(daemon=True)
        self._halt = False
        self._done = 0
        self._cpu_s = 0.0
        self.speed = 1.0

    def run(self) -> None:
        began = time.thread_time()
        done = 0
        bucket: Dict[int, float] = {}
        while not self._halt:
            burst_end = time.thread_time() + self.BURST_S
            while time.thread_time() < burst_end:
                for _ in range(1_000):
                    key = done & 1023
                    bucket[key] = bucket.get(key, 0.0) + 1.5
                    done += 1
            self._done = done
            self._cpu_s = time.thread_time() - began
            time.sleep(self.REST_S)

    def __enter__(self) -> "HostSpeed":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._halt = True
        self.join()
        if self._cpu_s > 0.0:
            self.speed = self._done / self._cpu_s / REFERENCE_RATE


@contextlib.contextmanager
def pinned_to_one_cpu():
    """Keep the workload and its HostSpeed thread on the same CPU: each
    virtual CPU here has its own speed (one ran 30 % faster than the
    other for minutes), so a meter on another CPU measures nothing."""
    if not hasattr(os, "sched_setaffinity"):
        yield
        return
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


def _metered(call: Callable[[], Any], live: bool) -> Tuple[Any, float]:
    """``call()`` and the host speed while it ran.  live_cs gets no meter
    and speed 1: it spends its time waiting on real timers and sockets,
    its wall-clock numbers do not follow the host's speed, and a second
    busy thread would only get in its event loop's way."""
    if live:
        return call(), 1.0
    with HostSpeed() as host:
        result = call()
    return result, host.speed


def _iterate(
    name: str, seed: int, seconds: float, scale: str, out_dir: Path
) -> Tuple[List[Iteration], List[float], List[float], float]:
    """Repeat ``name`` for about ``seconds`` (at least MIN_ITERATIONS
    times), then sample set-up; returns the iterations, the host speed
    around each, the scaled set-up samples and the first iteration's
    peak RSS."""
    live = workloads.is_live(name)
    began = time.perf_counter()
    iterations: List[Iteration] = []
    speeds: List[float] = []
    spent: List[float] = []
    while True:
        started = time.perf_counter()
        iteration, speed = _metered(
            lambda: workloads.run_once(name, seed, scale, out_dir), live
        )
        iterations.append(iteration)
        speeds.append(speed)
        spent.append(time.perf_counter() - started)
        if len(iterations) == 1:
            # One iteration's high-water mark: how many more fit into
            # --seconds must not move the memory metric.
            rss_mb = peak_rss_mb()
        elapsed = time.perf_counter() - began
        if (
            len(iterations) >= MIN_ITERATIONS[scale]
            and elapsed + statistics.median(spent) > seconds
        ):
            break
    setups = [it.setup_s * speed for it, speed in zip(iterations, speeds)]

    def sample_setups() -> List[float]:
        extra: List[float] = []
        sampling = time.perf_counter()
        while (
            len(setups) + len(extra) < SETUP_SAMPLES[scale]
            and time.perf_counter() - sampling < SETUP_BUDGET_S
        ):
            extra.append(workloads.sample_setup(name, seed, scale, out_dir))
        return extra

    extra, speed = _metered(sample_setups, live)
    setups.extend(sample * speed for sample in extra)
    return iterations, speeds, setups, rss_mb


def measure(name: str, seed: int, seconds: float, scale: str, out_dir: Path) -> Dict[str, Any]:
    """Run ``name`` repeatedly and reduce the iterations to the
    end-to-end metrics."""
    live = workloads.is_live(name)
    with contextlib.nullcontext() if live else pinned_to_one_cpu():
        iterations, speeds, setups, rss_mb = _iterate(name, seed, seconds, scale, out_dir)

    # Host seconds: thread CPU seconds for a simulated workload (it never
    # sleeps, and the meter thread's turns must not count), wall for live.
    host_s = [it.wall_s if live else it.cpu_s for it in iterations]
    samples = {
        "ops_per_s": [
            it.ops / (busy * speed) for it, busy, speed in zip(iterations, host_s, speeds)
        ],
        "setup_s": setups,
        "peak_rss_mb": [rss_mb],
        "op_p50_ms": [percentile(it.latencies_ms, 0.50) for it in iterations],
        "op_p90_ms": [percentile(it.latencies_ms, 0.90) for it in iterations],
        "clock_ops_per_s": [1000.0 * it.ops / it.clock_ms for it in iterations],
        "attempts_per_op": [it.attempts / it.ops for it in iterations],
    }
    if live:
        # Wall-clock latencies: one percentile of every iteration's
        # latencies pooled (240+ samples), not a median of per-iteration
        # percentiles of 80 (sim iterations are identical anyway).  It is
        # the single sample, so --compare judges the number printed.
        pooled = sorted(ms for it in iterations for ms in it.latencies_ms)
        samples["op_p50_ms"] = [percentile(pooled, 0.50)]
        samples["op_p90_ms"] = [percentile(pooled, 0.90)]
    values = {metric: statistics.median(values) for metric, values in samples.items()}

    checks = [list(check) for it in iterations for check in it.checks]
    fingerprints = [it.fingerprint for it in iterations]
    if not live:
        checks.append([
            "sim fingerprint identical across iterations",
            len(set(fingerprints)) == 1, f"{len(set(fingerprints))} distinct",
        ])
    return {
        "correct": all(ok for _name, ok, _detail in checks),
        "attempted": sum(it.ops + it.failed for it in iterations),
        "failed": sum(it.failed for it in iterations),
        "values": values,
        "samples": samples,
        "iterations": len(iterations),
        "unscaled_ops_per_s": [it.ops / busy for it, busy in zip(iterations, host_s)],
        "host_speed": speeds,
        "latency_samples": sum(len(it.latencies_ms) for it in iterations),
        "fingerprint": fingerprints[0],
        "checks": checks,
    }


# -- one workload, traced ------------------------------------------------------------


def trace(name: str, seed: int, seconds: float, scale: str, out_dir: Path) -> Dict[str, Any]:
    budget = max(MIN_DRIVE_S, DRIVE_SHARE * seconds)
    result = layers.traced_pass(name, seed, scale, out_dir, budget)
    iterations: List[Iteration] = result["iterations"]
    checks = [list(check) for it in iterations for check in it.checks]
    traced = iterations[-1]
    return {
        "correct": all(ok for _name, ok, _detail in checks),
        "attempted": traced.ops + traced.failed,
        "failed": traced.failed,
        "values": result["metrics"],
        "reconstruction": result["reconstruction"],
        "bench_spans": result["bench_spans"],
        "fingerprint": traced.fingerprint,
        "checks": checks,
    }


# -- printing -------------------------------------------------------------------------


def _spread(samples: List[float]) -> str:
    if len(samples) < 2:
        return ""
    return f"  [min {min(samples):.5g}, max {max(samples):.5g}, n={len(samples)}]"


def render(name: str, outcome: Dict[str, Any], metrics: List[Dict[str, Any]]) -> List[str]:
    lines = []
    samples = outcome.get("samples", {})
    for metric in metrics:
        value = outcome["values"][metric["name"]]
        note = f"{metric['better']} is better"
        if "bound" in metric:
            note += f", bound {metric['bound']:.0%}"
        lines.append(
            f"{name:<16}{metric['name']:<30}{value:>14.6g} {metric['unit']:<6}"
            f"({note}){_spread(samples.get(metric['name'], []))}"
        )
    if "iterations" in outcome:
        lines.append(
            f"{name:<16}one op = {workloads.OP_UNITS[name]}; "
            f"{outcome['iterations']} iterations, {outcome['latency_samples']} "
            f"latency samples, sim fingerprint {outcome['fingerprint']}"
        )
        if not workloads.is_live(name):
            lines.append(
                f"{name:<16}host speed {statistics.median(outcome['host_speed']):.3f} "
                f"of reference; unscaled ops_per_s "
                f"{statistics.median(outcome['unscaled_ops_per_s']):.6g}"
            )
    rows = outcome.get("reconstruction")
    if rows is not None:
        values = outcome["values"]
        host = values["recon.host_us_per_op"]
        lines.append(
            f"{name:<16}reconstruction of {host:.1f} host µs per op "
            f"(untraced): layer unit, calls/op x self µs/call = µs/op (share)"
        )
        for unit, per_op, cost, total in sorted(rows, key=lambda row: -row[3]):
            share = total / host if host else 0.0
            lines.append(
                f"{name:<16}  {unit:<20}{per_op:>10.2f} x {cost:>9.2f} = "
                f"{total:>10.1f} ({share:.1%})"
            )
        layers_us: Dict[str, float] = {}
        for unit, _per_op, _cost, total in rows:
            layer = unit.split(".")[0]
            layers_us[layer] = layers_us.get(layer, 0.0) + total
        by_layer = ", ".join(
            f"{layer} {total / host:.1%}"
            for layer, total in sorted(layers_us.items(), key=lambda item: -item[1])
        )
        lines.append(f"{name:<16}  by layer: {by_layer}")
        explained = values["recon.explained_us_per_op"]
        lines.append(
            f"{name:<16}  explained {explained:.1f} µs/op; unexplained residual "
            f"{host - explained:.1f} µs/op ({values['recon.residual_frac']:.1%} of host time)"
        )
    for check_name, ok, detail in outcome["checks"]:
        if not ok:
            lines.append(f"{name:<16}CHECK FAILED: {check_name} ({detail})")
    return lines


# -- the driver's entry: one workload in this process ---------------------------------


def run_workload(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    out_dir = Path(args.out_dir)
    if args.trace:
        outcome = trace(args.workload, args.seed, args.seconds, args.scale, out_dir)
        metrics = spec["per_layer"]
    else:
        outcome = measure(args.workload, args.seed, args.seconds, args.scale, out_dir)
        metrics = spec["end_to_end"]
    names = [metric["name"] for metric in metrics]
    unknown = sorted(set(outcome["values"]) - set(names))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    # A layer a workload never touches reports 0 for that layer's counters.
    outcome["values"] = {name: float(outcome["values"].get(name, 0.0)) for name in names}

    for line in render(args.workload, outcome, metrics):
        print(line)
    detail = dict(
        outcome, workload=args.workload, seed=args.seed, scale=args.scale,
        seconds=args.seconds, trace=args.trace, env=environment(),
        default_seed=workloads.DEFAULT_SEEDS[args.workload],
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"run-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1)
    )
    units = {metric["name"]: metric["unit"] for metric in metrics}
    print(json.dumps({
        "correct": outcome["correct"],
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in outcome["values"].items()
        },
    }))
    return 0 if outcome["correct"] else 1


# -- every workload, one fresh child process each -----------------------------------


def run_all(args: argparse.Namespace, spec: Dict[str, Any], label: str) -> Optional[Dict[str, Any]]:
    """Run the whole set; returns the result document, or None if any
    child failed a correctness check."""
    out_dir = Path(args.out_dir)
    document: Dict[str, Any] = {
        "label": label, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "trace": args.trace, "env": environment(),
        "workloads": {},
    }
    ok = True
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--scale", args.scale,
                "--out-dir", str(out_dir),
            ],
            env=dict(os.environ, PYTHONHASHSEED="0"),
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0:
            print(f"{name:<16}FAILED (exit code {child.returncode})")
            ok = False
            continue
        detail = json.loads((out_dir / f"run-{name}-trace{args.trace}.json").read_text())
        document["workloads"][name] = detail
    target = out_dir / f"e2e-{label}.json"
    target.write_text(json.dumps(document, indent=1))
    print(f"wrote {target}")
    return document if ok else None


def repeat_check(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    first = run_all(args, spec, "repeat-a")
    second = run_all(args, spec, "repeat-b")
    if first is None or second is None:
        return 1
    lines, _regressed, agree = compare(first, second, spec["end_to_end"])
    print("\n".join(lines))
    print("repeat check:", "sets agree within every bound" if agree else "DISAGREEMENT")
    return 0 if agree else 1


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="measure this one in-process")
    parser.add_argument("--seed", type=int, default=0,
                        help="offset added to every workload's default seed")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced pass: per-layer metrics instead")
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    parser.add_argument("--out-dir", default=str(DEFAULT_OUT))
    parser.add_argument("--label", default="latest", help="names out/e2e-<label>.json")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--repeat-check", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        base, other = (json.loads(Path(path).read_text()) for path in args.compare)
        lines, regressed, _agree = compare(base, other, spec["end_to_end"])
        print("\n".join(lines))
        return 1 if regressed else 0
    if args.repeat_check:
        return repeat_check(args, spec)
    if args.workload:
        return run_workload(args, spec)
    return 0 if run_all(args, spec, args.label) is not None else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # Pin str hashing so set/dict iteration cannot differ between runs.
        os.execve(
            sys.executable, [sys.executable, *sys.argv],
            dict(os.environ, PYTHONHASHSEED="0"),
        )
    raise SystemExit(main())
