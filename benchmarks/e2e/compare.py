"""Compare two result files of ``run.py``, one row per workload x metric.

Each end-to-end metric carries its samples (one per iteration for host
timings; a single value for memory and for simulated-clock numbers), so
medians, quartiles and the parent's own spread all come from
the file.  Every ratio is printed with its base.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Tuple


def quartiles(samples: List[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``samples``."""
    median = statistics.median(samples)
    if len(samples) < 2:
        return median, median, median
    first, _second, third = statistics.quantiles(samples, n=4)
    return first, median, third


def worsening(base: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``
    (negative = better)."""
    if not base:
        return 0.0
    change = (other - base) / abs(base)
    return -change if better == "higher" else change


def own_spread(samples: List[float]) -> float:
    """A sample's own run-to-run spread as a share of its median: the
    distance between its quartiles (min to max below four samples)."""
    median = statistics.median(samples)
    if not median or len(samples) < 2:
        return 0.0
    if len(samples) < 4:
        return (max(samples) - min(samples)) / abs(median)
    first, _median, third = quartiles(samples)
    return (third - first) / abs(median)


def verdict(base_samples: List[float], other_samples: List[float],
            better: str, bound: float) -> Tuple[str, float]:
    """``better`` / ``same`` / ``worse``, or ``unresolved`` when the
    base's own spread is wider than the bound."""
    base = statistics.median(base_samples)
    worse_by = worsening(base, statistics.median(other_samples), better)
    if own_spread(base_samples) > bound:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "same", worse_by


def compare(base: Dict[str, Any], other: Dict[str, Any],
            end_to_end: List[Dict[str, Any]]) -> Tuple[List[str], bool, bool]:
    """Rendered rows; whether B regressed (a ``worse`` verdict, a
    workload missing, or a same-seed sim fingerprint that differs); and
    whether the two sets agree (no median further from the other than
    its bound in either direction, and no such mismatch) — what two runs
    of one tree must do."""
    lines = [
        f"base  A = {base['label']} (seed {base['seed']})",
        f"other B = {other['label']} (seed {other['seed']})",
        "",
        f"{'workload':<16}{'metric':<17}{'A q1 / median / q3':>36}"
        f"{'B q1 / median / q3':>36}{'B/A':>9}{'bound':>7}  verdict",
    ]
    regressed = False
    agree = True
    for name, a_run in base["workloads"].items():
        b_run = other["workloads"].get(name)
        if b_run is None:
            lines.append(f"{name:<16}missing from B")
            regressed, agree = True, False
            continue
        for metric in end_to_end:
            a_samples = a_run["samples"][metric["name"]]
            b_samples = b_run["samples"][metric["name"]]
            a_q1, a_med, a_q3 = quartiles(a_samples)
            b_q1, b_med, b_q3 = quartiles(b_samples)
            label, worse_by = verdict(
                a_samples, b_samples, metric["better"], metric["bound"]
            )
            if label == "worse":
                regressed = True
            if abs(worse_by) > metric["bound"]:
                agree = False
            ratio = b_med / a_med if a_med else float("nan")
            lines.append(
                f"{name:<16}{metric['name']:<17}"
                f"{f'{a_q1:.4g} / {a_med:.4g} / {a_q3:.4g}':>36}"
                f"{f'{b_q1:.4g} / {b_med:.4g} / {b_q3:.4g}':>36}"
                f"{ratio:>8.3f}x{metric['bound']:>7.0%}  {label} "
                f"(base {a_med:.5g} {metric['unit']})"
            )
        if base["seed"] == other["seed"] and a_run["fingerprint"] != b_run["fingerprint"]:
            lines.append(
                f"{name:<16}sim fingerprint differs ({a_run['fingerprint']} vs "
                f"{b_run['fingerprint']}): simulated timings changed"
            )
            regressed, agree = True, False
    return lines, regressed, agree
