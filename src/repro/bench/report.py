"""Statistics and plain-text rendering for experiment results: summary
statistics, percentiles and CDFs of latency samples, and the renderers
of the tables and figure series every scenario emits."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

__all__ = [
    "Summary",
    "cdf_points",
    "percentile",
    "render_cdf",
    "render_series",
    "render_table",
    "summarize",
]

# -- statistics ----------------------------------------------------------------


@dataclass
class Summary:
    """Mean/σ/percentile summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    p50: float
    p95: float
    p99: float
    maximum: float

    def __str__(self) -> str:
        return (
            f"n={self.count} mean={self.mean:.2f} std={self.std:.2f} "
            f"p50={self.p50:.2f} p95={self.p95:.2f} p99={self.p99:.2f}"
        )


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Linear-interpolation percentile of pre-sorted values."""
    if not sorted_values:
        raise ValueError("empty sample")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0,1], got {fraction}")
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = fraction * (len(sorted_values) - 1)
    lower = int(math.floor(position))
    upper = int(math.ceil(position))
    if lower == upper:
        return sorted_values[lower]
    weight = position - lower
    interpolated = sorted_values[lower] * (1 - weight) + sorted_values[upper] * weight
    # Clamp: float interpolation may overshoot its endpoints by an ulp,
    # which would break monotonicity across percentiles.
    return min(max(interpolated, sorted_values[lower]), sorted_values[upper])


def summarize(values: Sequence[float]) -> Summary:
    if not values:
        raise ValueError("cannot summarize an empty sample")
    ordered = sorted(values)
    count = len(ordered)
    mean = sum(ordered) / count
    variance = sum((v - mean) ** 2 for v in ordered) / count
    return Summary(
        count=count,
        mean=mean,
        std=math.sqrt(variance),
        minimum=ordered[0],
        p50=percentile(ordered, 0.50),
        p95=percentile(ordered, 0.95),
        p99=percentile(ordered, 0.99),
        maximum=ordered[-1],
    )


def cdf_points(values: Sequence[float], points: int = 50) -> List[Tuple[float, float]]:
    """(value, cumulative fraction) pairs for plotting a latency CDF."""
    if not values:
        raise ValueError("cannot build a CDF from an empty sample")
    ordered = sorted(values)
    count = len(ordered)
    step = max(1, count // points)
    out: List[Tuple[float, float]] = []
    for index in range(0, count, step):
        out.append((ordered[index], (index + 1) / count))
    if out[-1][0] != ordered[-1]:
        out.append((ordered[-1], 1.0))
    return out


# -- rendering -----------------------------------------------------------------


def render_table(title: str, headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """An aligned ASCII table with a title rule."""
    materialized: List[List[str]] = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in materialized:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_series(title: str, x_label: str, series: dict, x_values: Sequence) -> str:
    """A table with one row per x value and one column per named series."""
    headers = [x_label] + list(series)
    rows = []
    for index, x in enumerate(x_values):
        rows.append([x] + [series[name][index] for name in series])
    return render_table(title, headers, rows)


def render_cdf(title: str, cdfs: dict, points: int = 10) -> str:
    """Quantile rows for each named CDF ({name: [(value, frac), ...]})."""
    fractions = [i / points for i in range(1, points + 1)]
    headers = ["pctile"] + list(cdfs)
    rows: List[List] = []
    for fraction in fractions:
        row: List = [f"{fraction * 100:.0f}%"]
        for name in cdfs:
            row.append(_value_at(cdfs[name], fraction))
        rows.append(row)
    return render_table(title, headers, rows)


def _value_at(cdf: List[Tuple[float, float]], fraction: float) -> float:
    for value, cumulative in cdf:
        if cumulative >= fraction:
            return value
    return cdf[-1][0]


def _fmt(cell) -> str:
    if isinstance(cell, float):
        if cell >= 1000:
            return f"{cell:,.0f}"
        if cell >= 10:
            return f"{cell:.1f}"
        return f"{cell:.2f}"
    return str(cell)
