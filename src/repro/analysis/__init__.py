"""Result analysis: statistics, the X-B4 cost model, text rendering."""

from .cost_model import CostModel
from .report import render_bars, render_cdf, render_series, render_table
from .stats import cdf_points, percentile, summarize

__all__ = [
    "CostModel",
    "cdf_points",
    "percentile",
    "render_bars",
    "render_cdf",
    "render_series",
    "render_table",
    "summarize",
]
