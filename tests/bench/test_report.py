"""Tests for statistics, the cost model and the text renderers."""

import pytest
from hypothesis import given, strategies as st

from repro.bench.paper import CostModel
from repro.bench.report import (
    cdf_points,
    percentile,
    render_cdf,
    render_series,
    render_table,
    summarize,
)

samples = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), min_size=1, max_size=200
)


class TestStats:
    def test_summary_of_known_sample(self):
        s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
        assert s.count == 5
        assert s.mean == 3.0
        assert s.p50 == 3.0
        assert s.minimum == 1.0
        assert s.maximum == 5.0

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            summarize([])
        with pytest.raises(ValueError):
            cdf_points([])
        with pytest.raises(ValueError):
            percentile([], 0.5)

    def test_percentile_bounds(self):
        ordered = [1.0, 2.0, 3.0]
        assert percentile(ordered, 0.0) == 1.0
        assert percentile(ordered, 1.0) == 3.0
        with pytest.raises(ValueError):
            percentile(ordered, 1.5)

    def test_percentile_interpolates(self):
        assert percentile([0.0, 10.0], 0.25) == 2.5

    @given(values=samples)
    def test_summary_invariants(self, values):
        s = summarize(values)
        assert s.minimum <= s.p50 <= s.p95 <= s.p99 <= s.maximum
        # The mean may drift from the bounds by a float ulp.
        epsilon = 1e-9 * max(1.0, abs(s.maximum))
        assert s.minimum - epsilon <= s.mean <= s.maximum + epsilon
        assert s.std >= 0

    @given(values=samples)
    def test_cdf_monotone_and_complete(self, values):
        points = cdf_points(values)
        fractions = [f for _v, f in points]
        xs = [v for v, _f in points]
        assert fractions == sorted(fractions)
        assert xs == sorted(xs)
        assert fractions[-1] == 1.0
        assert xs[-1] == max(values)

    def test_single_value_percentile(self):
        assert percentile([7.0], 0.5) == 7.0


class TestCostModel:
    def test_paper_formulas(self):
        model = CostModel.generous()
        # 2C + (x+1)Q with C=Q=1.
        assert model.music_critical_section(10) == 2 + 11
        # 2xC.
        assert model.per_update_transactions(10) == 20

    def test_speedup_approaches_two(self):
        model = CostModel.generous()
        assert model.speedup(1000) == pytest.approx(2.0, abs=0.01)
        assert model.speedup(3) == pytest.approx(1.0)

    def test_negative_updates_rejected(self):
        model = CostModel.generous()
        with pytest.raises(ValueError):
            model.music_critical_section(-1)
        with pytest.raises(ValueError):
            model.per_update_transactions(-1)

    @given(updates=st.integers(min_value=4, max_value=10_000),
           cost=st.floats(min_value=0.1, max_value=1000.0))
    def test_music_always_wins_beyond_three_updates(self, updates, cost):
        model = CostModel.generous(cost)
        assert model.speedup(updates) > 1.0


class TestRenderers:
    def test_render_table_aligns(self):
        text = render_table("Title", ["a", "bb"], [[1, 2.5], ["xx", 30000.0]])
        lines = text.splitlines()
        assert lines[0] == "Title"
        assert "30,000" in text
        # All data rows have equal width columns.
        assert len(lines[2]) == len(lines[3])

    def test_render_series(self):
        text = render_series("S", "x", {"m": [1.0, 2.0], "z": [3.0, 4.0]}, [10, 20])
        assert "10" in text and "m" in text and "4.00" in text

    def test_render_cdf_quantiles(self):
        cdf = [(1.0, 0.5), (2.0, 1.0)]
        text = render_cdf("C", {"sys": cdf}, points=2)
        assert "50%" in text and "100%" in text
