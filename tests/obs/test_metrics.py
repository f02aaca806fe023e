"""Metrics registry: counters, gauges, and histogram quantiles."""

import random

from repro.obs import MetricsRegistry
from repro.obs.metrics import Histogram


def test_counter_labels_are_distinct_instruments():
    registry = MetricsRegistry()
    registry.counter("rpc", kind="read").inc()
    registry.counter("rpc", kind="read").inc(2)
    registry.counter("rpc", kind="write").inc()
    assert registry.counter("rpc", kind="read").value == 3
    assert registry.counter("rpc", kind="write").value == 1
    assert registry.total("rpc") == 4


def test_gauge_holds_the_last_value_set():
    registry = MetricsRegistry()
    registry.gauge("queue_depth", node="a").set(5)
    registry.gauge("queue_depth", node="a").set(3)
    assert registry.gauge("queue_depth", node="a").value == 3
    assert registry.total("queue_depth") == 3


def test_histogram_quantiles_against_sorted_sample_oracle():
    rng = random.Random(7)
    samples = [rng.uniform(0.01, 5_000.0) for _ in range(5_000)]
    histogram = Histogram("lat", {})
    for sample in samples:
        histogram.observe(sample)

    ordered = sorted(samples)
    for q in (0.5, 0.95, 0.99):
        exact = ordered[min(len(ordered) - 1, int(q * len(ordered)))]
        estimate = histogram.quantile(q)
        # The histogram interpolates within fixed buckets: the estimate
        # must land within one bucket of the exact order statistic.
        bounds = list(histogram.bounds)

        def bucket_of(v):
            return next((i for i, bound in enumerate(bounds) if v <= bound), len(bounds))

        assert abs(bucket_of(estimate) - bucket_of(exact)) <= 1, (
            f"q={q}: estimate {estimate} too far from exact {exact}"
        )

    assert histogram.count == len(samples)
    assert abs(histogram.mean - sum(samples) / len(samples)) < 1e-6


def test_histogram_quantile_clamped_to_observed_range():
    histogram = Histogram("lat", {})
    for _ in range(10):
        histogram.observe(42.0)
    assert histogram.quantile(0.5) == 42.0
    assert histogram.quantile(0.99) == 42.0


def test_histogram_overflow_bucket():
    histogram = Histogram("lat", {}, buckets=(1.0, 10.0))
    histogram.observe(5.0)
    histogram.observe(1_000_000.0)
    assert histogram.count == 2
    # The overflow quantile is clamped to the observed maximum.
    assert histogram.quantile(0.99) == 1_000_000.0


def test_snapshot_and_render():
    registry = MetricsRegistry()
    registry.counter("rpc", kind="read").inc()
    registry.gauge("depth").set(2)
    registry.histogram("lat").observe(3.0)
    snapshot = registry.snapshot()
    assert snapshot["counters"][0]["name"] == "rpc"
    assert snapshot["gauges"][0]["value"] == 2
    assert snapshot["histograms"][0]["count"] == 1
    rendered = registry.render()
    assert "rpc" in rendered and "lat" in rendered
