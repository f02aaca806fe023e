"""The live-mode baseline's shape checks (BENCH_live.json).

A real 3-node localhost cluster (one OS process per node, asyncio TCP)
runs >= 200 audited critical sections; the shape checks require zero
merged-audit violations, exact final counters, and clean SIGTERM exits.

Its numbers are wall-clock and differ on every run, so under pytest the
BENCH file and the rendered table go to ``tmp_path``: the committed
``benchmarks/results/BENCH_live.json`` and ``live_localcluster.txt``
change only when someone runs ``python -m repro.bench live_localcluster``
on purpose.
"""


def test_live_localcluster(regenerate, tmp_path):
    regenerate("live_localcluster", results_dir=tmp_path)
    assert (tmp_path / "BENCH_live.json").exists()
