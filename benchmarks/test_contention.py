"""Regenerate the contention hot-path comparison (BENCH_contention.json).

16 clients hammer one hot key with the DESIGN.md §8 features off, then
on; the shape checks require >= 2x critical sections/sec, a lower p99,
and perfect serialization in both modes.
"""


def test_lock_contention(regenerate):
    regenerate("lock_contention")
