"""Regenerate the read scale-out axis (DESIGN.md §8).

Leaseholder local reads vs the quorum baseline under a read-heavy
ownership workload; shape checks assert the >=3x read throughput,
>=2x lower read p99, >=80% local-hit rate, and a clean ECF audit
(including the LeaseSafety and MonotonicReads checkers) in both modes.
"""


def test_read_scaleout(regenerate):
    regenerate("read_scaleout")
