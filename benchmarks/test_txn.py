"""Regenerate the transaction-regime axis (DESIGN.md §9, BENCH_txn.json).

MUSIC locks vs epoch OCC vs SSI at three Zipfian contention levels;
the shape checks require every cell's committed history to pass the
serializability checker, every transaction to commit, the store's final
state to match each key's last committed write, and contention to cost
every engine throughput.
"""


def test_txn_regimes(regenerate):
    regenerate("txn_regimes")
