"""Workload generators: sized values, key ranges, YCSB mixes."""

from .generator import (
    PAPER_BATCH_SIZES,
    PAPER_DATA_SIZES,
    KeyRange,
    SizedValue,
    value_of_size,
)
from .ycsb import (
    PAPER_YCSB_WORKLOADS,
    READ_HEAVY_YCSB_WORKLOADS,
    TxnMix,
    TxnSpec,
    YcsbWorkload,
    ZipfianGenerator,
    txn_mix,
)

__all__ = [
    "KeyRange",
    "PAPER_BATCH_SIZES",
    "PAPER_DATA_SIZES",
    "PAPER_YCSB_WORKLOADS",
    "READ_HEAVY_YCSB_WORKLOADS",
    "SizedValue",
    "TxnMix",
    "TxnSpec",
    "YcsbWorkload",
    "ZipfianGenerator",
    "txn_mix",
    "value_of_size",
]
