"""YCSB-style workloads (Appendix X-B2).

The paper runs three mixes over tuples "selected randomly with a
Zipfian distribution": R (reads only), UR (50% reads / 50% updates) and
U (updates only), with ~5.5% lock collisions among 10,000 operations.
``ZipfianGenerator`` is the standard YCSB skewed-key generator
(Gray et al.'s algorithm, as in the YCSB ``ZipfianGenerator`` class).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Tuple, Union

__all__ = [
    "ZipfianGenerator",
    "YcsbWorkload",
    "TxnSpec",
    "TxnMix",
    "txn_mix",
    "PAPER_YCSB_WORKLOADS",
    "READ_HEAVY_YCSB_WORKLOADS",
]

ZIPFIAN_CONSTANT = 0.99


class ZipfianGenerator:
    """Draws integers in [0, item_count) with a Zipfian distribution."""

    def __init__(self, item_count: int, rng: random.Random,
                 constant: float = ZIPFIAN_CONSTANT) -> None:
        if item_count < 1:
            raise ValueError("need at least one item")
        self.item_count = item_count
        self.rng = rng
        self.theta = constant
        self.zeta_n = self._zeta(item_count, constant)
        self.alpha = 1.0 / (1.0 - constant)
        self.zeta_2 = self._zeta(2, constant)
        self.eta = (1 - (2.0 / item_count) ** (1 - constant)) / (
            1 - self.zeta_2 / self.zeta_n
        )

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        return sum(1.0 / (i ** theta) for i in range(1, n + 1))

    def next(self) -> int:
        u = self.rng.random()
        uz = u * self.zeta_n
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.item_count * (self.eta * u - self.eta + 1) ** self.alpha)


@dataclass(frozen=True)
class YcsbWorkload:
    """A named read/update mix."""

    name: str
    read_fraction: float

    def operations(
        self,
        op_count: int,
        key_count: int,
        rng: random.Random,
        key_prefix: str = "ycsb",
    ) -> Iterator[Tuple[str, str]]:
        """Yield (op, key) pairs: op is 'read' or 'update'."""
        zipf = ZipfianGenerator(key_count, rng)
        for _ in range(op_count):
            op = "read" if rng.random() < self.read_fraction else "update"
            yield op, f"{key_prefix}-{zipf.next()}"


@dataclass(frozen=True)
class TxnSpec:
    """One multi-key transaction: which keys it reads and writes.

    ``write_keys`` is always a subset of ``keys`` and every written key
    is also read (read-modify-write, the contention-relevant shape);
    ``read_keys`` are the keys only read.
    """

    keys: Tuple[str, ...]          # the full (sorted, distinct) key set
    read_keys: Tuple[str, ...]     # read-only keys
    write_keys: Tuple[str, ...]    # read-modify-write keys


@dataclass(frozen=True)
class TxnMix:
    """A YCSB-style transactional mix over a Zipfian key population.

    ``keys_per_txn`` is either a fixed size or an inclusive ``(lo, hi)``
    range drawn uniformly per transaction; ``read_fraction`` is the
    probability that a chosen key is read-only (vs read-modify-write);
    ``zipf_theta`` is the Zipfian skew constant (θ < 1; higher = more
    contended head).
    """

    keys_per_txn: Union[int, Tuple[int, int]]
    read_fraction: float
    zipf_theta: float

    def transactions(
        self,
        txn_count: int,
        key_count: int,
        rng: random.Random,
        key_prefix: str = "txn",
    ) -> Iterator[TxnSpec]:
        """Yield ``txn_count`` multi-key read/write sets."""
        if isinstance(self.keys_per_txn, int):
            lo = hi = self.keys_per_txn
        else:
            lo, hi = self.keys_per_txn
        if lo < 1 or hi < lo:
            raise ValueError(f"bad keys_per_txn range ({lo}, {hi})")
        if hi > key_count:
            raise ValueError("keys_per_txn exceeds the key population")
        zipf = ZipfianGenerator(key_count, rng, constant=self.zipf_theta)
        for _ in range(txn_count):
            size = lo if lo == hi else rng.randint(lo, hi)
            chosen: List[int] = []
            while len(chosen) < size:
                item = zipf.next()
                if item not in chosen:
                    chosen.append(item)
            reads: List[str] = []
            writes: List[str] = []
            for item in chosen:
                key = f"{key_prefix}-{item}"
                if rng.random() < self.read_fraction:
                    reads.append(key)
                else:
                    writes.append(key)
            if not reads and not writes:  # pragma: no cover - size >= 1
                continue
            all_keys = tuple(sorted(reads + writes))
            yield TxnSpec(
                keys=all_keys,
                read_keys=tuple(sorted(reads)),
                write_keys=tuple(sorted(writes)),
            )


def txn_mix(
    keys_per_txn: Union[int, Tuple[int, int]],
    read_fraction: float,
    zipf_theta: float,
) -> TxnMix:
    """The transactional mix generator of the ``txn_regimes`` bench axis."""
    return TxnMix(
        keys_per_txn=keys_per_txn,
        read_fraction=read_fraction,
        zipf_theta=zipf_theta,
    )


# The three mixes of X-B2.
PAPER_YCSB_WORKLOADS: List[YcsbWorkload] = [
    YcsbWorkload("R", read_fraction=1.0),
    YcsbWorkload("UR", read_fraction=0.5),
    YcsbWorkload("U", read_fraction=0.0),
]

# Standard YCSB read-heavy mixes (B: 95/5, C: read-only) — the mixes the
# read scale-out tier (DESIGN.md §8) targets.
READ_HEAVY_YCSB_WORKLOADS: List[YcsbWorkload] = [
    YcsbWorkload("B", read_fraction=0.95),
    YcsbWorkload("C", read_fraction=1.0),
]
