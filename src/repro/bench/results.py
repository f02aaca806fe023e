"""The shared ``benchmarks/results/BENCH_*.json`` writer.

Every benchmark axis used to emit its own ad-hoc JSON shape, which meant
each new tool that wanted to read results (CI comparisons, the report
CLI) had to special-case four files.  This
module fixes the envelope once:

.. code-block:: json

    {
      "schema": "repro.bench/v1",
      "name": "contention",
      "seed": 606,
      "timestamp": 1723111111.0,
      "config": {"scale": "quick", "clients": 16},
      "metrics": {"speedup_cs_per_sec": 2.1, "modes": ["..."]}
    }

``name``/``config``/``seed``/``metrics``/``timestamp`` are all passed in
by the caller — the writer adds nothing implicit (no clock reads, no env
sniffing), so emitting the same data twice produces byte-identical files
and committed baselines stay diff-clean.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, Optional

__all__ = [
    "BENCH_SCHEMA",
    "bench_record",
    "results_dir",
    "write_bench_json",
    "load_bench_json",
]

BENCH_SCHEMA = "repro.bench/v1"


def results_dir() -> pathlib.Path:
    """``benchmarks/results/`` at the repository root."""
    return pathlib.Path(__file__).resolve().parents[3] / "benchmarks" / "results"


def bench_record(
    name: str,
    config: Dict[str, Any],
    seed: Optional[int],
    metrics: Dict[str, Any],
    timestamp: Optional[float] = None,
) -> Dict[str, Any]:
    """The unified result envelope (a plain dict, ready to serialize)."""
    return {
        "schema": BENCH_SCHEMA,
        "name": name,
        "seed": seed,
        "timestamp": timestamp,
        "config": config,
        "metrics": metrics,
    }


def write_bench_json(
    name: str,
    config: Dict[str, Any],
    seed: Optional[int],
    metrics: Dict[str, Any],
    timestamp: Optional[float] = None,
    filename: Optional[str] = None,
) -> Optional[pathlib.Path]:
    """Write ``BENCH_<name>.json`` (one snapshot, overwriting).

    Returns the written path, or None on a read-only checkout — the
    benchmarks still carry their data in-process, so failure to persist
    is never fatal (mirrors the previous per-emitter behaviour).
    """
    record = bench_record(name, config, seed, metrics, timestamp)
    target = results_dir() / (filename or f"BENCH_{name}.json")
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(record, indent=2, sort_keys=False) + "\n")
    except OSError:
        return None
    return target


def load_bench_json(path: Any) -> Dict[str, Any]:
    """Load and validate a BENCH file.

    Raises ``ValueError`` if the file does not carry the shared schema,
    so readers never compare apples to pre-v1 oranges.
    """
    text = pathlib.Path(path).read_text()
    document = json.loads(text)
    if not isinstance(document, dict) or document.get("schema") != BENCH_SCHEMA:
        raise ValueError(
            f"{path} does not carry schema {BENCH_SCHEMA!r} "
            f"(found {document.get('schema') if isinstance(document, dict) else type(document).__name__!r})"
        )
    return document
