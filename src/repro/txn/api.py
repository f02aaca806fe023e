"""The transaction API: retry executor and deployment runtime handle.

A :class:`TransactionExecutor` drives one transaction body to a commit
or a final failure: it begins a transaction on its engine, runs the
body, commits, and on :class:`~repro.txn.engine.TxnAborted` retries with
capped exponential backoff plus jitter.  The span structure is the
``txn.*`` phase taxonomy of ``repro.obs.critpath``:

    txn.cs                  — the whole transaction, all attempts
      txn.execute           — begin (lock acquisition) + body (reads)
      txn.validate          — commit-time validation (OCC client wait
                              excluded; SSI in-memory checks)
      txn.commit_cs         — installing writes / the group-commit wait
      txn.abort_backoff     — the retry sleep after an abort
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Generator, Optional

from .engine import Transaction, TxnAborted, TxnEngine
from .oracle import CommittedTxn

__all__ = [
    "RetryPolicy",
    "TxnResult",
    "TransactionExecutor",
    "TxnRuntime",
    "rmw_body",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with jitter between transaction attempts."""

    max_retries: int = 8
    backoff_base_ms: float = 25.0
    backoff_factor: float = 2.0
    backoff_cap_ms: float = 2_000.0
    jitter: float = 0.5

    def backoff_ms(self, attempt: int, rng: Any) -> float:
        base = min(
            self.backoff_base_ms * (self.backoff_factor ** attempt),
            self.backoff_cap_ms,
        )
        return base * (1.0 + self.jitter * rng.random())


@dataclass
class TxnResult:
    """Outcome of one executor run (all attempts of one transaction)."""

    committed: bool
    value: Any = None
    record: Optional[CommittedTxn] = None
    attempts: int = 1
    aborts: int = 0
    latency_ms: float = 0.0
    abort_reason: Optional[str] = None


class TransactionExecutor:
    """Runs transaction bodies against one engine with automatic retry."""

    def __init__(
        self,
        engine: TxnEngine,
        client: Any,
        retry: Optional[RetryPolicy] = None,
    ) -> None:
        self.engine = engine
        self.client = client
        self.retry = retry or RetryPolicy()
        self.obs = engine.obs
        self.sim = engine.sim

    def run(
        self,
        spec: Any,
        body: Optional[Callable[[Transaction], Generator[Any, Any, Any]]] = None,
    ) -> Generator[Any, Any, TxnResult]:
        """Execute ``body(txn)`` transactionally; default body is the
        read-modify-write mix over ``spec`` (:func:`rmw_body`)."""
        if body is None:
            body = rmw_body(spec)
        started = self.sim.now
        aborts = 0
        with self.obs.tracer.span(
            "txn.cs", engine=self.engine.name, client=self.client.client_id
        ) as root:
            for attempt in range(self.retry.max_retries + 1):
                txn: Optional[Transaction] = None
                try:
                    with self.obs.tracer.span("txn.execute", attempt=attempt):
                        txn = yield from self.engine.begin(self.client, spec)
                        value = yield from body(txn)
                    record = yield from txn.commit()
                    root.set(committed=True, attempts=attempt + 1)
                    return TxnResult(
                        committed=True,
                        value=value,
                        record=record,
                        attempts=attempt + 1,
                        aborts=aborts,
                        latency_ms=self.sim.now - started,
                    )
                except TxnAborted as abort:
                    aborts += 1
                    self.engine.record_abort(abort.reason)
                    if txn is not None:
                        yield from txn.abort()
                    if attempt >= self.retry.max_retries:
                        root.set(committed=False, attempts=attempt + 1)
                        return TxnResult(
                            committed=False,
                            attempts=attempt + 1,
                            aborts=aborts,
                            latency_ms=self.sim.now - started,
                            abort_reason=abort.reason,
                        )
                    with self.obs.tracer.span(
                        "txn.abort_backoff", reason=abort.reason
                    ):
                        yield self.sim.timeout(
                            self.retry.backoff_ms(attempt, self.client.rng)
                        )
        raise AssertionError("unreachable")  # pragma: no cover


def rmw_body(spec: Any) -> Callable[[Transaction], Generator[Any, Any, Any]]:
    """The standard bench body for a :class:`~repro.workloads.TxnSpec`:
    read the read-only keys, then read-modify-write (integer increment)
    each write key.  Returns the map of values written."""

    def body(txn: Transaction) -> Generator[Any, Any, Dict[str, Any]]:
        for key in spec.read_keys:
            yield from txn.get(key)
        written: Dict[str, Any] = {}
        for key in spec.write_keys:
            value = yield from txn.get(key)
            value = (value or 0) + 1
            yield from txn.put(key, value)
            written[key] = value
        return written

    return body


class TxnRuntime:
    """``deployment.txn`` — engine/executor factories for one deployment.

    Constructing the runtime allocates nothing on the simulator: engines
    are created on demand and only the OCC engine spawns a process (its
    epoch sealer), and only once started.  A deployment imports this
    module only when its ``txn`` is first touched.

    One concurrency-control regime owns a key space at a time: an
    engine's version bookkeeping (and the serializability checker run
    over its committed history) assumes every write to its keys went
    through it, so comparing regimes means one deployment per engine on
    identical spec streams (what the bench and tests do), not several
    engines sharing keys — reads observing a foreign engine's writes
    are indistinguishable from phantom versions.
    """

    def __init__(self, deployment: Any) -> None:
        self.deployment = deployment
        self._engines: Dict[str, TxnEngine] = {}

    def engine(self, name: str, **kwargs: Any) -> TxnEngine:
        """The (cached, per-name) engine instance for this deployment."""
        if name not in self._engines:
            from . import ENGINES  # late import: subclasses import api

            if name not in ENGINES:
                raise KeyError(
                    f"unknown txn engine {name!r}; have {sorted(ENGINES)}"
                )
            self._engines[name] = ENGINES[name](self.deployment, **kwargs)
        return self._engines[name]

    def executor(
        self,
        engine: Any,
        client: Optional[Any] = None,
        retry: Optional[RetryPolicy] = None,
    ) -> TransactionExecutor:
        if isinstance(engine, str):
            engine = self.engine(engine)
        if client is None:
            client = self.deployment.client(self.deployment.profile.site_names[0])
        return TransactionExecutor(engine, client, retry=retry)

    def stop(self) -> None:
        for engine in self._engines.values():
            engine.stop()
