"""The scenario registry, the one runner and the one emitter.

An experiment is a *declared scenario*: ``@scenario(id, title, quick=,
full=, bench=, seed=)`` over a body ``(run) -> ExperimentResult``.  The
body states its grid and its ``measure(cell)``, has the run walk the
grid (:meth:`Run.sweep` for a figure's x-values x systems), and ends by
handing its shape checks and rows to one of :meth:`Run.table`,
:meth:`Run.rows`, :meth:`Run.series` or :meth:`Run.cdf` — plus, for a
scenario that names a ``bench``, the ``BENCH_<bench>.json`` payload.

:func:`run_experiment` is the only runner: it resolves the scenario's
own preset into a :class:`Run`, which is also what builds the
deployments — that is how ``--audit`` attaches the runtime auditor —
and appends the audit check.  :meth:`Run.emit` is the only emitter.

Scale: presets default to ``quick`` (minutes for the whole suite); set
``REPRO_BENCH_SCALE=full`` for paper-sized sweeps.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..baselines.mscp import MscpReplica
from ..core import MusicConfig, build_music
from ..core.deployment import MusicDeployment
from .report import cdf_points, render_cdf, render_series, render_table
from .results import write_bench_json

__all__ = [
    "EXPERIMENTS",
    "PAPER_MUSIC",
    "ExperimentResult",
    "Run",
    "Scenario",
    "paper_scenario",
    "run_experiment",
    "scale_name",
    "scenario",
]

Check = Tuple[str, bool]

# The paper's own protocol — the polling acquire, one Paxos round per
# lock op, a synchFlag read on every grant — which the paper's tables
# reproduce, with timings bit-identical to the seed.
PAPER_MUSIC = MusicConfig(fast_locks=False)


@dataclass
class ExperimentResult:
    """The outcome of regenerating one table/figure."""

    exp_id: str
    title: str
    text: str
    data: Dict[str, Any] = field(default_factory=dict)
    checks: List[Check] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(passed for _desc, passed in self.checks)

    def check_report(self) -> str:
        lines = []
        for desc, passed in self.checks:
            lines.append(f"  [{'PASS' if passed else 'FAIL'}] {desc}")
        return "\n".join(lines)


def scale_name() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "quick")


# -- scenarios and their registry --------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One declared experiment.  ``full`` holds what differs from
    ``quick``; ``bench`` names its ``BENCH_<bench>.json`` and ``seed``
    is recorded there; ``music`` is the config its deployments build
    with unless they pass their own."""

    id: str
    title: str
    body: Callable[["Run"], ExperimentResult]
    quick: Mapping[str, Any] = field(default_factory=dict)
    full: Mapping[str, Any] = field(default_factory=dict)
    bench: Optional[str] = None
    seed: Optional[int] = None
    music: Optional[MusicConfig] = None

    @property
    def doc(self) -> str:
        """The ``--list`` line: the body's first docstring line."""
        return (self.body.__doc__ or "").strip().splitlines()[0]


EXPERIMENTS: Dict[str, Scenario] = {}


def scenario(exp_id: str, title: str, **declared: Any) -> Callable[[Callable], Scenario]:
    """Declare the decorated body as scenario ``exp_id`` (keywords:
    ``quick``, ``full``, ``bench``, ``seed``, ``music``) and register it."""

    def register(body: Callable[["Run"], ExperimentResult]) -> Scenario:
        if exp_id in EXPERIMENTS:
            raise ValueError(f"duplicate scenario id {exp_id!r}")
        EXPERIMENTS[exp_id] = Scenario(exp_id, title, body, **declared)
        return EXPERIMENTS[exp_id]

    return register


def paper_scenario(exp_id: str, title: str, **declared: Any) -> Callable[[Callable], Scenario]:
    """:func:`scenario` for a table or figure of the paper: its
    deployments build with :data:`PAPER_MUSIC`."""
    return scenario(exp_id, title, music=PAPER_MUSIC, **declared)


class Run:
    """One execution of a scenario: its resolved preset ``p``, its
    ``seed``, the deployment builders and the emitter — so a body never
    reads the scale, the audit switch or another scenario's parameters."""

    def __init__(self, declared: Scenario, audit: bool) -> None:
        self.scenario = declared
        self.p: Dict[str, Any] = dict(declared.quick)
        if scale_name() == "full":
            self.p.update(declared.full)
        self.seed = declared.seed
        self.audit = audit
        self.auditors: List[Any] = []

    # -- building and measuring ----------------------------------------------

    def build_music(self, **kwargs: Any) -> MusicDeployment:
        """``build_music``, with the runtime ECF auditor attached under
        ``--audit``.  Audit emission never yields or consumes
        randomness, so the measured numbers are those of an un-audited
        run."""
        if self.scenario.music is not None:
            kwargs.setdefault("music_config", self.scenario.music)
        if not self.audit:
            return build_music(**kwargs)
        kwargs.setdefault("audit", True)
        deployment = build_music(**kwargs)
        if deployment.auditor is not None:
            self.auditors.append(deployment.auditor)
        return deployment

    def build(self, system: str, **kwargs: Any) -> MusicDeployment:
        """The deployment behind a MUSIC-shaped system label."""
        if system == "MSCP":
            kwargs["replica_class"] = MscpReplica
        return self.build_music(**kwargs)

    def sweep(self, xs: Sequence[Any], systems: Sequence[str],
              measure: Callable[[Any, str], Any]) -> Dict[str, List[Any]]:
        """Walk a figure's grid — every system at every x value, each
        cell on fresh deployments — into per-system columns."""
        series: Dict[str, List[Any]] = {system: [] for system in systems}
        for x in xs:
            for system in systems:
                series[system].append(measure(x, system))
        return series

    # -- emitting: a body ends by returning one of table / rows / series /
    # -- cdf, so the text, ExperimentResult.data and the BENCH file all come
    # -- from the same rows ---------------------------------------------------

    def emit(self, text: str, checks: List[Check], data: Dict[str, Any],
             config: Optional[Dict[str, Any]] = None,
             metrics: Optional[Dict[str, Any]] = None) -> ExperimentResult:
        """The one emitter.  ``config`` / ``metrics`` are the payload of
        the scenario's ``BENCH_<bench>.json`` ("scale" and the seed are
        added here); ``data`` defaults to the rendered rows."""
        declared = self.scenario
        if declared.bench is not None:
            write_bench_json(
                declared.bench,
                config={"scale": scale_name(), **(config or {})},
                seed=declared.seed,
                metrics=metrics or {},
            )
        return ExperimentResult(declared.id, declared.title, text, data, checks)

    def table(self, title: str, headers: Sequence[str], rows: Sequence[Sequence[Any]],
              checks: List[Check], **payload: Any) -> ExperimentResult:
        payload.setdefault("data", {"rows": rows})
        return self.emit(render_table(title, headers, rows), checks, **payload)

    def rows(self, title: str, columns: Mapping[str, Any], rows: Sequence[Mapping],
             checks: List[Check], **payload: Any) -> ExperimentResult:
        """A table over dict rows, picked apart by ``columns`` (header ->
        row key, or a function of the row): the same dicts then also
        serve as the BENCH file's ``modes`` / ``cells``."""
        picked = [
            [pick(row) if callable(pick) else row[pick] for pick in columns.values()]
            for row in rows
        ]
        return self.table(title, list(columns), picked, checks, **payload)

    def series(self, title: str, x_label: str, xs: Sequence[Any],
               series: Dict[str, List[float]], x_key: str,
               checks: List[Check], **payload: Any) -> ExperimentResult:
        """One row per x value, one column per system; ``x_key`` names
        the x values in ``ExperimentResult.data``."""
        payload.setdefault("data", {"series": series, x_key: xs})
        return self.emit(render_series(title, x_label, series, xs), checks, **payload)

    def cdf(self, title: str, samples: Dict[str, List[float]],
            checks: List[Check], **payload: Any) -> ExperimentResult:
        cdfs = {name: cdf_points(values) for name, values in samples.items()}
        payload.setdefault("data", {"samples": samples})
        return self.emit(render_cdf(title, cdfs), checks, **payload)


def run_experiment(exp_id: str, audit: bool = False) -> ExperimentResult:
    """The one runner: regenerate one table/figure.  With ``audit``
    every MUSIC deployment the scenario builds is checked online and the
    result gains an "ECF audit clean" shape check."""
    if exp_id not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {exp_id!r}; have {sorted(EXPERIMENTS)}")
    run = Run(EXPERIMENTS[exp_id], audit)
    result = run.scenario.body(run)
    if audit:
        auditors = run.auditors
        violations = sum(sum(a.violation_counts.values()) for a in auditors)
        result.checks.append(
            (f"ECF audit clean ({len(auditors)} audited deployment(s))", violations == 0)
        )
        if violations:
            reports = [a.render_report() for a in auditors if not a.clean]
            result.text += "\n\n" + "\n\n".join(reports)
    return result
