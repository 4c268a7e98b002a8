"""What a sweep runs: experiment specs, grid points and results.

A driver module declares an :class:`ExperimentSpec` — a **grid** of
picklable :class:`GridPoint` work units, a **run_point** producing one
JSON-safe row per point from its params and a :class:`PointContext`, and
a **reduce** folding the rows, in grid order, into an
:class:`ExperimentResult` — and files it in :data:`SPECS` with
:func:`register` when imported.  :mod:`repro.harness.parallel` executes
specs; :mod:`repro.experiments.registry` discovers the drivers.

Each point runs with ``derive_seed(root_seed, point_key)``, a stable hash
independent of execution order and placement: that is what makes
``--jobs 4`` byte-identical to ``--jobs 1``.  Specs wrapping a whole-run
driver set ``derive_seeds=False`` and see the root seed verbatim.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional

from repro.harness.report import Table


def derive_seed(root_seed: int, point_key: str) -> int:
    """Deterministic per-point child seed: a stable hash of (root, key).

    Independent of execution order, worker placement, and Python hash
    randomisation — the property the parallel/serial equivalence guarantee
    rests on.
    """
    digest = hashlib.sha256(f"{root_seed}:{point_key}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & 0x7FFF_FFFF_FFFF_FFFF


@dataclass(frozen=True)
class GridPoint:
    """One self-describing, picklable unit of sweep work.

    ``key`` identifies the point within its experiment (stable across runs
    and code versions — it feeds seed derivation and the result cache);
    ``params`` are the plain-data inputs ``run_point`` consumes.
    """

    key: str
    params: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class PointContext:
    """Everything a point (or the reduce step) needs besides its params."""

    seed: int                      # derived per-point seed (root seed in reduce)
    scale: float
    overrides: Mapping[str, str] = field(default_factory=dict)


@dataclass
class ShapeCheck:
    """One assertion about the *shape* of a result (who wins, by how much)."""

    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


def _json_safe(value):
    """Best-effort conversion of experiment data to JSON-encodable types."""
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


@dataclass
class ExperimentResult:
    experiment_id: str
    title: str
    tables: List[Table] = field(default_factory=list)
    figures: List[str] = field(default_factory=list)  # pre-rendered ASCII plots
    checks: List[ShapeCheck] = field(default_factory=list)
    data: Dict[str, object] = field(default_factory=dict)

    @property
    def all_checks_pass(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_dict(self) -> Dict[str, object]:
        """JSON-encodable form: tables, checks, raw data — for downstream
        tooling (plotting, CI dashboards) via ``python -m repro run --json``."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "tables": [
                {"title": t.title, "headers": t.headers, "rows": t.rows}
                for t in self.tables
            ],
            "figures": list(self.figures),
            "checks": [
                {"name": c.name, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "all_checks_pass": self.all_checks_pass,
            "data": _json_safe(self.data),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ExperimentResult":
        """Inverse of :meth:`to_dict` (modulo ``data`` JSON coercion).

        This is how cached / worker-produced results of whole-run drivers
        are rehydrated by the sweep executor.
        """
        result = cls(
            experiment_id=payload["experiment_id"],  # type: ignore[arg-type]
            title=payload["title"],  # type: ignore[arg-type]
        )
        for table_dict in payload.get("tables", []):  # type: ignore[union-attr]
            table = Table(table_dict["title"], table_dict["headers"])
            # Rows were already formatted to strings by Table.add_row.
            table.rows = [list(row) for row in table_dict["rows"]]
            result.tables.append(table)
        result.figures = [str(figure) for figure in payload.get("figures", [])]
        result.checks = [
            ShapeCheck(c["name"], c["passed"], c["detail"])
            for c in payload.get("checks", [])  # type: ignore[union-attr]
        ]
        result.data = dict(payload.get("data", {}))  # type: ignore[arg-type]
        return result

    def print(self) -> None:
        banner = f"{self.experiment_id}: {self.title}"
        print(banner)
        print("#" * len(banner))
        print()
        for table in self.tables:
            table.print()
        for figure in self.figures:
            print(figure)
            print()
        for check in self.checks:
            print(check)
        print()


RunPoint = Callable[[Dict[str, Any], PointContext], Dict[str, Any]]
Reduce = Callable[[List[Dict[str, Any]], PointContext], ExperimentResult]


@dataclass
class ExperimentSpec:
    """A registered experiment: identity + grid + point runner + reducer."""

    id: str                        # canonical id, e.g. "f9_threshold_sweep"
    figure: str                    # paper artefact, e.g. "F9"
    title: str                     # one-line description (CLI list)
    module: str                    # import path workers load the spec from
    grid: Callable[[float], List[GridPoint]]
    run_point: RunPoint
    reduce: Reduce
    derive_seeds: bool = True      # False: points see the root seed verbatim

    def seed_for(self, root_seed: int, point: GridPoint) -> int:
        if not self.derive_seeds:
            return root_seed
        return derive_seed(root_seed, point.key)

    def run(
        self,
        seed: int = 0,
        scale: float = 1.0,
        overrides: Optional[Mapping[str, str]] = None,
        options=None,
    ) -> ExperimentResult:
        """Run the full sweep (serially unless ``options.jobs`` says more)
        and return the reduced :class:`ExperimentResult`."""
        from repro.harness.parallel import run_sweep

        return run_sweep(
            self, seed=seed, scale=scale, overrides=overrides, options=options
        ).result


#: Every registered spec by id.  A worker process imports the spec's
#: ``module`` and looks the spec up here.
SPECS: Dict[str, ExperimentSpec] = {}


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Register ``spec`` (idempotent per id: re-import wins, same module)."""
    SPECS[spec.id] = spec
    return spec


# ----------------------------------------------------------------------
# Config overrides (CLI --set key=value), threaded to every driver.
# ----------------------------------------------------------------------
# The sweep executor activates the run's overrides around each point and
# the reduce step, so every driver picks them up wherever it builds its
# PlanetConfig (repro.experiments.common.planet_with_overrides).
_ACTIVE_OVERRIDES: ContextVar[Optional[Mapping[str, str]]] = ContextVar(
    "repro_active_overrides", default=None
)


@contextmanager
def active_overrides(overrides: Optional[Mapping[str, str]]) -> Iterator[None]:
    """Make ``overrides`` visible to :func:`current_overrides` inside."""
    token = _ACTIVE_OVERRIDES.set(overrides if overrides else None)
    try:
        yield
    finally:
        _ACTIVE_OVERRIDES.reset(token)


def current_overrides() -> Optional[Mapping[str, str]]:
    return _ACTIVE_OVERRIDES.get()
