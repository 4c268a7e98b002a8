"""The experiment registry: one API over every reproduced figure/table.

Historically each of the 19 experiment drivers was its own ad-hoc entry
point (``module.run(seed, scale)``) that the CLI discovered by importing
modules by name.  The registry replaces that with a single, declarative
surface: every driver registers an :class:`ExperimentSpec` describing

* its **grid** — the sweep's points (thresholds, hot-set sizes, loss
  rates, …) as picklable, self-describing :class:`GridPoint` work units;
* **run_point** — how to produce one point's row (a JSON-safe dict) given a
  :class:`PointContext` (derived seed, scale, config overrides);
* **reduce** — how to fold the rows, in grid order, into the final
  :class:`~repro.experiments.common.ExperimentResult` (tables, figures,
  shape checks).

``registry.get(name)`` / ``registry.all()`` are the only discovery paths
the CLI, harness, and benchmarks use; experiment-id prefix matching lives
here too.  Because points are self-contained work units, the
:mod:`repro.harness.parallel` executor can run them serially, in worker
processes, or out of a result cache — all producing identical results.

Seed derivation
---------------
Each point runs with ``derive_seed(root_seed, point_key)`` — a stable hash,
so the seed a point sees is a function of the experiment's root seed and
the point's identity only, never of execution order or placement.  That is
what makes ``--jobs 4`` byte-identical to ``--jobs 1``.  Specs wrapping a
pre-registry driver set ``derive_seeds=False`` to preserve their historical
output exactly.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.experiments.common import ExperimentResult


class UnknownExperimentError(LookupError):
    """No registered experiment matches the requested id or prefix."""


class AmbiguousExperimentError(LookupError):
    """A prefix matched several experiments; ``candidates`` is sorted."""

    def __init__(self, prefix: str, candidates: Sequence[str]) -> None:
        self.prefix = prefix
        self.candidates = sorted(candidates)
        super().__init__(
            f"ambiguous experiment {prefix!r}: matches "
            + ", ".join(self.candidates)
        )


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


# ----------------------------------------------------------------------
# The registry proper.
# ----------------------------------------------------------------------
_SPECS: Dict[str, ExperimentSpec] = {}
_LOADED = False


def register(spec: ExperimentSpec) -> ExperimentSpec:
    """Register ``spec`` (idempotent per id: re-import wins, same module)."""
    _SPECS[spec.id] = spec
    return spec


def _ensure_loaded() -> None:
    """Import every driver module so its spec registration has run."""
    global _LOADED
    if _LOADED:
        return
    import importlib

    from repro.experiments import ALL_EXPERIMENTS

    for experiment_id in ALL_EXPERIMENTS:
        importlib.import_module(f"repro.experiments.{experiment_id}")
    _LOADED = True


def ids() -> List[str]:
    """Canonical experiment ids, in suite order."""
    _ensure_loaded()
    from repro.experiments import ALL_EXPERIMENTS

    known = [eid for eid in ALL_EXPERIMENTS if eid in _SPECS]
    extras = sorted(eid for eid in _SPECS if eid not in ALL_EXPERIMENTS)
    return known + extras


def all() -> List[ExperimentSpec]:  # noqa: A001 - mirrors the issue's API
    """Every registered spec, in suite order."""
    return [_SPECS[eid] for eid in ids()]


def get(name: str) -> ExperimentSpec:
    """Exact id, or a unique prefix of one (``f6`` → ``f6_commit_latency``).

    Among several prefix matches, a unique match whose prefix ends on an
    underscore boundary wins: ``scaleout`` resolves to ``scaleout_1m``
    even if other ids merely continue the same letters.  A bare ``f1``
    (matching ``f10_contention``, ``f11_admission``, …, none at a
    boundary) stays ambiguous.  Raises
    :class:`AmbiguousExperimentError` (candidates sorted) or
    :class:`UnknownExperimentError`.
    """
    _ensure_loaded()
    if name in _SPECS:
        return _SPECS[name]
    matches = [eid for eid in ids() if eid.startswith(name)]
    if len(matches) == 1:
        return _SPECS[matches[0]]
    if matches:
        boundary = [eid for eid in matches if eid[len(name):][:1] == "_"]
        if len(boundary) == 1:
            return _SPECS[boundary[0]]
        raise AmbiguousExperimentError(name, matches)
    raise UnknownExperimentError(
        f"unknown experiment {name!r}; try: python -m repro list"
    )


# ----------------------------------------------------------------------
# Single-point adaptation for whole-run drivers.
# ----------------------------------------------------------------------
def single_point_spec(
    experiment_id: str,
    figure: str,
    title: str,
    module: str,
    run_fn: Callable[..., ExperimentResult],
) -> ExperimentSpec:
    """Build (without registering) a one-point spec for a whole-run driver.

    Some figures are a single end-to-end simulation rather than a sweep
    (F7's CDF pair, T1's RTT matrix, the fault scenarios); their drivers
    produce the complete :class:`ExperimentResult` in one call.  The grid
    is the single point ``"all"`` and ``derive_seeds`` stays off, so output
    is byte-identical to running the driver directly with the root seed.
    These experiments gain caching and registry discovery but not
    intra-experiment parallelism.
    """

    def grid(scale: float) -> List[GridPoint]:
        return [GridPoint(key="all", params={})]

    def run_point(params: Dict[str, Any], ctx: PointContext) -> Dict[str, Any]:
        return run_fn(seed=ctx.seed, scale=ctx.scale).to_dict()

    def reduce(rows: List[Dict[str, Any]], ctx: PointContext) -> ExperimentResult:
        return ExperimentResult.from_dict(rows[0])

    return ExperimentSpec(
        id=experiment_id,
        figure=figure,
        title=title,
        module=module,
        grid=grid,
        run_point=run_point,
        reduce=reduce,
        derive_seeds=False,
    )
