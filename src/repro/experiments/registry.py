"""Experiment discovery: one API over every reproduced figure/table.

Every driver module in :mod:`repro.experiments` registers an
:class:`~repro.harness.spec.ExperimentSpec` (grid → run_point → reduce)
with :func:`repro.harness.spec.register` when it is imported.  This module
imports the drivers listed in :data:`repro.experiments.ALL_EXPERIMENTS`
and resolves ids: ``registry.get(name)`` / ``registry.all()`` are the only
discovery paths the CLI, benchmarks, and tests use, and experiment-id
prefix matching lives here too.  :func:`single_point_spec` adapts a
whole-run driver to the spec shape.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Sequence

from repro.experiments import ALL_EXPERIMENTS
from repro.harness.spec import (
    SPECS,
    ExperimentResult,
    ExperimentSpec,
    GridPoint,
    PointContext,
)


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


def _ensure_loaded() -> None:
    """Import every driver module so its spec registration has run."""
    for experiment_id in ALL_EXPERIMENTS:
        importlib.import_module(f"repro.experiments.{experiment_id}")


def ids() -> List[str]:
    """Canonical experiment ids, in suite order."""
    _ensure_loaded()
    known = [eid for eid in ALL_EXPERIMENTS if eid in SPECS]
    extras = sorted(eid for eid in SPECS if eid not in ALL_EXPERIMENTS)
    return known + extras


def all() -> List[ExperimentSpec]:  # noqa: A001 - mirrors the issue's API
    """Every registered spec, in suite order."""
    return [SPECS[eid] for eid in ids()]


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
    if name in SPECS:
        return SPECS[name]
    matches = [eid for eid in ids() if eid.startswith(name)]
    if len(matches) == 1:
        return SPECS[matches[0]]
    if matches:
        boundary = [eid for eid in matches if eid[len(name):][:1] == "_"]
        if len(boundary) == 1:
            return SPECS[boundary[0]]
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
