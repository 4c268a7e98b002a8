"""CHK — randomized fault campaign + consistency checker.

One grid point per fault schedule: each derives its own seed and runs
:func:`~repro.check.campaign.run_schedule`.  The reduce step is a triage
report: pass/fail, the first failing schedule, and its replayable plan
(``python -m repro check replay``).  Knobs ride the override channel
under a ``check.`` prefix: ``check.duration_ms``, ``check.intensity``,
``check.broken`` (the seeded quorum-check mutation the checker must catch).
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.check.campaign import (
    DEFAULT_DURATION_MS,
    DEFAULT_INTENSITY,
    plan_payload,
    run_schedule,
)
from repro.harness.report import Table
from repro.harness.spec import (
    ExperimentResult,
    ExperimentSpec,
    GridPoint,
    PointContext,
    ShapeCheck,
    register,
)

EXPERIMENT_ID = "check_campaign"

#: Schedules at scale 1.0 (``--scale`` multiplies this).
BASE_SCHEDULES = 50


def _campaign_params(ctx: PointContext) -> Dict[str, Any]:
    overrides = ctx.overrides
    return {
        "duration_ms": float(overrides.get("check.duration_ms", DEFAULT_DURATION_MS)),
        "intensity": float(overrides.get("check.intensity", DEFAULT_INTENSITY)),
        "broken": str(overrides.get("check.broken", "")).lower()
        in ("1", "true", "yes"),
    }


def _grid(scale: float) -> List[GridPoint]:
    n = max(1, int(round(BASE_SCHEDULES * scale)))
    return [
        GridPoint(key=f"s{index:04d}", params={"index": index})
        for index in range(n)
    ]


def _run_point(params: Dict[str, Any], ctx: PointContext) -> Dict[str, Any]:
    knobs = _campaign_params(ctx)
    row = run_schedule(
        ctx.seed,
        duration_ms=knobs["duration_ms"],
        intensity=knobs["intensity"],
        broken=knobs["broken"],
    )
    row["index"] = int(params["index"])
    return row


def _reduce(rows: List[Dict[str, Any]], ctx: PointContext) -> ExperimentResult:
    knobs = _campaign_params(ctx)
    failing = [row for row in rows if row["violations"]]
    total_violations = sum(len(row["violations"]) for row in rows)

    table = Table(
        f"Campaign triage ({len(rows)} schedules, "
        f"{knobs['duration_ms']:.0f}ms @ intensity {knobs['intensity']:g})",
        ["schedule", "seed", "faults", "ops", "violations", "first violation"],
    )
    for row in failing[:20]:
        first = row["violations"][0]
        table.add_row(
            f"s{row['index']:04d}",
            row["seed"],
            row["plan_text"],
            row["ops"],
            len(row["violations"]),
            f"{first['invariant']}: {first['detail']}",
        )
    if not failing:
        table.add_row(
            "(all)", "-", "-", sum(row["ops"] for row in rows), 0, "none"
        )

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="repro.check randomized fault campaign",
        tables=[table],
    )
    result.checks.append(
        ShapeCheck(
            name="no_violations",
            passed=not failing,
            detail=(
                f"{len(failing)}/{len(rows)} schedules violated invariants "
                f"({total_violations} total violations)"
                if failing
                else f"all {len(rows)} schedules clean"
            ),
        )
    )
    data: Dict[str, Any] = {
        "schedules": len(rows),
        "failing_schedules": len(failing),
        "total_violations": total_violations,
        "duration_ms": knobs["duration_ms"],
        "intensity": knobs["intensity"],
        "broken": knobs["broken"],
    }
    if failing:
        # Minimal failing schedule (lowest grid index) with its replayable
        # plan — the triage handle: save it, then `repro check replay`.
        minimal = min(failing, key=lambda row: row["index"])
        data["min_failing_index"] = minimal["index"]
        data["min_failing_seed"] = minimal["seed"]
        data["replay_plan"] = plan_payload(
            seed=minimal["seed"],
            duration_ms=knobs["duration_ms"],
            intensity=knobs["intensity"],
            broken=knobs["broken"],
            plan_dict=minimal["plan"],
        )
        data["violations"] = minimal["violations"]
    result.data = data
    return result


SPEC = register(
    ExperimentSpec(
        id=EXPERIMENT_ID,
        figure="CHK",
        title="repro.check: randomized fault campaign + consistency checker",
        module=__name__,
        grid=_grid,
        run_point=_run_point,
        reduce=_reduce,
    )
)
