"""F11 — goodput under high contention, with and without admission control.

Claim: under high contention, transactions that are almost certain to abort
still occupy replica state (an accepted option blocks every competing option
on that record until its transaction decides, a wide-area round trip later).
Rejecting low-likelihood transactions up front frees those records for
transactions that can actually commit, so *goodput* (commits/s) rises even
though fewer transactions are attempted.  At low offered load the controller
should be inert: nothing is doomed, nothing is shed.

Both arms of an offered-load point run inside one grid point so they share
a derived seed — the comparison stays paired under the parallel executor.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.admission import AdmissionPolicy
from repro.core.session import PlanetConfig
from repro.experiments.common import microbench_run, scaled
from repro.harness.report import Table
from repro.harness.spec import (
    ExperimentResult,
    ExperimentSpec,
    GridPoint,
    PointContext,
    ShapeCheck,
    register,
)

OFFERED_LOADS_TPS = (0.5, 2.0, 8.0, 16.0, 32.0)


def _grid(scale: float) -> List[GridPoint]:
    return [
        GridPoint(key=f"rate={rate}", params={"rate": rate})
        for rate in OFFERED_LOADS_TPS
    ]


def _run_point(params: Dict[str, Any], ctx: PointContext) -> Dict[str, Any]:
    rate = params["rate"]
    duration = scaled(40_000.0, ctx.scale, 8_000.0)
    shared = dict(
        seed=ctx.seed,
        n_keys=4_096,
        hot_keys=16,
        hot_fraction=0.8,
        rate_tps=rate,
        clients_per_dc=2,
        duration_ms=duration,
        warmup_ms=duration * 0.15,
        timeout_ms=2_000.0,
        guess_threshold=None,
    )
    plain = microbench_run(**shared)
    admitted = microbench_run(
        planet=PlanetConfig(
            admission_policy=AdmissionPolicy.LIKELIHOOD, admission_threshold=0.4
        ),
        **shared,
    )
    return {
        "offered_tps": rate * 2 * 5,  # clients_per_dc * DCs
        "goodput_none": plain.goodput_tps(),
        "goodput_admission": admitted.goodput_tps(),
        "abort_none": plain.abort_rate(),
        "abort_admission": admitted.abort_rate(),
        "shed_fraction": admitted.abort_reason_counts().get("admission", 0)
        / max(len(admitted.transactions), 1),
    }


def _reduce(rows: List[Dict[str, Any]], ctx: PointContext) -> ExperimentResult:
    result = ExperimentResult("F11", "Goodput vs offered load (likelihood admission control)")
    table = Table(
        "Offered-load sweep, 16 hot records (80% of writes)",
        [
            "offered tps",
            "goodput none",
            "goodput admission",
            "shed %",
            "abort % none",
            "abort % admission",
        ],
    )
    for row in rows:
        table.add_row(
            row["offered_tps"],
            row["goodput_none"],
            row["goodput_admission"],
            100.0 * row["shed_fraction"],
            100.0 * row["abort_none"],
            100.0 * row["abort_admission"],
        )
    result.tables.append(table)
    result.data["rows"] = rows

    low_load = rows[0]
    high_load = rows[-1]
    result.checks.append(
        ShapeCheck(
            "admission inert at low load",
            low_load["shed_fraction"] < 0.05
            and low_load["goodput_admission"] >= low_load["goodput_none"] * 0.9,
            f"shed {low_load['shed_fraction']:.3f}, goodput "
            f"{low_load['goodput_none']:.2f} -> {low_load['goodput_admission']:.2f}",
        )
    )
    result.checks.append(
        ShapeCheck(
            "admission improves goodput at high load",
            high_load["goodput_admission"] > high_load["goodput_none"] * 1.1,
            f"goodput {high_load['goodput_none']:.2f} -> "
            f"{high_load['goodput_admission']:.2f} at "
            f"{high_load['offered_tps']:.0f} offered tps",
        )
    )
    return result


SPEC = register(
    ExperimentSpec(
        id="f11_admission",
        figure="F11",
        title="Goodput vs offered load (likelihood admission control)",
        module=__name__,
        grid=_grid,
        run_point=_run_point,
        reduce=_reduce,
    )
)
