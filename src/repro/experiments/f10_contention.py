"""F10 — abort rate and abort cost vs contention.

Claim 1: shrinking the hot set (more traffic on fewer records) drives the
optimistic engine's conflict-abort rate up — the price of lock-free commit.

Claim 2: PLANET converts *expensive* aborts into *cheap* ones.  Without
admission control a doomed transaction discovers its fate only after
wide-area round trips; with likelihood-based admission the same transaction
is rejected locally in microseconds.  We measure the mean latency an aborted
transaction wastes before learning its fate, with and without admission.

Both arms of a hot-set point run inside one grid point so they share a
derived seed — the comparison stays paired under the parallel executor.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.admission import AdmissionPolicy
from repro.core.session import PlanetConfig
from repro.core.stages import TxStage
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

HOT_SET_SIZES = (1024, 256, 64, 16, 8)


def _mean_abort_cost_ms(run_result) -> float:
    """Mean time from submission to learning of an abort (rejections cost ~0)."""
    costs = []
    for tx in run_result.transactions:
        if tx.committed:
            continue
        if tx.stage is TxStage.REJECTED:
            costs.append(0.0)
        else:
            latency = tx.commit_latency_ms()
            if latency is not None:
                costs.append(latency)
    return sum(costs) / len(costs) if costs else float("nan")


def _grid(scale: float) -> List[GridPoint]:
    return [
        GridPoint(key=f"hot_keys={hot_keys}", params={"hot_keys": hot_keys})
        for hot_keys in HOT_SET_SIZES
    ]


def _run_point(params: Dict[str, Any], ctx: PointContext) -> Dict[str, Any]:
    hot_keys = params["hot_keys"]
    duration = scaled(40_000.0, ctx.scale, 8_000.0)
    shared = dict(
        seed=ctx.seed,
        n_keys=4_096,
        hot_keys=hot_keys,
        hot_fraction=0.8,
        rate_tps=8.0,
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
        "hot_keys": hot_keys,
        "abort_rate": plain.abort_rate(),
        "abort_rate_admission": admitted.abort_rate(),
        "abort_cost_ms": _mean_abort_cost_ms(plain),
        "abort_cost_admission_ms": _mean_abort_cost_ms(admitted),
        "goodput": plain.goodput_tps(),
        "goodput_admission": admitted.goodput_tps(),
    }


def _reduce(rows: List[Dict[str, Any]], ctx: PointContext) -> ExperimentResult:
    result = ExperimentResult("F10", "Abort rate and abort cost vs contention (hot-set size)")
    table = Table(
        "Hot-set sweep (80% of writes on the hot set)",
        [
            "hot records",
            "abort % (no admission)",
            "abort % (admission)",
            "mean abort cost ms (none)",
            "mean abort cost ms (admission)",
        ],
    )
    for row in rows:
        table.add_row(
            row["hot_keys"],
            100.0 * row["abort_rate"],
            100.0 * row["abort_rate_admission"],
            row["abort_cost_ms"],
            row["abort_cost_admission_ms"],
        )
    result.tables.append(table)
    result.data["rows"] = rows

    coldest, hottest = rows[0], rows[-1]
    result.checks.append(
        ShapeCheck(
            "abort rate grows with contention",
            hottest["abort_rate"] > coldest["abort_rate"] * 2,
            f"{coldest['abort_rate']:.3f} @ {coldest['hot_keys']} hot keys vs "
            f"{hottest['abort_rate']:.3f} @ {hottest['hot_keys']}",
        )
    )
    result.checks.append(
        ShapeCheck(
            "admission control makes aborts cheap under high contention",
            hottest["abort_cost_admission_ms"] < hottest["abort_cost_ms"] * 0.5,
            f"mean abort cost {hottest['abort_cost_ms']:.0f} ms -> "
            f"{hottest['abort_cost_admission_ms']:.0f} ms at {hottest['hot_keys']} hot keys",
        )
    )
    return result


SPEC = register(
    ExperimentSpec(
        id="f10_contention",
        figure="F10",
        title="Abort rate and abort cost vs contention (hot-set size)",
        module=__name__,
        grid=_grid,
        run_point=_run_point,
        reduce=_reduce,
    )
)
