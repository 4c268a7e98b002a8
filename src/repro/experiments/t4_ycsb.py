"""T4 — YCSB core-workload summary on the PLANET stack.

Runs the six YCSB core workloads (the industry-standard key-value store
benchmark) against the five-DC deployment and reports goodput, latency and
abort behaviour per workload.  Shape claims:

* read-only/read-heavy workloads (C, B) are local-latency operations;
* write-bearing workloads pay the wide-area quorum round trip;
* the Zipf-head contention ordering holds: A (50% updates) aborts more
  than B (5% updates), which aborts more than C (never).

Two coincidences are structural, not bugs: D and E report identical latency
profiles (a "scan" is one batched local read round trip, same as a point
read), and A matches F (an update's version stamp requires the same read
phase an explicit read-modify-write performs).
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.cluster import ClusterConfig
from repro.experiments.common import planet_with_overrides, scaled
from repro.harness.config import RunConfig, WorkloadConfig
from repro.harness.report import Table
from repro.harness.runner import run_experiment
from repro.harness.spec import (
    ExperimentResult,
    ExperimentSpec,
    GridPoint,
    PointContext,
    ShapeCheck,
    register,
)
from repro.workload.ycsb import YcsbSpec, build_ycsb_tx

WORKLOADS = ("a", "b", "c", "d", "e", "f")


def _grid(scale: float) -> List[GridPoint]:
    return [
        GridPoint(key=f"workload={workload}", params={"workload": workload})
        for workload in WORKLOADS
    ]


def _run_point(params: Dict[str, Any], ctx: PointContext) -> Dict[str, Any]:
    workload = params["workload"]
    duration = scaled(20_000.0, ctx.scale, 6_000.0)
    spec = YcsbSpec(
        workload=workload,
        n_keys=2_000,
        timeout_ms=2_000.0,
        guess_threshold=0.95,
    )
    config = RunConfig(
        cluster=ClusterConfig(seed=ctx.seed),
        planet=planet_with_overrides(None),
        workload=WorkloadConfig(
            tx_factory=lambda session, rng: build_ycsb_tx(session, spec, rng),
            arrival="open",
            rate_tps=8.0,
            clients_per_dc=2,
        ),
        duration_ms=duration,
        warmup_ms=duration * 0.1,
        initial_data=spec.initial_data(),
    )
    result = run_experiment(config)
    cdf = result.commit_latency_cdf()
    return {
        "workload": workload.upper(),
        "goodput": result.goodput_tps(),
        "p50": cdf.percentile(50),
        "p99": cdf.percentile(99),
        "abort_rate": result.abort_rate(),
    }


def _reduce(point_rows: List[Dict[str, Any]], ctx: PointContext) -> ExperimentResult:
    rows = {row["workload"].lower(): row for row in point_rows}

    result = ExperimentResult("T4", "YCSB core workloads on the PLANET stack")
    table = Table(
        "Per-workload summary (Zipf 0.99 requests, 5 DCs, 80 offered tps)",
        ["workload", "goodput tps", "commit p50 (ms)", "commit p99 (ms)", "abort %"],
    )
    for row in rows.values():
        table.add_row(
            row["workload"], row["goodput"], row["p50"], row["p99"],
            100.0 * row["abort_rate"],
        )
    result.tables.append(table)
    result.data["rows"] = rows

    result.checks.append(
        ShapeCheck(
            "read-only workload C decides at local latency",
            rows["c"]["p50"] < 20.0,
            f"C p50 {rows['c']['p50']:.1f} ms",
        )
    )
    result.checks.append(
        ShapeCheck(
            "write-bearing workloads pay the wide-area quorum",
            rows["a"]["p99"] > 100.0,
            f"A p99 {rows['a']['p99']:.0f} ms",
        )
    )
    result.checks.append(
        ShapeCheck(
            "contention ordering A > B > C on abort rate",
            rows["a"]["abort_rate"] > rows["b"]["abort_rate"] >= rows["c"]["abort_rate"]
            and rows["c"]["abort_rate"] == 0.0,
            f"A {rows['a']['abort_rate']:.3f}, B {rows['b']['abort_rate']:.3f}, "
            f"C {rows['c']['abort_rate']:.3f}",
        )
    )
    return result


SPEC = register(
    ExperimentSpec(
        id="t4_ycsb",
        figure="T4",
        title="YCSB core workloads on the PLANET stack",
        module=__name__,
        grid=_grid,
        run_point=_run_point,
        reduce=_reduce,
    )
)
