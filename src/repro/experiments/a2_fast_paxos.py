"""A2 — fast vs classic Paxos acceptance path.

The MDCC engine's fast path proposes options directly with the shared fast
ballot (one wide-area round trip, quorum 4/5); the classic path runs a
prepare round first (two round trips, majority quorum 3/5).  Ablating the
path isolates how much of PLANET's latency win comes from fast acceptance.
Expectation: classic pays two round trips to its (3/5) quorum against the
fast path's single round trip to a larger (4/5) quorum — on this topology
the 3rd-closest DC is nearer than the 4th, so the net penalty is ~1.3-1.6x
at the median, not a full 2x.  The smaller quorum partially refunds the
extra round trip; that interplay is exactly what this ablation surfaces.
"""

from __future__ import annotations

from typing import Any, Dict, List

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
from repro.stats.histogram import LatencyCdf

PATHS = ("fast", "classic")


def _grid(scale: float) -> List[GridPoint]:
    return [GridPoint(key=f"path={path}", params={"path": path}) for path in PATHS]


def _run_point(params: Dict[str, Any], ctx: PointContext) -> Dict[str, Any]:
    duration = scaled(30_000.0, ctx.scale, 6_000.0)
    run_result = microbench_run(
        use_fast_path=params["path"] == "fast",
        seed=ctx.seed,
        n_keys=5_000,
        rate_tps=4.0,
        clients_per_dc=2,
        duration_ms=duration,
        warmup_ms=duration * 0.1,
        timeout_ms=5_000.0,
        guess_threshold=None,
    )
    samples = [
        tx.commit_latency_ms()
        for tx in run_result.committed()
        if tx.commit_latency_ms() is not None
    ]
    return {"path": params["path"], "commit_latency_samples": samples}


def _reduce(rows: List[Dict[str, Any]], ctx: PointContext) -> ExperimentResult:
    by_path = {row["path"]: row for row in rows}
    fast_cdf = LatencyCdf()
    fast_cdf.extend(by_path["fast"]["commit_latency_samples"])
    classic_cdf = LatencyCdf()
    classic_cdf.extend(by_path["classic"]["commit_latency_samples"])

    result = ExperimentResult("A2", "Fast vs classic Paxos acceptance path")
    table = Table(
        "Commit latency (ms)",
        ["percentile", "fast path (1 RTT, q=4/5)", "classic path (2 RTT, q=3/5)", "classic / fast"],
    )
    for percentile in (25, 50, 75, 95, 99):
        f = fast_cdf.percentile(percentile)
        c = classic_cdf.percentile(percentile)
        table.add_row(f"p{percentile}", f, c, c / f if f else float("nan"))
    result.tables.append(table)

    ratio = classic_cdf.percentile(50) / fast_cdf.percentile(50)
    result.data["p50_ratio"] = ratio
    result.checks.append(
        ShapeCheck(
            "classic path pays a visible extra round trip at p50",
            1.2 <= ratio <= 2.5,
            f"ratio {ratio:.2f} (two RTTs to the 3/5 quorum vs one to the 4/5)",
        )
    )
    return result


SPEC = register(
    ExperimentSpec(
        id="a2_fast_paxos",
        figure="A2",
        title="Fast vs classic Paxos acceptance path",
        module=__name__,
        grid=_grid,
        run_point=_run_point,
        reduce=_reduce,
    )
)
