"""F6 — commit latency CDF: optimistic MDCC-style commit vs 2PC baseline.

Claim: with the fast-Paxos path, a geo-replicated commit completes in about
one wide-area round trip to the quorum-forming data centers, while the
eager 2PC-over-synchronous-replication baseline needs at least two wide-area
hops (coordinator -> primary -> majority of backups and back) — so the
baseline's latency distribution sits well to the right of PLANET's.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.experiments.common import microbench_run, scaled
from repro.harness.ascii_plot import render_cdfs
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

ENGINES = ("mdcc", "twopc")


def _grid(scale: float) -> List[GridPoint]:
    return [GridPoint(key=f"engine={engine}", params={"engine": engine}) for engine in ENGINES]


def _run_point(params: Dict[str, Any], ctx: PointContext) -> Dict[str, Any]:
    duration = scaled(30_000.0, ctx.scale, 6_000.0)
    run_result = microbench_run(
        engine=params["engine"],
        seed=ctx.seed,
        n_keys=5_000,            # low contention: this figure is about latency
        rate_tps=4.0,
        clients_per_dc=2,
        duration_ms=duration,
        warmup_ms=duration * 0.1,
        timeout_ms=5_000.0,
        guess_threshold=None,    # pure commit latency, no speculation
    )
    samples = [
        tx.commit_latency_ms()
        for tx in run_result.committed()
        if tx.commit_latency_ms() is not None
    ]
    topology = run_result.cluster.topology
    return {
        "engine": params["engine"],
        "commit_latency_samples": samples,
        "committed": len(run_result.committed()),
        "quorum_floors_ms": [topology.quorum_rtt_ms(dc, 4) for dc in topology],
    }


def _reduce(rows: List[Dict[str, Any]], ctx: PointContext) -> ExperimentResult:
    by_engine = {row["engine"]: row for row in rows}
    mdcc_cdf = LatencyCdf()
    mdcc_cdf.extend(by_engine["mdcc"]["commit_latency_samples"])
    twopc_cdf = LatencyCdf()
    twopc_cdf.extend(by_engine["twopc"]["commit_latency_samples"])

    result = ExperimentResult("F6", "Transaction commit latency CDF (MDCC/PLANET vs 2PC)")
    table = Table(
        "Commit latency by percentile (ms)",
        ["percentile", "PLANET (MDCC fast)", "2PC baseline", "2PC / PLANET"],
    )
    for percentile in (10, 25, 50, 75, 90, 95, 99):
        a = mdcc_cdf.percentile(percentile)
        b = twopc_cdf.percentile(percentile)
        table.add_row(f"p{percentile}", a, b, b / a if a else float("nan"))
    result.tables.append(table)
    result.figures.append(
        render_cdfs({"PLANET (MDCC fast)": mdcc_cdf, "2PC baseline": twopc_cdf})
    )

    p50_ratio = twopc_cdf.percentile(50) / mdcc_cdf.percentile(50)
    result.data.update(
        {
            "mdcc_p50": mdcc_cdf.percentile(50),
            "twopc_p50": twopc_cdf.percentile(50),
            "p50_ratio": p50_ratio,
            "mdcc_committed": by_engine["mdcc"]["committed"],
            "twopc_committed": by_engine["twopc"]["committed"],
        }
    )

    # Shape: PLANET commit ~= 1 wide-area quorum RTT; worst coordinator
    # (ireland) has a 265 ms floor, best (us_west) 155 ms — the mixed-DC p50
    # should sit in that band, and 2PC should be >= 1.4x slower at p50.
    floors = by_engine["mdcc"]["quorum_floors_ms"]
    low, high = min(floors) * 0.8, max(floors) * 1.6
    mdcc_p50 = mdcc_cdf.percentile(50)
    result.checks.append(
        ShapeCheck(
            "PLANET p50 commit within the one-quorum-RTT band",
            low <= mdcc_p50 <= high,
            f"p50 {mdcc_p50:.0f} ms, band [{low:.0f}, {high:.0f}] ms",
        )
    )
    result.checks.append(
        ShapeCheck(
            "2PC at least 1.4x slower than PLANET at p50",
            p50_ratio >= 1.4,
            f"ratio {p50_ratio:.2f}",
        )
    )
    return result


SPEC = register(
    ExperimentSpec(
        id="f6_commit_latency",
        figure="F6",
        title="Transaction commit latency CDF (MDCC/PLANET vs 2PC)",
        module=__name__,
        grid=_grid,
        run_point=_run_point,
        reduce=_reduce,
    )
)
