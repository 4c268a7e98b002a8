"""S2 — sensitivity: latency variance is the paper's villain; sweep it.

PLANET exists because wide-area latency is *variable*, not merely large.
Sweeping the lognormal jitter sigma shows (a) the commit tail (p99/p50)
stretching with variance, and (b) the prediction machinery degrading only
gracefully: wrong-guess rates at threshold 0.95 stay bounded because the
deadline ingredient of the likelihood model absorbs what the variance does
to response-time distributions.
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
from repro.workload.keys import HotspotChooser
from repro.workload.microbench import MicrobenchSpec, build_microbench_tx

SIGMAS = (0.0, 0.1, 0.2, 0.4)


def _grid(scale: float) -> List[GridPoint]:
    return [GridPoint(key=f"sigma={sigma}", params={"sigma": sigma}) for sigma in SIGMAS]


def _run_point(params: Dict[str, Any], ctx: PointContext) -> Dict[str, Any]:
    sigma = params["sigma"]
    duration = scaled(30_000.0, ctx.scale, 8_000.0)
    spec = MicrobenchSpec(
        chooser=HotspotChooser(2_000, hot_keys=32, hot_fraction=0.4),
        n_reads=2,
        n_writes=2,
        timeout_ms=2_000.0,
        guess_threshold=0.95,
    )
    config = RunConfig(
        cluster=ClusterConfig(seed=ctx.seed, jitter_sigma=sigma),
        planet=planet_with_overrides(None),
        workload=WorkloadConfig(
            tx_factory=lambda session, rng: build_microbench_tx(session, spec, rng),
            arrival="open",
            rate_tps=6.0,
            clients_per_dc=2,
        ),
        duration_ms=duration,
        warmup_ms=duration * 0.15,
    )
    result = run_experiment(config)
    cdf = result.commit_latency_cdf()
    return {
        "sigma": sigma,
        "p50": cdf.percentile(50),
        "p99": cdf.percentile(99),
        "tail_ratio": cdf.percentile(99) / cdf.percentile(50),
        "wrong_guess_rate": result.wrong_guess_rate(),
        "guessed_fraction": result.guessed_fraction(),
    }


def _reduce(rows: List[Dict[str, Any]], ctx: PointContext) -> ExperimentResult:
    result = ExperimentResult("S2", "Sensitivity to wide-area latency variance")
    table = Table(
        "Jitter sweep (lognormal sigma)",
        ["sigma", "commit p50 (ms)", "commit p99 (ms)", "p99/p50", "wrong-guess %", "guessed %"],
    )
    for row in rows:
        table.add_row(
            row["sigma"], row["p50"], row["p99"], row["tail_ratio"],
            100.0 * row["wrong_guess_rate"], 100.0 * row["guessed_fraction"],
        )
    result.tables.append(table)
    result.data["rows"] = rows

    result.checks.append(
        ShapeCheck(
            "p99 commit latency grows with variance",
            rows[-1]["p99"] > rows[0]["p99"] * 1.15,
            f"p99 {rows[0]['p99']:.0f} ms @ sigma 0 -> "
            f"{rows[-1]['p99']:.0f} ms @ sigma {rows[-1]['sigma']}",
        )
    )
    if ctx.scale >= 0.75:
        # The p99/p50 ratio needs long runs for a stable p99; check the
        # relative tail stretch only at full scale.
        result.checks.append(
            ShapeCheck(
                "the commit tail stretches relative to the median",
                rows[-1]["tail_ratio"] > rows[0]["tail_ratio"] * 1.1,
                f"p99/p50 {rows[0]['tail_ratio']:.2f} @ sigma 0 -> "
                f"{rows[-1]['tail_ratio']:.2f} @ sigma {rows[-1]['sigma']}",
            )
        )
    result.checks.append(
        ShapeCheck(
            "prediction quality degrades only gracefully",
            all(row["wrong_guess_rate"] <= 0.15 for row in rows),
            "; ".join(f"{row['sigma']}: {row['wrong_guess_rate']:.3f}" for row in rows),
        )
    )
    return result


SPEC = register(
    ExperimentSpec(
        id="s2_jitter",
        figure="S2",
        title="Sensitivity to wide-area latency variance",
        module=__name__,
        grid=_grid,
        run_point=_run_point,
        reduce=_reduce,
    )
)
