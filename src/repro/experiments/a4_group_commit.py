"""A4 — ablation: WAL group commit (sync batching at replicas).

Every accepted option is forced to the replica's log before the vote goes
out.  With per-append syncs, the log forces once per vote — the classic
bottleneck of log-bound storage.  Group commit batches appends into one
flush per window, trading a little per-vote latency (half a window on
average) for an order-of-magnitude reduction in forced syncs.

Our simulator charges a constant per sync rather than modelling a disk
queue, so the observable trade is exactly the textbook one: sync count
collapses, commit latency rises by about the batch window.  The check pins
both directions so a regression in either shows up.
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
from repro.workload.keys import UniformChooser
from repro.workload.microbench import MicrobenchSpec, build_microbench_tx

WINDOWS_MS = (0.0, 2.0, 5.0, 10.0)


def _grid(scale: float) -> List[GridPoint]:
    return [
        GridPoint(key=f"window={window}", params={"window_ms": window})
        for window in WINDOWS_MS
    ]


def _run_point(params: Dict[str, Any], ctx: PointContext) -> Dict[str, Any]:
    window_ms = params["window_ms"]
    duration = scaled(20_000.0, ctx.scale, 6_000.0)
    spec = MicrobenchSpec(
        chooser=UniformChooser(4_000),
        n_reads=1,
        n_writes=2,
        timeout_ms=5_000.0,
    )
    config = RunConfig(
        cluster=ClusterConfig(
            seed=ctx.seed, jitter_sigma=0.2, wal_sync_delay_ms=1.0,
            wal_batch_window_ms=window_ms,
        ),
        planet=planet_with_overrides(None),
        workload=WorkloadConfig(
            tx_factory=lambda session, rng: build_microbench_tx(session, spec, rng),
            arrival="open",
            rate_tps=10.0,
            clients_per_dc=2,
        ),
        duration_ms=duration,
        warmup_ms=duration * 0.1,
    )
    result = run_experiment(config)
    syncs = sum(node.wal.sync_count for node in result.cluster.storage_nodes.values())
    appends = sum(node.wal.appends for node in result.cluster.storage_nodes.values())
    return {
        "window_ms": window_ms,
        "commit_p50": result.commit_latency_cdf().percentile(50),
        "syncs": syncs,
        "appends": appends,
        "syncs_per_append": syncs / appends if appends else float("nan"),
    }


def _reduce(rows: List[Dict[str, Any]], ctx: PointContext) -> ExperimentResult:
    result = ExperimentResult("A4", "WAL group commit: syncs saved vs latency added")
    table = Table(
        "Batch-window sweep (sync cost 1 ms per flush)",
        ["batch window (ms)", "commit p50 (ms)", "log syncs", "appends", "syncs/append"],
    )
    for row in rows:
        table.add_row(
            row["window_ms"], row["commit_p50"], row["syncs"], row["appends"],
            row["syncs_per_append"],
        )
    result.tables.append(table)
    result.data["rows"] = rows

    base, widest = rows[0], rows[-1]
    result.checks.append(
        ShapeCheck(
            "group commit slashes forced syncs",
            widest["syncs_per_append"] < base["syncs_per_append"] * 0.5,
            f"syncs/append {base['syncs_per_append']:.2f} -> "
            f"{widest['syncs_per_append']:.2f} at {widest['window_ms']:.0f} ms window",
        )
    )
    result.checks.append(
        ShapeCheck(
            "the latency cost stays bounded by ~2 windows",
            widest["commit_p50"] <= base["commit_p50"] + 2 * widest["window_ms"] + 5.0,
            f"commit p50 {base['commit_p50']:.1f} -> {widest['commit_p50']:.1f} ms",
        )
    )
    return result


SPEC = register(
    ExperimentSpec(
        id="a4_group_commit",
        figure="A4",
        title="WAL group commit: syncs saved vs latency added",
        module=__name__,
        grid=_grid,
        run_point=_run_point,
        reduce=_reduce,
    )
)
