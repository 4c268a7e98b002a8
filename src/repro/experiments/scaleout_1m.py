"""SC1 — sharded planet-scale simulation: one million users, eight shards.

Each grid point simulates one shard of a 1M-user planet (population and
keyspace partitioned by :class:`~repro.scale.shard.ShardPlan`); the
reduce step performs the deterministic cross-shard merge, derives the
2PC decisions for the cross-shard transactions, and audits the
cross-shard atomicity invariant.

Because the traffic layer holds no per-user state, the *population* is
scale-free: ``--scale`` shrinks simulated duration and offered load, but
every run — including the CI smoke at scale 0.05 — still models the full
million-user id space.

Knobs travel through the sweep's override channel under a ``scale.``
prefix (they parameterise the shard plan, not a PlanetConfig):
``scale.users``, ``scale.duration_ms``, ``scale.total_tps``,
``scale.cross_tps``, ``scale.traffic`` (poisson|diurnal|spike),
``scale.user_dist`` (uniform|zipf), ``scale.n_keys``.

Seeding: the spec sets ``derive_seeds=False`` so every point sees the
experiment's **root seed**.  Shard-local streams then derive from
``(root, stable name)`` inside :func:`~repro.scale.shard.run_shard` —
slice seeds are functions of the *global* slice index, which is what
keeps the traffic byte-identical across shard regroupings and ``--jobs``
counts.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.experiments.common import scaled
from repro.harness.report import Table
from repro.harness.spec import (
    ExperimentResult,
    ExperimentSpec,
    GridPoint,
    PointContext,
    ShapeCheck,
    register,
)
from repro.scale.crossshard import cross_shard_plan
from repro.scale.merge import merge_shards
from repro.scale.shard import ScaleParams, ShardPlan, run_shard

EXPERIMENT_ID = "scaleout_1m"

POPULATION = 1_000_000
SHARDS = 8
SLICES = 64
N_KEYS = 100_000


def _knobs(ctx: PointContext) -> Dict[str, Any]:
    overrides = ctx.overrides
    duration_ms = float(
        overrides.get("scale.duration_ms", scaled(30_000.0, ctx.scale, 1_500.0))
    )
    total_tps = float(
        overrides.get("scale.total_tps", scaled(400.0, ctx.scale, 40.0))
    )
    return {
        "users": int(overrides.get("scale.users", POPULATION)),
        "slices": int(overrides.get("scale.slices", SLICES)),
        "n_keys": int(overrides.get("scale.n_keys", N_KEYS)),
        "duration_ms": duration_ms,
        "total_tps": total_tps,
        "cross_tps": float(
            overrides.get("scale.cross_tps", scaled(2.0, ctx.scale, 2.0))
        ),
        "traffic": str(overrides.get("scale.traffic", "diurnal")),
        "user_dist": str(overrides.get("scale.user_dist", "uniform")),
    }


def _process_descriptor(
    traffic: str, total_tps: float, duration_ms: float
) -> Dict[str, Any]:
    if traffic == "poisson":
        return {"kind": "poisson", "rate_tps": total_tps}
    if traffic == "diurnal":
        # One full day-curve per run; the cosine mix averages total_tps.
        return {
            "kind": "diurnal",
            "base_tps": 0.5 * total_tps,
            "peak_tps": 1.5 * total_tps,
            "period_ms": duration_ms,
            "phase": 0.0,
        }
    if traffic == "spike":
        return {
            "kind": "spike",
            "base_tps": total_tps,
            "trace": [[0.4 * duration_ms, 0.6 * duration_ms, 3.0]],
        }
    raise ValueError(f"unknown scale.traffic {traffic!r}")


def _plan_and_params(ctx: PointContext) -> "tuple[ShardPlan, ScaleParams]":
    knobs = _knobs(ctx)
    plan = ShardPlan(
        population=knobs["users"],
        n_shards=SHARDS,
        slices=knobs["slices"],
        n_keys=knobs["n_keys"],
    )
    params = ScaleParams(
        duration_ms=knobs["duration_ms"],
        process=_process_descriptor(
            knobs["traffic"], knobs["total_tps"], knobs["duration_ms"]
        ),
        user_dist=knobs["user_dist"],
        cross_rate_tps=knobs["cross_tps"],
    )
    return plan, params


def _grid(scale: float) -> List[GridPoint]:
    return [
        GridPoint(key=f"shard{index:02d}", params={"shard": index})
        for index in range(SHARDS)
    ]


def _run_point(params: Dict[str, Any], ctx: PointContext) -> Dict[str, Any]:
    plan, scale_params = _plan_and_params(ctx)
    # ctx.seed is the root seed (derive_seeds=False); run_shard derives
    # every stream from it by stable name.
    return run_shard(plan, int(params["shard"]), ctx.seed, scale_params)


def _reduce(rows: List[Dict[str, Any]], ctx: PointContext) -> ExperimentResult:
    knobs = _knobs(ctx)
    plan, scale_params = _plan_and_params(ctx)
    xplan = cross_shard_plan(
        ctx.seed, plan.n_shards, scale_params.duration_ms, scale_params.cross_rate_tps
    )
    merged = merge_shards(rows, xplan)
    totals = merged["totals"]

    shard_table = Table(
        f"Per-shard rollup ({plan.n_shards} shards x "
        f"{plan.keys_per_shard:,} keys, {knobs['traffic']} traffic)",
        ["shard", "users", "arrivals", "committed", "aborted", "guesses", "ops"],
    )
    for row in sorted(rows, key=lambda r: int(r["shard"])):
        shard_table.add_row(
            row["shard"], f"{row['population']:,}", row["arrivals"],
            row["committed"], row["aborted"], row["guesses"], row["ops"],
        )

    summary = Table(
        "Planet-scale summary",
        ["users", "arrivals", "committed", "commit p50 (ms)", "commit p99 (ms)",
         "xshard commit/abort", "history digest"],
    )
    latency = merged["commit_latency"]
    summary.add_row(
        f"{totals['population']:,}",
        totals["arrivals"],
        totals["committed"],
        f"{latency['p50_ms']:.1f}",
        f"{latency['p99_ms']:.1f}",
        f"{merged['xshard_commits']}/{merged['xshard_aborts']}",
        merged["history_digest"][:16],
    )

    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title="Sharded planet-scale simulation (1M open-loop users)",
        tables=[summary, shard_table],
    )
    result.checks.append(
        ShapeCheck(
            ">= 1M simulated users",
            totals["population"] >= 1_000_000,
            f"{totals['population']:,} users across {merged['shards']} shards",
        )
    )
    result.checks.append(
        ShapeCheck(
            "traffic flows on every shard",
            all(row["arrivals"] > 0 for row in rows),
            f"{totals['arrivals']} arrivals "
            f"(min shard {min(row['arrivals'] for row in rows)})",
        )
    )
    result.checks.append(
        ShapeCheck(
            "per-shard consistency invariants hold",
            not merged["shard_violations"],
            f"{len(merged['shard_violations'])} violation(s)"
            if merged["shard_violations"]
            else f"all {merged['shards']} shard histories clean",
        )
    )
    result.checks.append(
        ShapeCheck(
            "cross-shard atomicity holds",
            not merged["xshard_violations"],
            f"{len(merged['xshard_violations'])} violation(s)"
            if merged["xshard_violations"]
            else (
                f"{len(xplan)} cross-shard txs: {merged['xshard_commits']} "
                f"committed, {merged['xshard_aborts']} aborted, all branches resolved"
            ),
        )
    )

    result.data = {
        "users": totals["population"],
        "shards": merged["shards"],
        "slices": plan.slices,
        "arrivals": totals["arrivals"],
        "committed": totals["committed"],
        "aborted": totals["aborted"],
        "commit_latency": latency,
        "merged_history_digest": merged["history_digest"],
        "merged_metrics": merged["metrics"],
        "xshard_txs": len(xplan),
        "xshard_commits": merged["xshard_commits"],
        "xshard_aborts": merged["xshard_aborts"],
        "xshard_decisions": merged["xshard_decisions"],
        "xshard_violations": merged["xshard_violations"],
        "shard_violations": merged["shard_violations"],
        "knobs": knobs,
    }
    return result


SPEC = register(
    ExperimentSpec(
        id=EXPERIMENT_ID,
        figure="SC1",
        title="Sharded planet-scale simulation (1M open-loop users)",
        module=__name__,
        grid=_grid,
        run_point=_run_point,
        reduce=_reduce,
        derive_seeds=False,
    )
)
