"""ISO — isolation level × contention × faults: observed vs predicted.

The tunable-isolation matrix runs the same contended read-modify-write
workload at every isolation level, with and without a fault schedule, and
feeds each recorded history to *both* checkers:

* the **observed** checker (:mod:`repro.check.checker`), level-aware — it
  flags only behaviour the declared levels forbid;
* the **predictive** checker (:mod:`repro.check.predict`), which asks
  whether the declared levels would *permit* an unserializable reordering
  of the dependency graph the run actually produced.

Claims:

1. At ``serializable`` the predictor is silent everywhere — no dependency
   edge is weak, so no feasible-reordering cycle exists.
2. At ``read-committed`` under contention the predictor finds anomalies
   (lost updates at minimum) that the observed checker — correctly —
   does not flag, because the level permits them.  That gap is the whole
   point of predictive analysis: "nothing observed" is not "nothing
   possible".

The first predicted witness's full history lands in ``data`` as a
``repro.check/history-v1`` payload, so the finding replays offline:
``python -m repro check predict <file>``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.experiments.common import planet_with_overrides, scaled
from repro.harness.report import Table
from repro.harness.spec import (
    ExperimentResult,
    ExperimentSpec,
    GridPoint,
    PointContext,
    ShapeCheck,
    register,
)

LEVELS = ("serializable", "snapshot", "monotonic-session", "read-committed")

#: Key-pool sizes: "high" funnels every read-modify-write through a
#: handful of records, "low" spreads them out.
CONTENTION = {"low": 64, "high": 4}

FAULTS = ("none", "faulty")

#: Transactions per point at a 4-second duration, scaled with duration.
TXS_PER_4S = 90


def run_iso_point(
    seed: int,
    isolation: str,
    contention: str,
    fault: str,
    duration_ms: float = 4_000.0,
) -> Dict[str, Any]:
    """One matrix cell: run, check observed, predict, return a JSON row."""
    from repro.check.checker import CheckerConfig, check_history
    from repro.check.history import HistoryRecorder
    from repro.check.predict import predict_history
    from repro.cluster import Cluster, ClusterConfig
    from repro.core.session import PlanetConfig, PlanetSession
    from repro.faults import campaign_plan

    cluster = Cluster(
        ClusterConfig(
            seed=seed,
            jitter_sigma=0.2,
            option_ttl_ms=400.0,
            anti_entropy_interval_ms=500.0,
        )
    )
    pool = CONTENTION[contention]
    cluster.load({f"k{i}": 0 for i in range(pool)})

    plan = None
    if fault == "faulty":
        plan = campaign_plan(
            cluster.datacenter_names, duration_ms, seed=seed, intensity=1.0
        )
        plan.apply(cluster)

    recorder = HistoryRecorder().attach(cluster.sim)
    planet = planet_with_overrides(
        PlanetConfig(isolation=isolation, default_guess_threshold=0.85)
    )
    sessions = {
        dc: PlanetSession(cluster, dc, config=planet) for dc in cluster.datacenter_names
    }

    rng = cluster.sim.rng.stream("iso-matrix-load")
    dc_names = cluster.datacenter_names
    n_txs = max(10, int(round(TXS_PER_4S * duration_ms / 4_000.0)))
    for i in range(n_txs):
        session = sessions[dc_names[i % len(dc_names)]]
        kind = rng.random()
        if kind < 0.5:
            # Single-key read-modify-write: lost-update material.
            key = f"k{rng.randrange(pool)}"
            tx = session.transaction().read(key).write(key, i)
        elif kind < 0.8:
            # Read two, write one: write-skew / long-fork material.
            a, b = rng.randrange(pool), rng.randrange(pool)
            tx = (
                session.transaction()
                .read(f"k{a}")
                .read(f"k{b}")
                .write(f"k{a}", i)
            )
        else:
            tx = session.transaction().read(f"k{rng.randrange(pool)}")
        tx.with_timeout(2_000.0)
        cluster.sim.schedule(rng.uniform(0.0, duration_ms), session.submit, tx)
    cluster.run()
    cluster.settle(3_000.0)

    history = recorder.history()
    recorder.detach(cluster.sim)
    config = CheckerConfig.for_plan(plan) if plan is not None else CheckerConfig()
    violations = check_history(history, config)
    witnesses = predict_history(history)

    anomaly_counts: Dict[str, int] = {}
    for witness in witnesses:
        anomaly_counts[witness.anomaly] = anomaly_counts.get(witness.anomaly, 0) + 1
    row: Dict[str, Any] = {
        "isolation": isolation,
        "contention": contention,
        "fault": fault,
        "txs": n_txs,
        "ops": len(history),
        "digest": history.digest(),
        "observed": len(violations),
        "observed_invariants": sorted({v.invariant for v in violations}),
        "predicted": len(witnesses),
        "anomalies": anomaly_counts,
        "first_witness": witnesses[0].to_dict() if witnesses else None,
    }
    if witnesses:
        # Ship the evidence: the full history replays through
        # `repro check predict` to reproduce the witness offline.
        row["history"] = history.to_dict()
    return row


def _grid(scale: float) -> List[GridPoint]:
    del scale  # the matrix is fixed; scale stretches per-point duration
    points = []
    for isolation in LEVELS:
        for contention in sorted(CONTENTION):
            for fault in FAULTS:
                points.append(
                    GridPoint(
                        key=f"{isolation}/{contention}/{fault}",
                        params={
                            "isolation": isolation,
                            "contention": contention,
                            "fault": fault,
                        },
                    )
                )
    return points


def _run_point(params: Dict[str, Any], ctx: PointContext) -> Dict[str, Any]:
    return run_iso_point(
        ctx.seed,
        isolation=params["isolation"],
        contention=params["contention"],
        fault=params["fault"],
        duration_ms=scaled(4_000.0, ctx.scale, 1_500.0),
    )


def _reduce(rows: List[Dict[str, Any]], ctx: PointContext) -> ExperimentResult:
    result = ExperimentResult(
        "ISO", "Tunable isolation: observed violations vs predicted anomalies"
    )
    table = Table(
        "Isolation × contention × faults",
        ["isolation", "contention", "faults", "ops", "observed", "predicted", "anomalies"],
    )
    for row in rows:
        anomalies = (
            ", ".join(f"{k}×{v}" for k, v in sorted(row["anomalies"].items()))
            or "-"
        )
        table.add_row(
            row["isolation"],
            row["contention"],
            row["fault"],
            row["ops"],
            row["observed"],
            row["predicted"],
            anomalies,
        )
    result.tables.append(table)

    serializable_rows = [r for r in rows if r["isolation"] == "serializable"]
    serializable_predicted = sum(r["predicted"] for r in serializable_rows)
    result.checks.append(
        ShapeCheck(
            "serializable predicts clean",
            serializable_predicted == 0,
            f"{serializable_predicted} predicted witnesses across "
            f"{len(serializable_rows)} serializable points",
        )
    )
    observed = sum(r["observed"] for r in rows)
    result.checks.append(
        ShapeCheck(
            "no observed violations at any level",
            observed == 0,
            f"{observed} observed violations (levels only relax what they "
            f"declare; the engine must still honour each contract)",
        )
    )
    # The acceptance gap: read-committed under contention yields predicted
    # anomalies the observed checker (rightly) does not flag.
    gap_rows = [
        r
        for r in rows
        if r["isolation"] == "read-committed"
        and r["contention"] == "high"
        and r["predicted"] >= 1
        and r["observed"] == 0
    ]
    result.checks.append(
        ShapeCheck(
            "read-committed contention: predicted but not observed",
            bool(gap_rows),
            (
                f"{len(gap_rows)} point(s) with predicted-only anomalies "
                f"({sum(r['predicted'] for r in gap_rows)} witnesses)"
                if gap_rows
                else "no read-committed/high point produced a predicted-only witness"
            ),
        )
    )

    witness_row: Optional[Dict[str, Any]] = next(
        (r for r in gap_rows), next((r for r in rows if r.get("history")), None)
    )
    data: Dict[str, Any] = {
        "rows": [
            {k: v for k, v in row.items() if k != "history"} for row in rows
        ],
        "serializable_predicted": serializable_predicted,
        "observed_total": observed,
    }
    if witness_row is not None:
        from repro.check.history import HISTORY_FORMAT

        data["witness_point"] = (
            f"{witness_row['isolation']}/{witness_row['contention']}/"
            f"{witness_row['fault']}"
        )
        data["witness"] = witness_row["first_witness"]
        data["witness_history"] = {
            "format": HISTORY_FORMAT,
            **witness_row["history"],
        }
    result.data = data
    return result


SPEC = register(
    ExperimentSpec(
        id="iso_matrix",
        figure="ISO",
        title="Tunable isolation: observed vs predicted anomaly matrix",
        module=__name__,
        grid=_grid,
        run_point=_run_point,
        reduce=_reduce,
    )
)
