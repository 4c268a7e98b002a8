"""S3 — sensitivity: message loss, deadlines, and orphan recovery together.

Cloud networks drop packets.  In the options engine a lost vote can delay a
quorum past the deadline (timeout abort), and a lost decision message leaves
a replica holding a pending option.  This sweep raises the uniform loss
probability and verifies the stack's resilience story end-to-end:

* timeout aborts grow with loss (deadlines convert missing messages into
  clean failures);
* with orphan recovery armed, no pending options survive the run at any
  loss rate — the status rounds mop up what lost decisions leave behind;
* with anti-entropy armed, the replicas *converge* despite lost decision
  broadcasts: after a settle window, every data center holds identical
  committed state even at 5% uniform loss.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.cluster import Cluster, ClusterConfig
from repro.core.session import PlanetSession
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
from repro.workload.clients import OpenLoopClient
from repro.workload.keys import UniformChooser
from repro.workload.microbench import MicrobenchSpec, build_microbench_tx

LOSS_RATES = (0.0, 0.005, 0.02, 0.05)


def _grid(scale: float) -> List[GridPoint]:
    return [GridPoint(key=f"loss={loss}", params={"loss": loss}) for loss in LOSS_RATES]


def _run_point(params: Dict[str, Any], ctx: PointContext) -> Dict[str, Any]:
    loss = params["loss"]
    duration = scaled(20_000.0, ctx.scale, 6_000.0)
    cluster = Cluster(
        ClusterConfig(
            seed=ctx.seed,
            jitter_sigma=0.2,
            loss_probability=loss,
            option_ttl_ms=1_500.0,
            anti_entropy_interval_ms=1_000.0,
        )
    )
    spec = MicrobenchSpec(
        chooser=UniformChooser(3_000),
        n_reads=1,
        n_writes=2,
        timeout_ms=1_500.0,
    )
    planet = planet_with_overrides(None)
    sessions = [
        PlanetSession(cluster, dc, config=planet) for dc in cluster.datacenter_names
    ]
    for session in sessions:
        OpenLoopClient(
            session,
            lambda s, rng: build_microbench_tx(s, spec, rng),
            rate_tps=5.0,
            end_ms=duration,
            name=f"{session.dc_name}-s3",
        )
    cluster.run()
    cluster.settle(5_000.0)  # anti-entropy convergence window
    finished = [tx for session in sessions for tx in session.finished if tx.decision]
    timeouts = sum(1 for tx in finished if tx.abort_reason.value == "timeout")
    committed = sum(1 for tx in finished if tx.committed)
    pending_left = sum(
        1
        for node in cluster.storage_nodes.values()
        for key in node.store.keys()
        if node.store.record(key).pending
    )
    states = set()
    for node in cluster.storage_nodes.values():
        states.add(tuple(sorted(
            (key, node.store.record(key).latest.value)
            for key in node.store.keys()
            if node.store.record(key).committed_version > 0
        )))
    return {
        "converged": len(states) == 1,
        "loss": loss,
        "transactions": len(finished),
        "timeout_rate": timeouts / len(finished) if finished else float("nan"),
        "commit_rate": committed / len(finished) if finished else float("nan"),
        "pending_left": pending_left,
    }


def _reduce(rows: List[Dict[str, Any]], ctx: PointContext) -> ExperimentResult:
    result = ExperimentResult("S3", "Sensitivity to message loss (with orphan recovery)")
    table = Table(
        "Uniform loss sweep, 1.5 s deadlines, recovery armed",
        ["loss %", "transactions", "commit %", "timeout-abort %", "pending left"],
    )
    for row in rows:
        table.add_row(
            100.0 * row["loss"],
            row["transactions"],
            100.0 * row["commit_rate"],
            100.0 * row["timeout_rate"],
            row["pending_left"],
        )
    result.tables.append(table)
    result.data["rows"] = rows

    result.checks.append(
        ShapeCheck(
            "timeout aborts grow with loss",
            rows[-1]["timeout_rate"] > rows[0]["timeout_rate"],
            f"{rows[0]['timeout_rate']:.4f} @ 0% -> "
            f"{rows[-1]['timeout_rate']:.4f} @ {rows[-1]['loss']:.0%}",
        )
    )
    result.checks.append(
        ShapeCheck(
            "most transactions still commit at 5% loss",
            rows[-1]["commit_rate"] > 0.7,
            f"commit rate {rows[-1]['commit_rate']:.3f}",
        )
    )
    result.checks.append(
        ShapeCheck(
            "orphan recovery leaves no pending options at any loss rate",
            all(row["pending_left"] == 0 for row in rows),
            "; ".join(f"{row['loss']:.1%}: {row['pending_left']}" for row in rows),
        )
    )
    result.checks.append(
        ShapeCheck(
            "anti-entropy converges the replicas at every loss rate",
            all(row["converged"] for row in rows),
            "; ".join(f"{row['loss']:.1%}: {row['converged']}" for row in rows),
        )
    )
    return result


SPEC = register(
    ExperimentSpec(
        id="s3_message_loss",
        figure="S3",
        title="Sensitivity to message loss (with orphan recovery)",
        module=__name__,
        grid=_grid,
        run_point=_run_point,
        reduce=_reduce,
    )
)
