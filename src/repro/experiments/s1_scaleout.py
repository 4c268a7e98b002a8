"""S1 — sensitivity: how commit latency scales with the number of regions.

Adding regions to a geo-replicated deployment grows the fast quorum
(ceil((n + maj)/2)) and pushes its farthest member outward, so durable
commit latency climbs — while the time-to-guess barely moves, because the
first votes always come from the nearest replicas.  This is the scaling
argument for the staged programming model: the more global the deployment,
the bigger the guess's win.
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
from repro.net.topology import make_synthetic_topology
from repro.paxos.ballot import fast_quorum
from repro.workload.clients import OpenLoopClient
from repro.workload.keys import UniformChooser
from repro.workload.microbench import MicrobenchSpec, build_microbench_tx

DC_COUNTS = (3, 5, 7, 9)


def _grid(scale: float) -> List[GridPoint]:
    return [GridPoint(key=f"dcs={n}", params={"n_dcs": n}) for n in DC_COUNTS]


def _run_point(params: Dict[str, Any], ctx: PointContext) -> Dict[str, Any]:
    n_dcs = params["n_dcs"]
    seed = ctx.seed
    duration = scaled(20_000.0, ctx.scale, 6_000.0)
    topology = make_synthetic_topology(n_dcs, seed=seed)
    cluster = Cluster(ClusterConfig(topology=topology, seed=seed, jitter_sigma=0.2))
    spec = MicrobenchSpec(
        chooser=UniformChooser(5_000),
        n_reads=1,
        n_writes=2,
        timeout_ms=5_000.0,
        guess_threshold=0.95,
    )
    session = PlanetSession(
        cluster, topology.datacenters[0].name, config=planet_with_overrides(None)
    )
    OpenLoopClient(
        session,
        lambda s, rng: build_microbench_tx(s, spec, rng),
        rate_tps=10.0,
        end_ms=duration,
    )
    cluster.run()
    committed = [tx for tx in session.finished if tx.committed]
    commit_p50 = sorted(tx.commit_latency_ms() for tx in committed)[len(committed) // 2]
    guesses = sorted(
        tx.guess_latency_ms() for tx in session.finished if tx.guess_latency_ms() is not None
    )
    guess_p50 = guesses[len(guesses) // 2] if guesses else float("nan")
    origin = topology.datacenters[0]
    return {
        "n": n_dcs,
        "quorum": fast_quorum(n_dcs),
        "quorum_rtt_floor": topology.quorum_rtt_ms(origin, fast_quorum(n_dcs)),
        "commit_p50": commit_p50,
        "guess_p50": guess_p50,
    }


def _reduce(rows: List[Dict[str, Any]], ctx: PointContext) -> ExperimentResult:
    result = ExperimentResult("S1", "Commit latency vs number of data centers")
    table = Table(
        "Scale-out sweep (synthetic topologies, coordinator at dc0)",
        ["regions", "fast quorum", "quorum RTT floor (ms)", "commit p50 (ms)", "guess p50 (ms)"],
    )
    for row in rows:
        table.add_row(
            row["n"], row["quorum"], row["quorum_rtt_floor"],
            row["commit_p50"], row["guess_p50"],
        )
    result.tables.append(table)
    result.data["rows"] = rows

    result.checks.append(
        ShapeCheck(
            "commit latency grows with deployment size",
            rows[-1]["commit_p50"] > rows[0]["commit_p50"] * 1.15,
            f"p50 {rows[0]['commit_p50']:.0f} ms @ {rows[0]['n']} DCs -> "
            f"{rows[-1]['commit_p50']:.0f} ms @ {rows[-1]['n']} DCs",
        )
    )
    result.checks.append(
        ShapeCheck(
            "guess latency stays flat as the deployment grows",
            rows[-1]["guess_p50"] < rows[0]["guess_p50"] * 3 + 10.0,
            f"guess p50 {rows[0]['guess_p50']:.1f} -> {rows[-1]['guess_p50']:.1f} ms",
        )
    )
    result.checks.append(
        ShapeCheck(
            "commit p50 tracks the quorum RTT floor",
            all(
                row["commit_p50"] >= row["quorum_rtt_floor"] * 0.7
                and row["commit_p50"] <= row["quorum_rtt_floor"] * 2.0
                for row in rows
            ),
            "; ".join(
                f"{row['n']}DC: {row['commit_p50']:.0f}/{row['quorum_rtt_floor']:.0f}"
                for row in rows
            ),
        )
    )
    return result


SPEC = register(
    ExperimentSpec(
        id="s1_scaleout",
        figure="S1",
        title="Commit latency vs number of data centers",
        module=__name__,
        grid=_grid,
        run_point=_run_point,
        reduce=_reduce,
    )
)
