"""T1 — validate the simulated inter-DC latency substrate.

The paper deploys across five EC2 regions and reports the round-trip-time
matrix its latency results rest on.  This experiment measures the RTT matrix
*inside the simulator* (median of sampled per-message latencies, out and
back) and checks it reproduces the configured topology within jitter
tolerance — the precondition for every latency figure that follows.
"""

from __future__ import annotations

from repro.experiments.registry import single_point_spec
from repro.harness.report import Table
from repro.harness.spec import ExperimentResult, ShapeCheck, register
from repro.net.latency import LatencyModel
from repro.net.topology import EC2_FIVE_DC
from repro.sim.rng import RngRegistry
from repro.stats.histogram import LatencyCdf


def _run(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    topology = EC2_FIVE_DC
    latency = LatencyModel(topology, jitter_sigma=0.2)
    rng = RngRegistry(seed).stream("t1")
    n_samples = max(int(2000 * scale), 200)

    result = ExperimentResult("T1", "Inter-data-center RTT matrix (measured vs configured)")
    table = Table(
        "Median measured RTT (ms); configured RTT in parentheses",
        ["from \\ to"] + [dc.name for dc in topology],
    )
    worst_relative_error = 0.0
    for src in topology:
        cells = [src.name]
        for dst in topology:
            if src.index == dst.index:
                cells.append("-")
                continue
            rtts = LatencyCdf()
            for _ in range(n_samples):
                out = latency.sample_ms(src, dst, now=0.0, rng=rng)
                back = latency.sample_ms(dst, src, now=0.0, rng=rng)
                rtts.update(out + back)
            measured = rtts.percentile(50)
            configured = topology.rtt_ms(src, dst)
            worst_relative_error = max(
                worst_relative_error, abs(measured - configured) / configured
            )
            cells.append(f"{measured:.1f} ({configured:.0f})")
        table.add_row(*cells)
    result.tables.append(table)
    result.data["worst_relative_error"] = worst_relative_error
    result.checks.append(
        ShapeCheck(
            "median RTT within 10% of configured matrix",
            worst_relative_error < 0.10,
            f"worst relative error {worst_relative_error:.3f}",
        )
    )

    # The quorum-RTT floor the commit-latency experiments compare against.
    floor_table = Table(
        "Fast-quorum (4 of 5) RTT floor per coordinator DC",
        ["coordinator DC", "quorum RTT (ms)"],
    )
    for dc in topology:
        floor_table.add_row(dc.name, topology.quorum_rtt_ms(dc, 4))
    result.tables.append(floor_table)
    return result


SPEC = register(
    single_point_spec(
        experiment_id="t1_rtt_matrix",
        figure="T1",
        title="Inter-data-center RTT matrix (measured vs configured)",
        module=__name__,
        run_fn=_run,
    )
)
