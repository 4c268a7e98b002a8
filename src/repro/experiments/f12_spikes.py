"""F12 — behaviour in an unpredictable environment (injected latency spikes).

Claim: this is the paper's motivating scenario.  When wide-area latency
spikes (consolidation interference, geo-link congestion), blocking commit
latency blows up with it — but an application using PLANET's guess callbacks
keeps responding at nearly its normal pace, because the guess only needs the
predicted likelihood, which is driven by the *earliest* votes (local and
near-by replicas), not the slow far quorum.

We inject periodic 4x latency spikes on every wide-area link and compare the
p99 of (a) blocking final-commit latency vs (b) the PLANET response latency
(guess when one fires, decision otherwise), inside and outside spikes.
"""

from __future__ import annotations

from repro.experiments.common import microbench_run, scaled
from repro.experiments.registry import single_point_spec
from repro.harness.report import Table
from repro.harness.spec import ExperimentResult, ShapeCheck, register
from repro.stats.histogram import LatencyCdf
from repro.workload.spikes import periodic_spikes


def _split_by_spike(transactions, spikes):
    """Partition transactions by whether they were submitted during a spike."""
    windows = [(s.start_ms, s.start_ms + s.duration_ms) for s in spikes]
    inside, outside = [], []
    for tx in transactions:
        submitted = tx.submitted_at
        if submitted is None:
            continue
        if any(start <= submitted < end for start, end in windows):
            inside.append(tx)
        else:
            outside.append(tx)
    return inside, outside


def _cdfs(transactions):
    commit = LatencyCdf()
    response = LatencyCdf()
    for tx in transactions:
        commit_latency = tx.commit_latency_ms()
        if tx.committed and commit_latency is not None:
            commit.update(commit_latency)
        response_latency = tx.guess_latency_ms()
        if response_latency is None:
            response_latency = commit_latency
        if response_latency is not None:
            response.update(response_latency)
    return commit, response


def _run(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    duration = scaled(60_000.0, scale, 12_000.0)
    warmup = duration * 0.1
    spikes = periodic_spikes(
        first_start_ms=warmup + duration * 0.1,
        period_ms=duration * 0.2,
        duration_ms=duration * 0.08,
        count=4,
        multiplier=4.0,
    )
    run_result = microbench_run(
        seed=seed,
        n_keys=5_000,
        rate_tps=4.0,
        clients_per_dc=2,
        duration_ms=duration,
        warmup_ms=warmup,
        timeout_ms=10_000.0,
        guess_threshold=0.95,
        spikes=spikes,
    )

    inside, outside = _split_by_spike(run_result.transactions, spikes)
    commit_in, response_in = _cdfs(inside)
    commit_out, response_out = _cdfs(outside)

    result = ExperimentResult("F12", "Latency under injected wide-area spikes (4x)")
    table = Table(
        "Latency (ms) inside vs outside spike windows",
        ["metric", "outside spikes", "inside spikes", "inflation"],
    )
    rows = [
        ("blocking commit p50", commit_out.percentile(50), commit_in.percentile(50)),
        ("blocking commit p99", commit_out.percentile(99), commit_in.percentile(99)),
        ("PLANET response p50", response_out.percentile(50), response_in.percentile(50)),
        ("PLANET response p99", response_out.percentile(99), response_in.percentile(99)),
    ]
    for name, out_v, in_v in rows:
        table.add_row(name, out_v, in_v, in_v / out_v if out_v else float("nan"))
    result.tables.append(table)

    commit_inflation = commit_in.percentile(99) / commit_out.percentile(99)
    response_inflation = response_in.percentile(99) / response_out.percentile(99)
    result.data.update(
        {
            "n_inside": len(inside),
            "n_outside": len(outside),
            "commit_p99_inflation": commit_inflation,
            "response_p99_inflation": response_inflation,
        }
    )
    result.checks.append(
        ShapeCheck(
            "spikes inflate blocking commit latency substantially",
            commit_inflation >= 2.0,
            f"commit p99 inflates {commit_inflation:.2f}x during spikes",
        )
    )
    result.checks.append(
        ShapeCheck(
            "PLANET keeps responses fast even inside spikes",
            response_in.percentile(99) <= commit_in.percentile(99) * 0.5,
            f"response p99 {response_in.percentile(99):.0f} ms vs blocking "
            f"commit p99 {commit_in.percentile(99):.0f} ms during spikes",
        )
    )
    return result


SPEC = register(
    single_point_spec(
        experiment_id="f12_spikes",
        figure="F12",
        title="Latency under injected wide-area spikes (4x)",
        module=__name__,
        run_fn=_run,
    )
)
