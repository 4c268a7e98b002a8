"""T2 — end-to-end workload summary table.

The closing table of the evaluation: for the microbenchmark and the
TPC-W-like checkout workload, one row per system configuration with
throughput, latency percentiles, abort rate and speculation quality.
It also demonstrates the value of commutative (escrow) stock decrements:
the checkout workload with exclusive stock writes conflicts heavily on
best-sellers, while delta options commute and almost never abort.
"""

from __future__ import annotations

from repro.cluster import ClusterConfig
from repro.experiments.common import microbench_run, planet_with_overrides, scaled
from repro.experiments.registry import single_point_spec
from repro.harness.config import RunConfig, WorkloadConfig
from repro.harness.report import Table
from repro.harness.runner import run_experiment
from repro.harness.spec import ExperimentResult, ShapeCheck, register
from repro.workload.tpcw import TpcwSpec, build_checkout_tx


def _tpcw_run(seed: int, duration: float, engine: str, exclusive_stock: bool):
    spec = TpcwSpec(
        n_customers=2_000,
        n_items=500,
        item_theta=0.95,
        initial_stock=1_000_000,
        exclusive_stock=exclusive_stock,
        timeout_ms=2_000.0,
        guess_threshold=0.95 if engine == "mdcc" else None,
    )
    config = RunConfig(
        cluster=ClusterConfig(seed=seed, engine=engine),
        planet=planet_with_overrides(None),
        workload=WorkloadConfig(
            tx_factory=lambda session, rng: build_checkout_tx(session, spec, rng),
            arrival="open",
            rate_tps=6.0,
            clients_per_dc=2,
        ),
        duration_ms=duration,
        warmup_ms=duration * 0.1,
        initial_data=spec.initial_data(),
    )
    return run_experiment(config)


def _run(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    duration = scaled(30_000.0, scale, 6_000.0)
    runs = {}
    micro_shared = dict(
        seed=seed,
        n_keys=4_096,
        hot_keys=64,
        hot_fraction=0.5,
        rate_tps=6.0,
        clients_per_dc=2,
        duration_ms=duration,
        warmup_ms=duration * 0.1,
        timeout_ms=2_000.0,
    )
    runs["micro / PLANET"] = microbench_run(guess_threshold=0.95, **micro_shared)
    runs["micro / 2PC"] = microbench_run(engine="twopc", guess_threshold=None, **micro_shared)
    runs["checkout / PLANET (escrow)"] = _tpcw_run(seed, duration, "mdcc", exclusive_stock=False)
    runs["checkout / PLANET (exclusive)"] = _tpcw_run(seed, duration, "mdcc", exclusive_stock=True)
    runs["checkout / 2PC"] = _tpcw_run(seed, duration, "twopc", exclusive_stock=False)

    result = ExperimentResult("T2", "Workload summary (microbench + TPC-W-like checkout)")
    table = Table(
        "Per-system summary",
        [
            "workload / system",
            "goodput tps",
            "commit p50 ms",
            "commit p99 ms",
            "abort %",
            "guessed %",
            "wrong-guess %",
        ],
    )
    for name, run_result in runs.items():
        cdf = run_result.commit_latency_cdf()
        table.add_row(
            name,
            run_result.goodput_tps(),
            cdf.percentile(50),
            cdf.percentile(99),
            100.0 * run_result.abort_rate(),
            100.0 * run_result.guessed_fraction(),
            100.0 * run_result.wrong_guess_rate(),
        )
    result.tables.append(table)
    result.data["summaries"] = {name: r.summary() for name, r in runs.items()}

    planet_micro = runs["micro / PLANET"]
    twopc_micro = runs["micro / 2PC"]
    result.checks.append(
        ShapeCheck(
            "PLANET beats 2PC on microbench commit p50",
            planet_micro.commit_latency_cdf().percentile(50)
            < twopc_micro.commit_latency_cdf().percentile(50),
            f"{planet_micro.commit_latency_cdf().percentile(50):.0f} ms vs "
            f"{twopc_micro.commit_latency_cdf().percentile(50):.0f} ms",
        )
    )
    escrow = runs["checkout / PLANET (escrow)"]
    exclusive = runs["checkout / PLANET (exclusive)"]
    result.checks.append(
        ShapeCheck(
            "escrow stock decrements abort far less than exclusive writes",
            escrow.abort_rate() < exclusive.abort_rate() * 0.5,
            f"abort {escrow.abort_rate():.3f} (escrow) vs "
            f"{exclusive.abort_rate():.3f} (exclusive)",
        )
    )
    return result


SPEC = register(
    single_point_spec(
        experiment_id="t2_summary",
        figure="T2",
        title="Workload summary (microbench + TPC-W-like checkout)",
        module=__name__,
        run_fn=_run,
    )
)
