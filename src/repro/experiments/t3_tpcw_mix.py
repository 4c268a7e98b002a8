"""T3 — the full TPC-W-like transaction mix, per-type breakdown.

Runs the complete interactive-shop mix (50% browse, 25% add-to-cart, 15%
checkout, 10% payment) against the PLANET stack and reports latency and
outcome quality per transaction type.  The shape claims:

* browses are read-only: they commit locally in ~one intra-DC round trip;
* single-key cart updates and multi-key checkouts both commit in ~one
  wide-area quorum RTT — transaction size costs messages, not round trips;
* escrow keeps checkout/payment abort rates near zero at this load.
"""

from __future__ import annotations

from repro.cluster import ClusterConfig
from repro.experiments.common import planet_with_overrides, scaled
from repro.experiments.registry import single_point_spec
from repro.harness.config import RunConfig, WorkloadConfig
from repro.harness.report import Table
from repro.harness.runner import run_experiment
from repro.harness.spec import ExperimentResult, ShapeCheck, register
from repro.stats.histogram import LatencyCdf
from repro.workload.tpcw import TpcwSpec, build_tpcw_tx


def _classify(tx) -> str:
    if not tx.writes:
        return "browse"
    if tx.writes[0].key.startswith("cart:"):
        return "add_to_cart"
    if any(op.key.startswith("balance:") for op in tx.writes):
        return "payment"
    return "checkout"


def _run(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    duration = scaled(30_000.0, scale, 8_000.0)
    spec = TpcwSpec(
        n_customers=2_000,
        n_items=500,
        item_theta=0.95,
        timeout_ms=2_000.0,
        guess_threshold=0.95,
    )
    config = RunConfig(
        cluster=ClusterConfig(seed=seed),
        planet=planet_with_overrides(None),
        workload=WorkloadConfig(
            tx_factory=lambda session, rng: build_tpcw_tx(session, spec, rng),
            arrival="open",
            rate_tps=8.0,
            clients_per_dc=2,
        ),
        duration_ms=duration,
        warmup_ms=duration * 0.1,
        initial_data=spec.initial_data(),
    )
    run_result = run_experiment(config)

    by_type = {}
    for tx in run_result.transactions:
        by_type.setdefault(_classify(tx), []).append(tx)

    result = ExperimentResult("T3", "TPC-W-like mixed workload, per-transaction-type breakdown")
    table = Table(
        "Per-type latency and outcomes",
        ["type", "count", "commit p50 (ms)", "commit p99 (ms)", "abort %", "guessed %"],
    )
    stats = {}
    for kind in ("browse", "add_to_cart", "checkout", "payment"):
        txs = by_type.get(kind, [])
        cdf = LatencyCdf()
        for tx in txs:
            latency = tx.commit_latency_ms()
            if tx.committed and latency is not None:
                cdf.update(latency)
        aborted = sum(1 for tx in txs if not tx.committed)
        guessed = sum(1 for tx in txs if tx.was_guessed)
        stats[kind] = {
            "count": len(txs),
            "p50": cdf.percentile(50),
            "p99": cdf.percentile(99),
            "abort_rate": aborted / len(txs) if txs else float("nan"),
        }
        table.add_row(
            kind,
            len(txs),
            cdf.percentile(50),
            cdf.percentile(99),
            100.0 * stats[kind]["abort_rate"],
            100.0 * guessed / len(txs) if txs else float("nan"),
        )
    result.tables.append(table)
    result.data["stats"] = stats

    result.checks.append(
        ShapeCheck(
            "read-only browses decide in ~one intra-DC round trip",
            stats["browse"]["p50"] < 20.0,
            f"browse p50 {stats['browse']['p50']:.1f} ms",
        )
    )
    result.checks.append(
        ShapeCheck(
            "multi-key checkout costs no extra round trips over single-key cart",
            stats["checkout"]["p50"] < stats["add_to_cart"]["p50"] * 1.3,
            f"checkout p50 {stats['checkout']['p50']:.0f} ms vs cart "
            f"{stats['add_to_cart']['p50']:.0f} ms",
        )
    )
    result.checks.append(
        ShapeCheck(
            "escrow keeps write-path abort rates low",
            stats["checkout"]["abort_rate"] < 0.1 and stats["payment"]["abort_rate"] < 0.1,
            f"checkout {stats['checkout']['abort_rate']:.3f}, "
            f"payment {stats['payment']['abort_rate']:.3f}",
        )
    )
    return result


SPEC = register(
    single_point_spec(
        experiment_id="t3_tpcw_mix",
        figure="T3",
        title="TPC-W-like mixed workload, per-transaction-type breakdown",
        module=__name__,
        run_fn=_run,
    )
)
