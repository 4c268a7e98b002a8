"""F8 — is the commit-likelihood prediction calibrated?

Claim: when the model predicts likelihood ``p`` (snapshotted at the first
replica vote of each transaction), the observed commit frequency in that
prediction bucket is close to ``p``.  The workload mixes contention levels
(a hot set plus a cold majority) so predictions span a wide range rather
than clustering at 1.0.  Summary statistic: expected calibration error.
"""

from __future__ import annotations

import math

from repro.experiments.common import microbench_run, scaled
from repro.experiments.registry import single_point_spec
from repro.harness.report import Table
from repro.harness.spec import ExperimentResult, ShapeCheck, register


def _run(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    duration = scaled(60_000.0, scale, 10_000.0)
    run_result = microbench_run(
        seed=seed,
        n_keys=2_000,
        hot_keys=24,            # a genuinely hot set drives real conflicts
        hot_fraction=0.5,
        rate_tps=8.0,
        clients_per_dc=2,
        duration_ms=duration,
        warmup_ms=duration * 0.15,
        timeout_ms=2_000.0,
        guess_threshold=None,   # observe predictions without acting on them
    )

    bins = run_result.calibration(at="first_vote")
    result = ExperimentResult("F8", "Commit-likelihood calibration (predicted vs observed)")
    table = Table(
        "Reliability diagram (prediction snapshot at first vote)",
        ["bucket", "count", "mean predicted", "observed commit rate", "|gap|"],
    )
    for row in bins.rows():
        if row.count == 0:
            continue
        table.add_row(
            f"[{row.bin_low:.1f}, {row.bin_high:.1f})",
            row.count,
            row.mean_predicted,
            row.observed_rate,
            row.gap,
        )
    result.tables.append(table)

    ece = bins.expected_calibration_error()
    populated = sum(1 for row in bins.rows() if row.count >= 20)
    # Short (benchmark-scale) runs leave the conflict EWMAs cold for a larger
    # fraction of the measured window; allow a small-sample margin there.
    ece_bound = 0.10 if scale >= 0.75 else 0.14
    result.data.update(
        {
            "ece": ece,
            "populated_buckets": populated,
            "abort_rate": run_result.abort_rate(),
            "transactions": len(run_result.transactions),
        }
    )
    result.checks.append(
        ShapeCheck(
            f"expected calibration error below {ece_bound:.2f}",
            not math.isnan(ece) and ece < ece_bound,
            f"ECE {ece:.4f} over {bins.total} predictions",
        )
    )
    result.checks.append(
        ShapeCheck(
            "predictions span multiple buckets (workload produces real risk)",
            populated >= 3,
            f"{populated} buckets with >= 20 predictions; abort rate "
            f"{run_result.abort_rate():.3f}",
        )
    )
    return result


SPEC = register(
    single_point_spec(
        experiment_id="f8_calibration",
        figure="F8",
        title="Commit-likelihood calibration (predicted vs observed)",
        module=__name__,
        run_fn=_run,
    )
)
