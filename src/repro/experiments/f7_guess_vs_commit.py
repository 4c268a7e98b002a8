"""F7 — time-to-guess vs time-to-commit CDF.

Claim: the staged programming model lets an application respond far earlier
than the final durable commit: the first replica votes arrive within
intra-DC (or nearest-DC) latency, and with healthy conflict statistics the
predicted commit likelihood crosses an application threshold (0.95 here)
long before the wide-area quorum completes.  The gap between the two CDFs
is the latency the callbacks buy.

A second arm re-runs the same workload with the **optimistic-abort**
protocol variant (abort on the first rejecting vote instead of waiting for
a quorum of rejections): the speculation gap must survive that protocol
change — the guess CDF is driven by the first *accepting* votes, which
optimistic abort does not touch.
"""

from __future__ import annotations

from repro.experiments.common import microbench_run, scaled
from repro.experiments.registry import single_point_spec
from repro.harness.ascii_plot import render_cdfs
from repro.harness.report import Table
from repro.harness.spec import ExperimentResult, ShapeCheck, register


def _run(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    duration = scaled(30_000.0, scale, 6_000.0)
    run_result = microbench_run(
        seed=seed,
        n_keys=5_000,
        rate_tps=4.0,
        clients_per_dc=2,
        duration_ms=duration,
        warmup_ms=duration * 0.1,
        timeout_ms=5_000.0,
        guess_threshold=0.95,
    )

    # The optimistic-abort baseline runs SECOND: the primary run's history
    # is the determinism pin (see tests/test_iso_digest_pin.py) and must
    # see a fresh-per-process event sequence.
    optimistic = microbench_run(
        seed=seed,
        n_keys=5_000,
        rate_tps=4.0,
        clients_per_dc=2,
        duration_ms=duration,
        warmup_ms=duration * 0.1,
        timeout_ms=5_000.0,
        guess_threshold=0.95,
        optimistic_abort=True,
    )

    guess_cdf = run_result.guess_latency_cdf()
    commit_cdf = run_result.commit_latency_cdf()

    result = ExperimentResult("F7", "Time-to-guess vs time-to-final-commit CDF")
    table = Table(
        "Latency by percentile (ms)",
        ["percentile", "guess (speculative commit)", "final commit", "commit / guess"],
    )
    for percentile in (10, 25, 50, 75, 90, 95, 99):
        g = guess_cdf.percentile(percentile)
        c = commit_cdf.percentile(percentile)
        table.add_row(f"p{percentile}", g, c, c / g if g else float("nan"))
    result.tables.append(table)

    summary = Table(
        "Speculation summary",
        ["guessed fraction", "wrong-guess rate", "mean time saved (ms)"],
    )
    summary.add_row(
        run_result.guessed_fraction(),
        run_result.wrong_guess_rate(),
        run_result.mean_time_saved_by_guessing_ms(),
    )
    result.tables.append(summary)

    opt_guess = optimistic.guess_latency_cdf()
    opt_commit = optimistic.commit_latency_cdf()
    baseline = Table(
        "Optimistic-abort baseline (abort on first reject)",
        ["variant", "guess p50 (ms)", "commit p50 (ms)", "committed", "abort rate"],
    )
    baseline.add_row(
        "default (quorum-of-rejects)",
        guess_cdf.percentile(50),
        commit_cdf.percentile(50),
        len(run_result.committed()),
        run_result.abort_rate(),
    )
    baseline.add_row(
        "optimistic abort",
        opt_guess.percentile(50),
        opt_commit.percentile(50),
        len(optimistic.committed()),
        optimistic.abort_rate(),
    )
    result.tables.append(baseline)

    result.figures.append(
        render_cdfs({"guess (speculative)": guess_cdf, "final commit": commit_cdf})
    )

    g50 = guess_cdf.percentile(50)
    c50 = commit_cdf.percentile(50)
    result.data.update(
        {
            "guess_p50": g50,
            "commit_p50": c50,
            "guessed_fraction": run_result.guessed_fraction(),
            "wrong_guess_rate": run_result.wrong_guess_rate(),
            "optimistic_guess_p50": opt_guess.percentile(50),
            "optimistic_commit_p50": opt_commit.percentile(50),
            "optimistic_abort_rate": optimistic.abort_rate(),
        }
    )
    result.checks.append(
        ShapeCheck(
            "guess p50 at least 5x earlier than commit p50",
            c50 / g50 >= 5.0,
            f"guess p50 {g50:.1f} ms vs commit p50 {c50:.1f} ms",
        )
    )
    result.checks.append(
        ShapeCheck(
            "most transactions are guessed before deciding",
            run_result.guessed_fraction() >= 0.8,
            f"guessed fraction {run_result.guessed_fraction():.3f}",
        )
    )
    result.checks.append(
        ShapeCheck(
            "wrong-guess rate small at threshold 0.95",
            run_result.wrong_guess_rate() <= 0.05,
            f"wrong-guess rate {run_result.wrong_guess_rate():.4f}",
        )
    )
    og50 = opt_guess.percentile(50)
    oc50 = opt_commit.percentile(50)
    result.checks.append(
        ShapeCheck(
            "optimistic abort preserves the speculation gap",
            og50 > 0 and oc50 / og50 >= 5.0,
            f"optimistic-abort guess p50 {og50:.1f} ms vs commit p50 {oc50:.1f} ms",
        )
    )
    return result


SPEC = register(
    single_point_spec(
        experiment_id="f7_guess_vs_commit",
        figure="F7",
        title="Time-to-guess vs time-to-final-commit CDF",
        module=__name__,
        run_fn=_run,
    )
)
