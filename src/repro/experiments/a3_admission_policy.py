"""A3 — admission policy ablation: does *which* transactions get shed matter?

Likelihood admission and random shedding are run at (approximately) the same
rejection rate under high contention.  If the prediction carries signal, the
likelihood policy — which sheds exactly the transactions headed for hot,
contended records — must deliver more goodput than shedding the same amount
of load blindly.
"""

from __future__ import annotations

from repro.core.admission import AdmissionPolicy
from repro.core.session import PlanetConfig
from repro.experiments.common import microbench_run, scaled
from repro.experiments.registry import single_point_spec
from repro.harness.report import Table
from repro.harness.spec import ExperimentResult, ShapeCheck, register


def _run(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    duration = scaled(40_000.0, scale, 8_000.0)
    shared = dict(
        seed=seed,
        n_keys=4_096,
        hot_keys=16,
        hot_fraction=0.8,
        rate_tps=16.0,
        clients_per_dc=2,
        duration_ms=duration,
        warmup_ms=duration * 0.15,
        timeout_ms=2_000.0,
        guess_threshold=None,
    )
    none = microbench_run(planet=PlanetConfig(), **shared)
    likelihood = microbench_run(
        planet=PlanetConfig(
            admission_policy=AdmissionPolicy.LIKELIHOOD, admission_threshold=0.4
        ),
        **shared,
    )
    # Match random shedding to the likelihood policy's measured shed rate.
    shed_rate = likelihood.abort_reason_counts().get("admission", 0) / max(
        len(likelihood.transactions), 1
    )
    random_policy = microbench_run(
        planet=PlanetConfig(
            admission_policy=AdmissionPolicy.RANDOM,
            random_reject_rate=min(max(shed_rate, 0.0), 0.95),
        ),
        **shared,
    )
    delay_policy = microbench_run(
        planet=PlanetConfig(
            admission_policy=AdmissionPolicy.DELAY,
            admission_threshold=0.4,
            admission_delay_ms=150.0,
            admission_max_delays=3,
        ),
        **shared,
    )

    arms = {
        "no admission": none,
        "likelihood admission": likelihood,
        f"random shedding ({shed_rate:.0%})": random_policy,
        "delay-then-admit": delay_policy,
    }
    result = ExperimentResult("A3", "Admission policy ablation at matched shed rate")
    table = Table(
        "High contention (16 hot records), equal load",
        ["policy", "goodput tps", "shed %", "abort % (of admitted)"],
    )
    rows = {}
    for name, run_result in arms.items():
        shed = run_result.abort_reason_counts().get("admission", 0)
        admitted = len(run_result.transactions) - shed
        non_admission_aborts = len(run_result.aborted()) - shed
        rows[name] = run_result.goodput_tps()
        table.add_row(
            name,
            run_result.goodput_tps(),
            100.0 * shed / max(len(run_result.transactions), 1),
            100.0 * non_admission_aborts / max(admitted, 1),
        )
    result.tables.append(table)
    result.data["goodput"] = rows
    result.data["matched_shed_rate"] = shed_rate

    likelihood_goodput = likelihood.goodput_tps()
    random_goodput = random_policy.goodput_tps()
    result.checks.append(
        ShapeCheck(
            "likelihood shedding beats random shedding at equal rate",
            likelihood_goodput > random_goodput * 1.1,
            f"{likelihood_goodput:.2f} vs {random_goodput:.2f} tps "
            f"at shed rate {shed_rate:.0%}",
        )
    )
    result.checks.append(
        ShapeCheck(
            "likelihood shedding beats no admission",
            likelihood_goodput > none.goodput_tps(),
            f"{likelihood_goodput:.2f} vs {none.goodput_tps():.2f} tps",
        )
    )
    result.checks.append(
        ShapeCheck(
            "delaying doomed transactions also beats no admission",
            delay_policy.goodput_tps() > none.goodput_tps(),
            f"{delay_policy.goodput_tps():.2f} vs {none.goodput_tps():.2f} tps",
        )
    )
    return result


# The random-shedding arm's reject rate is *measured* from the likelihood
# arm's run — a cross-arm data dependency, so A3 stays a single-point
# legacy spec rather than a parallelisable grid.
SPEC = register(
    single_point_spec(
        experiment_id="a3_admission_policy",
        figure="A3",
        title="Admission policy ablation at matched shed rate",
        module=__name__,
        run_fn=_run,
    )
)
