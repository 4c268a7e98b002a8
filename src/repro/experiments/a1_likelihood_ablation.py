"""A1 — ablation of the commit-likelihood model.

DESIGN.md calls out the likelihood model's ingredients as a design choice to
ablate.  Arms:

* **full** — conflict statistics (correlated, Bayesian-updated) + deadline;
* **no-deadline** — drops the deadline ingredient;
* **independent** — per-replica independent conflicts (no correlation);
* **static** — one global conflict constant instead of per-record rates;
* **empirical** — likelihood learned from observed (accepts, rejects) states.

Metrics: calibration error of the first-vote prediction, plus wrong-guess
rate and guessed fraction at threshold 0.95.  Expectation: the full model is
among the best calibrated; the static prior is clearly worse (it cannot tell
hot records from cold ones).
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.core.likelihood import LikelihoodConfig
from repro.core.session import PlanetConfig
from repro.experiments.common import microbench_run, scaled
from repro.harness.report import Table
from repro.harness.spec import (
    ExperimentResult,
    ExperimentSpec,
    GridPoint,
    PointContext,
    ShapeCheck,
    register,
)

ARM_ORDER = ("full", "no-deadline", "independent", "static", "empirical")


def _arm_config(name: str) -> PlanetConfig:
    return {
        "full": PlanetConfig(likelihood=LikelihoodConfig()),
        "no-deadline": PlanetConfig(likelihood=LikelihoodConfig(use_deadline=False)),
        "independent": PlanetConfig(likelihood=LikelihoodConfig(correlated_conflicts=False)),
        "static": PlanetConfig(likelihood=LikelihoodConfig(use_per_record_rates=False)),
        "empirical": PlanetConfig(use_empirical_model=True),
    }[name]


def _grid(scale: float) -> List[GridPoint]:
    return [GridPoint(key=f"arm={name}", params={"arm": name}) for name in ARM_ORDER]


def _run_point(params: Dict[str, Any], ctx: PointContext) -> Dict[str, Any]:
    name = params["arm"]
    duration = scaled(40_000.0, ctx.scale, 8_000.0)
    run_result = microbench_run(
        seed=ctx.seed,
        n_keys=2_000,
        hot_keys=24,
        hot_fraction=0.5,
        rate_tps=8.0,
        clients_per_dc=2,
        duration_ms=duration,
        warmup_ms=duration * 0.15,
        timeout_ms=2_000.0,
        guess_threshold=0.95,
        planet=_arm_config(name),
    )
    return {
        "arm": name,
        "ece": run_result.calibration(at="first_vote").expected_calibration_error(),
        "wrong_guess_rate": run_result.wrong_guess_rate(),
        "guessed_fraction": run_result.guessed_fraction(),
    }


def _reduce(point_rows: List[Dict[str, Any]], ctx: PointContext) -> ExperimentResult:
    rows = {
        row["arm"]: {
            "ece": row["ece"],
            "wrong_guess_rate": row["wrong_guess_rate"],
            "guessed_fraction": row["guessed_fraction"],
        }
        for row in point_rows
    }

    result = ExperimentResult("A1", "Likelihood-model ablation")
    table = Table(
        "Model arms at guess threshold 0.95 (hot/cold mixed contention)",
        ["model", "calibration ECE", "wrong-guess %", "guessed %"],
    )
    for name, row in rows.items():
        table.add_row(
            name,
            row["ece"],
            100.0 * row["wrong_guess_rate"],
            100.0 * row["guessed_fraction"],
        )
    result.tables.append(table)
    result.data["rows"] = rows

    if ctx.scale >= 0.75:
        # The calibration comparison needs warmed statistics; at benchmark
        # scale only the (much larger) wrong-guess gap is a reliable signal.
        result.checks.append(
            ShapeCheck(
                "full model better calibrated than static prior",
                rows["full"]["ece"] < rows["static"]["ece"],
                f"ECE full {rows['full']['ece']:.4f} vs static {rows['static']['ece']:.4f}",
            )
        )
    result.checks.append(
        ShapeCheck(
            "full model keeps wrong guesses below the static arm",
            rows["full"]["wrong_guess_rate"] <= rows["static"]["wrong_guess_rate"],
            f"wrong-guess full {rows['full']['wrong_guess_rate']:.4f} vs "
            f"static {rows['static']['wrong_guess_rate']:.4f}",
        )
    )
    return result


SPEC = register(
    ExperimentSpec(
        id="a1_likelihood_ablation",
        figure="A1",
        title="Likelihood-model ablation",
        module=__name__,
        grid=_grid,
        run_point=_run_point,
        reduce=_reduce,
    )
)
