"""Tiny registered experiment specs for exercising the sweep executor.

Workers import this module by its dotted name (``tests.sweep_fixture``)
exactly as they import real drivers, so the tests cover the same
import-register-get path production sweeps use.  Two specs:

* ``zz_sweep_fixture`` — four fast deterministic points that emit obs
  events, for serial/parallel equivalence, caching, and replay tests;
* ``zz_sweep_chaos`` — two points whose behaviour is steered through
  environment variables (inherited by workers), for timeout, retry, and
  fail-fast tests.  Defaults to instant success when the variables are
  unset, so merely importing this module stays harmless.
"""

from __future__ import annotations

import os
import random
import time
from pathlib import Path
from typing import Any, Dict, List

from repro import obs
from repro.harness.spec import (
    ExperimentResult,
    ExperimentSpec,
    GridPoint,
    PointContext,
    ShapeCheck,
    register,
)

VALUES = (1, 2, 3, 4)

#: Steers ``zz_sweep_chaos``: "ok" (default), "sleep-once", "sleep-always",
#: "slow", or "raise".  "sleep-once" also needs CHAOS_FLAG_DIR (a writable
#: dir); "slow" sleeps SLOW_S_VAR seconds on point p=1 only — long enough
#: to trip a lowered straggler floor, short enough for a fast test.
CHAOS_MODE_VAR = "SWEEP_FIXTURE_CHAOS_MODE"
CHAOS_FLAG_DIR_VAR = "SWEEP_FIXTURE_CHAOS_FLAG_DIR"
SLOW_S_VAR = "SWEEP_FIXTURE_SLOW_S"


def _grid(scale: float) -> List[GridPoint]:
    return [GridPoint(key=f"v={v}", params={"v": v}) for v in VALUES]


def _run_point(params: Dict[str, Any], ctx: PointContext) -> Dict[str, Any]:
    rng = random.Random(ctx.seed)
    draws = [round(rng.random(), 9) for _ in range(5)]
    for i, draw in enumerate(draws):
        obs.emit_to_capture(
            obs.TraceEvent(
                float(i), "stage", "fixture_draw",
                {"v": params["v"], "draw": draw},
            )
        )
    return {
        "v": params["v"],
        "total": params["v"] * 10 + sum(draws),
        "seed": ctx.seed,
        "scale": ctx.scale,
        "overrides": dict(ctx.overrides),
    }


def _reduce(rows: List[Dict[str, Any]], ctx: PointContext) -> ExperimentResult:
    result = ExperimentResult("TEST", "sweep executor fixture")
    result.data["totals"] = {str(row["v"]): row["total"] for row in rows}
    result.checks.append(
        ShapeCheck(
            "rows arrive in grid order",
            [row["v"] for row in rows] == list(VALUES),
            str([row["v"] for row in rows]),
        )
    )
    return result


SPEC = register(
    ExperimentSpec(
        id="zz_sweep_fixture",
        figure="TEST",
        title="sweep executor test fixture",
        module=__name__,
        grid=_grid,
        run_point=_run_point,
        reduce=_reduce,
    )
)


def _chaos_grid(scale: float) -> List[GridPoint]:
    return [GridPoint(key=f"p={p}", params={"p": p}) for p in (0, 1)]


def _chaos_run_point(params: Dict[str, Any], ctx: PointContext) -> Dict[str, Any]:
    mode = os.environ.get(CHAOS_MODE_VAR, "ok")
    p = params["p"]
    if mode == "raise" and p == 1:
        raise ValueError("chaos fixture boom")
    if mode == "sleep-always" and p == 1:
        time.sleep(120.0)
    if mode == "slow" and p == 1:
        time.sleep(float(os.environ.get(SLOW_S_VAR, "1.0")))
    if mode == "sleep-once":
        flag = Path(os.environ[CHAOS_FLAG_DIR_VAR]) / f"slept-p{p}"
        if not flag.exists():
            flag.touch()
            time.sleep(120.0)
    return {"p": p, "seed": ctx.seed}


def _chaos_reduce(rows: List[Dict[str, Any]], ctx: PointContext) -> ExperimentResult:
    result = ExperimentResult("TEST", "sweep chaos fixture")
    result.data["points"] = [row["p"] for row in rows]
    result.checks.append(ShapeCheck("both points ran", len(rows) == 2, str(rows)))
    return result


CHAOS_SPEC = register(
    ExperimentSpec(
        id="zz_sweep_chaos",
        figure="TEST",
        title="sweep executor chaos fixture",
        module=__name__,
        grid=_chaos_grid,
        run_point=_chaos_run_point,
        reduce=_chaos_reduce,
    )
)
