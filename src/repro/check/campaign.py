"""Fault schedules: one seeded fault plan, run and checked for consistency.

:func:`run_schedule` draws a :func:`~repro.faults.campaign_plan` (spikes,
partitions, loss windows, at most one crash) from a seed, runs a mixed
workload under history capture, and runs the offline checker on the
result.  The ``check_campaign`` experiment
(:mod:`repro.experiments.check_campaign`) fans many schedules out through
the sweep executor and reduces them to a triage report whose failing
schedule is a **replayable plan**: a JSON document (:func:`plan_payload`,
:func:`write_plan`, :func:`load_plan`) that :func:`replay` — ``python -m
repro check replay`` — re-executes bit-for-bit (the history digest is
compared across two runs to prove it).
"""

from __future__ import annotations

import json
from typing import Any, Dict

PLAN_FORMAT = "repro.check/plan-v1"

DEFAULT_DURATION_MS = 6_000.0
DEFAULT_INTENSITY = 1.0

#: Transactions per schedule, scaled with duration.
TXS_PER_6S = 120


def run_schedule(
    seed: int,
    duration_ms: float = DEFAULT_DURATION_MS,
    intensity: float = DEFAULT_INTENSITY,
    broken: bool = False,
    plan=None,
    with_history: bool = False,
) -> Dict[str, Any]:
    """Run one fault schedule under history capture and check it.

    ``plan`` overrides the seed-derived :func:`~repro.faults.campaign_plan`
    — that is how replay re-executes a *stored* plan even if the drawing
    code later changes.  Returns a JSON-safe row (the sweep contract);
    ``with_history`` adds the serialised history itself (the predictive
    checker consumes it) at the cost of a much larger row.
    """
    from repro.check.checker import CheckerConfig, check_history
    from repro.check.history import HistoryRecorder
    from repro.cluster import Cluster, ClusterConfig
    from repro.core.session import PlanetConfig, PlanetSession
    from repro.faults import campaign_plan

    cluster = Cluster(
        ClusterConfig(
            seed=seed,
            jitter_sigma=0.2,
            option_ttl_ms=400.0,
            anti_entropy_interval_ms=500.0,
            unsafe_skip_quorum_check=broken,
        )
    )
    cluster.load({"counter": 0})
    if plan is None:
        plan = campaign_plan(
            cluster.datacenter_names, duration_ms, seed=seed, intensity=intensity
        )
    recorder = HistoryRecorder().attach(cluster.sim)
    plan.apply(cluster)

    # Alternate session guarantees across DCs so every campaign exercises
    # both the read-your-writes machinery and plain sessions; guesses on so
    # the apology invariant has something to check.
    sessions = {}
    for index, dc in enumerate(cluster.datacenter_names):
        sessions[dc] = PlanetSession(
            cluster,
            dc,
            config=PlanetConfig(
                read_your_writes=(index % 2 == 0),
                default_guess_threshold=0.85,
            ),
        )

    rng = cluster.sim.rng.stream("campaign-load")
    dc_names = cluster.datacenter_names
    n_txs = max(10, int(round(TXS_PER_6S * duration_ms / 6_000.0)))
    for i in range(n_txs):
        session = sessions[dc_names[i % len(dc_names)]]
        kind = rng.random()
        if kind < 0.3:
            tx = session.transaction().increment(
                "counter", rng.choice((-1, 1, 2)), floor=-10_000
            )
        elif kind < 0.55:
            tx = session.transaction().write(f"k{rng.randrange(30)}", i)
        elif kind < 0.8:
            # Read-modify-write on one key: the bread and butter of the
            # per-record serializability and lost-update checks.
            key = f"k{rng.randrange(30)}"
            tx = session.transaction().read(key).write(key, i)
        else:
            tx = session.transaction().read(f"k{rng.randrange(30)}")
        tx.with_timeout(2_000.0)
        cluster.sim.schedule(rng.uniform(0.0, duration_ms), session.submit, tx)
    cluster.run()
    cluster.settle(3_000.0)

    history = recorder.history()
    recorder.detach(cluster.sim)
    violations = check_history(history, CheckerConfig.for_plan(plan))
    row = {
        "seed": seed,
        "plan": plan.to_dict(),
        "plan_text": plan.describe(),
        "txs": n_txs,
        "ops": len(history),
        "digest": history.digest(),
        "violations": [v.to_dict() for v in violations],
        "broken": bool(broken),
    }
    if with_history:
        row["history"] = history.to_dict()
    return row


# ----------------------------------------------------------------------
# Replayable plan files.
# ----------------------------------------------------------------------
def plan_payload(
    seed: int,
    duration_ms: float,
    intensity: float,
    broken: bool,
    plan_dict: Dict[str, Any],
) -> Dict[str, Any]:
    return {
        "format": PLAN_FORMAT,
        "seed": int(seed),
        "duration_ms": float(duration_ms),
        "intensity": float(intensity),
        "broken": bool(broken),
        "plan": plan_dict,
    }


def write_plan(path: str, payload: Dict[str, Any]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_plan(path: str) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        return check_plan(json.load(handle), path)


def check_plan(payload: Any, source: str) -> Dict[str, Any]:
    """``payload`` if it is a replayable plan-v1 document.

    Otherwise a :class:`ValueError` prefixed with ``source`` says what is
    missing or malformed, so a bad file never replays as something else.
    """
    from repro.faults import FaultPlan

    found = payload.get("format") if isinstance(payload, dict) else None
    if found != PLAN_FORMAT:
        raise ValueError(
            f"{source}: not a campaign plan file "
            f"(format {found!r}, expected {PLAN_FORMAT!r})"
        )
    missing = [
        key for key in ("seed", "duration_ms", "intensity", "plan") if key not in payload
    ]
    if missing:
        raise ValueError(f"{source}: plan file has no {', '.join(missing)}")
    for key in ("seed", "duration_ms", "intensity"):
        value = payload[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"{source}: {key} must be a number, got {value!r}")
    if not isinstance(payload.get("broken", False), bool):
        raise ValueError(f"{source}: broken must be true or false")
    try:
        FaultPlan.from_dict(payload["plan"])
    except ValueError as exc:
        raise ValueError(f"{source}: plan: {exc}") from None
    return payload


def run_plan(payload: Dict[str, Any], with_history: bool = False) -> Dict[str, Any]:
    """Execute a stored plan once; its row."""
    from repro.faults import FaultPlan

    return run_schedule(
        seed=int(payload["seed"]),
        duration_ms=float(payload["duration_ms"]),
        intensity=float(payload["intensity"]),
        broken=bool(payload.get("broken", False)),
        plan=FaultPlan.from_dict(payload["plan"]),
        with_history=with_history,
    )


def replay(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Re-execute a stored plan twice; check it and prove determinism.

    Returns the first run's row plus ``digest_stable`` — whether two
    back-to-back executions produced byte-identical history digests.
    """
    first = run_plan(payload)
    second = run_plan(payload)
    first["digest_stable"] = first["digest"] == second["digest"]
    first["second_digest"] = second["digest"]
    return first
