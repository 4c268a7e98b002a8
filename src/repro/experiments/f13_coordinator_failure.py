"""F13 — coordinator failure: orphaned options and the recovery protocol.

The paper's environment model includes coordinators that "fail
unexpectedly".  In an optimistic options-based engine a dead coordinator is
not just its own clients' problem: every option it got accepted keeps its
record locked against *everyone* until terminated.  This experiment crashes
one of the five coordinators mid-run and compares:

* **no recovery** — orphaned options survive to the end of the run and the
  conflict-abort rate of the surviving data centers' transactions jumps;
* **orphan recovery** (status rounds + takeover completion) — orphans are
  terminated within ~1 option TTL and the surviving DCs' abort rate returns
  to its pre-crash level.
"""

from __future__ import annotations

from repro.cluster import Cluster, ClusterConfig
from repro.core.session import PlanetSession
from repro.experiments.common import planet_with_overrides, scaled
from repro.experiments.registry import single_point_spec
from repro.harness.report import Table
from repro.harness.spec import ExperimentResult, ShapeCheck, register
from repro.workload.clients import OpenLoopClient
from repro.workload.keys import UniformChooser
from repro.workload.microbench import MicrobenchSpec, build_microbench_tx


def _run_arm(seed: int, duration: float, crash_at: float, option_ttl_ms):
    cluster = Cluster(
        ClusterConfig(seed=seed, jitter_sigma=0.2, option_ttl_ms=option_ttl_ms)
    )
    spec = MicrobenchSpec(
        chooser=UniformChooser(64),   # small keyspace: orphans hurt everyone
        n_reads=1,
        n_writes=1,
        timeout_ms=2_000.0,
    )
    planet = planet_with_overrides(None)
    sessions = {
        dc: PlanetSession(cluster, dc, config=planet) for dc in cluster.datacenter_names
    }
    clients = [
        OpenLoopClient(
            sessions[dc],
            lambda session, rng: build_microbench_tx(session, spec, rng),
            rate_tps=8.0,
            end_ms=duration,
            name=f"{dc}-client",
        )
        for dc in cluster.datacenter_names
    ]
    cluster.sim.schedule(crash_at, cluster.crash_coordinator, "us_west")
    cluster.run()

    surviving = [
        tx
        for dc, session in sessions.items()
        if dc != "us_west"
        for tx in session.finished
        if tx.decision is not None and tx.submitted_at is not None
    ]
    pre = [tx for tx in surviving if tx.submitted_at < crash_at]
    post = [tx for tx in surviving if tx.submitted_at >= crash_at + 100.0]

    def conflict_rate(txs):
        if not txs:
            return float("nan")
        conflicted = sum(1 for tx in txs if tx.abort_reason.value == "conflict")
        return conflicted / len(txs)

    orphaned_keys = {
        key
        for node in cluster.storage_nodes.values()
        for key in node.store.keys()
        if node.store.record(key).pending
    }

    def touches_orphan(tx):
        return any(op.key in orphaned_keys for op in tx.writes)

    post_on_orphans = [tx for tx in post if touches_orphan(tx)]
    post_on_clean = [tx for tx in post if not touches_orphan(tx)]
    return {
        "pre_conflict_rate": conflict_rate(pre),
        "post_conflict_rate": conflict_rate(post),
        "post_orphan_key_rate": conflict_rate(post_on_orphans),
        "post_clean_key_rate": conflict_rate(post_on_clean),
        "orphaned_records": len(orphaned_keys),
        "recovered": sum(
            getattr(r, "recovered_aborts", 0) for r in cluster.replicas.values()
        ),
    }


def _run(seed: int = 0, scale: float = 1.0) -> ExperimentResult:
    duration = scaled(30_000.0, scale, 8_000.0)
    crash_at = duration * 0.3
    without = _run_arm(seed, duration, crash_at, option_ttl_ms=None)
    with_recovery = _run_arm(seed, duration, crash_at, option_ttl_ms=1_000.0)

    result = ExperimentResult(
        "F13", "Coordinator crash: orphaned options vs the recovery protocol"
    )
    table = Table(
        f"us_west coordinator crashes at t={crash_at:.0f} ms",
        [
            "arm",
            "conflict % pre-crash",
            "conflict % post (orphaned keys)",
            "conflict % post (clean keys)",
            "orphaned records at end",
        ],
    )
    for name, arm in (("no recovery", without), ("orphan recovery", with_recovery)):
        table.add_row(
            name,
            100.0 * arm["pre_conflict_rate"],
            100.0 * arm["post_orphan_key_rate"],
            100.0 * arm["post_clean_key_rate"],
            arm["orphaned_records"],
        )
    result.tables.append(table)
    result.data.update({"without": without, "with": with_recovery})

    result.checks.append(
        ShapeCheck(
            "without recovery, orphaned records stay blocked for everyone",
            without["orphaned_records"] > 0
            and without["post_orphan_key_rate"] >= 0.9,
            f"{without['orphaned_records']} orphans; conflict rate on them "
            f"{without['post_orphan_key_rate']:.3f} vs clean keys "
            f"{without['post_clean_key_rate']:.3f}",
        )
    )
    result.checks.append(
        ShapeCheck(
            "recovery terminates every orphan",
            with_recovery["orphaned_records"] == 0,
            f"{with_recovery['orphaned_records']} orphans left; "
            f"{with_recovery['recovered']} terminated as aborts",
        )
    )
    result.checks.append(
        ShapeCheck(
            "with recovery, post-crash conflict rate stays near background",
            with_recovery["post_conflict_rate"]
            <= with_recovery["pre_conflict_rate"] * 1.5 + 0.02,
            f"pre {with_recovery['pre_conflict_rate']:.3f} -> post "
            f"{with_recovery['post_conflict_rate']:.3f}",
        )
    )
    return result


SPEC = register(
    single_point_spec(
        experiment_id="f13_coordinator_failure",
        figure="F13",
        title="Coordinator crash: orphaned options vs the recovery protocol",
        module=__name__,
        run_fn=_run,
    )
)
