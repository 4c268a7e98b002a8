"""The six benchmark workloads, driven through repro's public API only.

Each workload is ``prepare(seed, scale) -> (entry, summarise)``: ``prepare``
builds the inputs and imports what the run needs (that is set-up time),
``entry()`` is the timed call, and ``summarise(entry())`` — outcome digest,
simulated statistics, oracle counts — runs after the clock stopped.  Sizes
are simulated durations at ``scale`` 1.0, chosen so one run costs about 3 s
of host time on the 2-core reference box (``faults_checked`` 6.5 s, because
its tail latency needs the samples; see README.md).
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: One finished transaction as the digest sees it:
#: (txid, outcome, submitted_at, decided_at, guessed_at), times in simulated ms.
Outcome = Tuple[str, str, Optional[float], Optional[float], Optional[float]]


@dataclass
class Summary:
    """What one run produced, computed outside the timed region."""

    attempted: int                      # transactions attempted (exact)
    undecided: int                      # still undecided after drain
    violations: int                     # checker / cross-shard-atomicity violations
    digest: str                         # sha256 over the sorted outcomes
    commit_samples: int                 # measured-window committed transactions
    sim_commit_p50_ms: float
    sim_commit_p99_ms: float
    sim_commit_rate: float
    sim_guess_p50_ms: Optional[float]   # None where speculation is off
    sim_wrong_guess_rate: Optional[float]
    committed: int                      # all committed transactions (not only measured)
    counts: Dict[str, int] = field(default_factory=dict)  # exact row counts


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile of an already sorted sample.

    The benchmark's own, so that a change to ``repro.stats`` cannot move the
    numbers it is judged with."""
    rank = (len(sorted_values) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(sorted_values) - 1)
    return sorted_values[low] + (sorted_values[high] - sorted_values[low]) * (rank - low)


def outcome_digest(outcomes: Sequence[Outcome]) -> str:
    hasher = hashlib.sha256()
    for outcome in sorted(outcomes, key=repr):
        hasher.update(repr(outcome).encode())
    return hasher.hexdigest()


def _latency_stats(
    commit_ms: List[float], guess_ms: List[float]
) -> Tuple[float, float, Optional[float]]:
    commit_ms.sort()
    guess_ms.sort()
    return (
        percentile(commit_ms, 50),
        percentile(commit_ms, 99),
        percentile(guess_ms, 50) if guess_ms else None,
    )


# ----------------------------------------------------------------------
# The microbenchmark family: one long simulation via run_experiment.
# ----------------------------------------------------------------------
def _microbench(
    seed: int,
    engine: str,
    duration_ms: float,
    chooser,
    timeout_ms: float = 5_000.0,
    guess_threshold: Optional[float] = None,
    planet=None,
) -> Callable[[], Any]:
    """f6's deployment: 5 DCs, 2 open-loop clients each at 4 tps, 2r+2w."""
    from repro.cluster import ClusterConfig
    from repro.core.session import PlanetConfig
    from repro.harness.config import RunConfig, WorkloadConfig
    from repro.harness.runner import run_experiment
    from repro.workload.microbench import MicrobenchSpec, build_microbench_tx

    spec = MicrobenchSpec(
        chooser=chooser,
        n_reads=2,
        n_writes=2,
        timeout_ms=timeout_ms,
        guess_threshold=guess_threshold,
    )
    config = RunConfig(
        cluster=ClusterConfig(seed=seed, engine=engine),
        planet=planet if planet is not None else PlanetConfig(),
        workload=WorkloadConfig(
            tx_factory=lambda session, rng: build_microbench_tx(session, spec, rng),
            arrival="open",
            rate_tps=4.0,
            clients_per_dc=2,
        ),
        duration_ms=duration_ms,
        warmup_ms=duration_ms * 0.1,
    )
    return lambda: run_experiment(config)


def _summarise_run(result) -> Summary:
    finished = result.all_transactions
    # The runner shares one registry across sessions; its "submitted"
    # counter is every transaction handed to a session, decided or not.
    submitted = int(result.sessions[0].metrics.counter("submitted"))
    outcomes = [
        (tx.txid, tx.stage.value, tx.submitted_at, tx.decided_at, tx.guessed_at)
        for tx in finished
    ]
    measured = result.transactions
    committed = [tx for tx in measured if tx.committed]
    guessed = [tx for tx in measured if tx.was_guessed]
    p50, p99, guess_p50 = _latency_stats(
        [tx.commit_latency_ms() for tx in committed],
        [tx.guess_latency_ms() for tx in guessed],
    )
    wrong = sum(1 for tx in guessed if not tx.committed)
    return Summary(
        attempted=submitted,
        undecided=submitted - len(finished),
        violations=0,
        digest=outcome_digest(outcomes),
        commit_samples=len(committed),
        sim_commit_p50_ms=p50,
        sim_commit_p99_ms=p99,
        sim_commit_rate=len(committed) / len(measured),
        sim_guess_p50_ms=guess_p50,
        sim_wrong_guess_rate=wrong / len(guessed) if guessed else None,
        committed=sum(1 for tx in finished if tx.committed),
    )


def _mdcc_commit(seed: int, scale: float):
    from repro.workload.keys import UniformChooser

    return _microbench(seed, "mdcc", 100_000.0 * scale, UniformChooser(5_000)), _summarise_run


def _twopc_commit(seed: int, scale: float):
    from repro.workload.keys import UniformChooser

    return _microbench(seed, "twopc", 200_000.0 * scale, UniformChooser(5_000)), _summarise_run


def _planet_hot(seed: int, scale: float):
    from repro.core.admission import AdmissionPolicy
    from repro.core.session import PlanetConfig
    from repro.workload.keys import HotspotChooser

    entry = _microbench(
        seed,
        "mdcc",
        125_000.0 * scale,
        HotspotChooser(4_096, hot_keys=64, hot_fraction=0.8),
        timeout_ms=2_000.0,
        guess_threshold=0.95,
        planet=PlanetConfig(
            admission_policy=AdmissionPolicy.LIKELIHOOD, admission_threshold=0.4
        ),
    )
    return entry, _summarise_run


# ----------------------------------------------------------------------
# faults_checked: many short fault schedules, each checked.
# ----------------------------------------------------------------------
def _faults_checked(seed: int, scale: float):
    # run_schedule imports these lazily; pull them in here so the first
    # schedule does not pay the imports inside the timed region.
    import repro.check.checker  # noqa: F401
    import repro.check.history  # noqa: F401
    from repro.check.campaign import run_schedule
    from repro.faults import campaign_plan
    from repro.net.topology import EC2_FIVE_DC

    # The fault plans are part of the workload, like the topology: plan i is
    # the one the campaign draws for seed i, whatever --seed is.  --seed
    # varies what runs under them (latency jitter, transaction mix), and
    # cluster seeds of different --seed values do not overlap.  Drawing the
    # plans from --seed too made the p99 swing 12% between seeds, and 50
    # plans instead of 100 still 8%.
    duration_ms = 6_000.0
    dc_names = [dc.name for dc in EC2_FIVE_DC]
    plans = [
        campaign_plan(dc_names, duration_ms, seed=i, intensity=1.0)
        for i in range(max(1, round(100 * scale)))
    ]

    def entry() -> List[Dict[str, Any]]:
        return [
            run_schedule(seed * 1_000 + i, duration_ms=duration_ms, plan=plan, with_history=True)
            for i, plan in enumerate(plans)
        ]

    return entry, _summarise_schedules


def _summarise_schedules(rows: List[Dict[str, Any]]) -> Summary:
    outcomes: List[Outcome] = []
    commit_ms: List[float] = []
    guess_ms: List[float] = []
    apologies = 0
    begun_total = 0
    for row in rows:
        begun: Dict[str, float] = {}
        guessed: Dict[str, float] = {}
        decided: Dict[str, Tuple[str, float]] = {}
        for op in row["history"]["ops"]:
            kind, txid, at = op["kind"], op["txid"], op["time_ms"]
            if kind == "begin":
                begun[txid] = at
            elif kind == "guess":
                guessed[txid] = at
            elif kind in ("commit", "abort"):
                decided[txid] = (kind, at)
            elif kind == "apology":
                apologies += 1
        begun_total += len(begun)
        for txid, at in begun.items():
            kind, decided_at = decided.get(txid, ("undecided", None))
            outcomes.append((txid, kind, at, decided_at, guessed.get(txid)))
            if kind == "commit":
                commit_ms.append(decided_at - at)
            if txid in guessed:
                guess_ms.append(guessed[txid] - at)
    p50, p99, guess_p50 = _latency_stats(commit_ms, guess_ms)
    violations = sum(len(row["violations"]) for row in rows)
    return Summary(
        attempted=begun_total,
        # A transaction in flight at a crashed coordinator never decides; the
        # checker's ``decided`` invariant counts the ones no fault excuses,
        # so undecided transactions reach failed_share through violations.
        undecided=0,
        violations=violations,
        digest=outcome_digest(outcomes),
        commit_samples=len(commit_ms),
        sim_commit_p50_ms=p50,
        sim_commit_p99_ms=p99,
        sim_commit_rate=len(commit_ms) / begun_total,
        sim_guess_p50_ms=guess_p50,
        sim_wrong_guess_rate=apologies / len(guess_ms) if guess_ms else None,
        committed=len(commit_ms),
        counts={
            "obs.history_ops": sum(row["ops"] for row in rows),
            "check.violations": violations,
            "faults.schedules": len(rows),
        },
    )


# ----------------------------------------------------------------------
# scaleout_shards: scaleout_1m's shape at fixed size, shards run serially.
# ----------------------------------------------------------------------
def _scaleout_shards(seed: int, scale: float):
    from repro.scale import ShardPlan, run_shard
    from repro.scale.crossshard import cross_shard_plan
    from repro.scale.merge import merge_shards
    from repro.scale.shard import ScaleParams

    n_shards, cross_tps = 8, 2.0
    duration_ms = 14_000.0 * scale
    plan = ShardPlan(population=1_000_000, n_shards=n_shards, slices=64, n_keys=100_000)
    params = ScaleParams(
        duration_ms=duration_ms,
        # One day-curve per run whose cosine mix averages 400 tps in total.
        process={
            "kind": "diurnal",
            "base_tps": 200.0,
            "peak_tps": 600.0,
            "period_ms": duration_ms,
            "phase": 0.0,
        },
        cross_rate_tps=cross_tps,
    )

    def entry() -> Dict[str, Any]:
        rows = [run_shard(plan, index, seed, params) for index in range(n_shards)]
        xplan = cross_shard_plan(seed, n_shards, duration_ms, cross_tps)
        return {"rows": rows, "merged": merge_shards(rows, xplan)}

    return entry, _summarise_shards


def _summarise_shards(raw: Dict[str, Any]) -> Summary:
    rows, merged = raw["rows"], raw["merged"]
    totals = merged["totals"]
    unknown_votes = sum(
        1 for row in rows for vote in row["xshard_votes"] if vote["vote"] == "unknown"
    )
    violations = len(merged["shard_violations"]) + len(merged["xshard_violations"])
    # Shard rows carry no per-transaction list, so the digest folds what
    # they do carry: the merged history digest, the totals and every
    # cross-shard decision.
    digest = outcome_digest(
        [("history", merged["history_digest"], None, None, None)]
        + [(name, str(totals[name]), None, None, None) for name in sorted(totals)]
        + [(gid, decision, None, None, None)
           for gid, decision in merged["xshard_decisions"].items()]
    )
    guess_p50s = [
        row["metrics"]["histograms"]["guess_latency_ms"]["p50"]
        for row in rows
        if "guess_latency_ms" in row["metrics"]["histograms"]
    ]
    guesses = totals["guesses"]
    return Summary(
        attempted=totals["arrivals"],
        undecided=totals["arrivals"] - totals["submitted"] + unknown_votes,
        violations=violations,
        digest=digest,
        commit_samples=merged["commit_latency"]["count"],
        sim_commit_p50_ms=merged["commit_latency"]["p50_ms"],
        sim_commit_p99_ms=merged["commit_latency"]["p99_ms"],
        sim_commit_rate=totals["committed"] / totals["submitted"],
        # merge_shards does not fold guess latencies: median of shard medians.
        sim_guess_p50_ms=statistics.median(guess_p50s) if guess_p50s else None,
        sim_wrong_guess_rate=totals["wrong_guesses"] / guesses if guesses else None,
        committed=totals["committed"],
        counts={
            "obs.history_ops": sum(row["ops"] for row in rows),
            "check.violations": violations,
            "scale.arrivals": totals["arrivals"],
            "scale.xshard_commits": merged["xshard_commits"],
            "scale.xshard_aborts": merged["xshard_aborts"],
        },
    )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    backend: str  # simulator kernel the run is pinned to
    prepare: Callable[[int, float], Tuple[Callable[[], Any], Callable[[Any], Summary]]]


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "mdcc_commit",
            "plain MDCC commit path, no speculation: sim, net, storage, paxos and mdcc all busy",
            "python",
            _mdcc_commit,
        ),
        Workload(
            "mdcc_commit_ck",
            "mdcc_commit's inputs on the compiled kernel: what the C extension buys end to end",
            "compiled",
            _mdcc_commit,
        ),
        Workload(
            "planet_hot",
            "64 hot keys take 80% of accesses with guesses and admission on: core and abort paths",
            "python",
            _planet_hot,
        ),
        Workload(
            "twopc_commit",
            "2PC baseline on mdcc_commit's inputs: bypasses paxos, mdcc and likelihood math",
            "python",
            _twopc_commit,
        ),
        Workload(
            "faults_checked",
            "many short fault schedules with history capture and the checker: loss and recovery",
            "python",
            _faults_checked,
        ),
        Workload(
            "scaleout_shards",
            "8 keyspace shards run serially then merged: open-loop traffic and low contention",
            "python",
            _scaleout_shards,
        ),
    )
}
