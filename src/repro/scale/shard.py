"""One shard of the planet: a full Cluster+PLANET sim over a keyspace slice.

The keyspace (and the user population) is partitioned across
``n_shards`` independent clusters, each a complete five-DC deployment
simulated on its own kernel.  The sharded experiment runs one grid point
per shard through the parallel sweep executor — which already guarantees
per-point seed derivation, worker placement independence, and
byte-identical results at any ``--jobs`` count — and folds the rows with
:mod:`repro.scale.merge`.

Determinism contract: everything a shard simulates is derived from the
experiment's **root seed** and stable names (shard index, slice index,
cross-shard gid) — never from which worker ran it, nor from how slices
are grouped onto shards.  Ids too: each shard's cluster mints its own
txids from ``tx-1``, so the shard's history digest hashes them raw.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from random import Random
from typing import Any, Dict, Iterator, List

from repro.check.checker import CheckerConfig, check_history
from repro.check.history import HistoryRecorder
from repro.cluster import Cluster, ClusterConfig
from repro.core.session import PlanetConfig, PlanetSession
from repro.obs.metrics import MetricsRegistry
from repro.scale import merge as scale_merge
from repro.scale.crossshard import XTx, branch_seed, cross_shard_plan, intent_key
from repro.scale.traffic import (
    Arrival,
    TrafficSource,
    process_from_dict,
    slice_arrivals,
    user_chooser,
)
from repro.sim.rng import derive_seed
from repro.workload.keys import UniformChooser


@dataclass(frozen=True)
class ShardPlan:
    """How the population, the id slices and the keyspace map to shards.

    Slices are the unit of traffic determinism (see
    :mod:`repro.scale.traffic`); shards own contiguous slice ranges, so
    ``slices % n_shards == 0`` is required.  Users are integers
    ``0..population-1`` split contiguously across slices (remainder
    spread over the first slices); keys are per-shard local
    (``s<i>:k:<j>``), which is what makes the shards independent.
    """

    population: int
    n_shards: int = 8
    slices: int = 64
    n_keys: int = 100_000

    def __post_init__(self) -> None:
        if self.population < 1:
            raise ValueError("population must be >= 1")
        if self.n_shards < 1:
            raise ValueError("n_shards must be >= 1")
        if self.slices < self.n_shards or self.slices % self.n_shards != 0:
            raise ValueError("slices must be a positive multiple of n_shards")
        if self.n_keys < self.n_shards:
            raise ValueError("need at least one key per shard")

    @property
    def slices_per_shard(self) -> int:
        return self.slices // self.n_shards

    @property
    def keys_per_shard(self) -> int:
        return self.n_keys // self.n_shards

    def slice_population(self, slice_index: int) -> int:
        base, remainder = divmod(self.population, self.slices)
        return base + (1 if slice_index < remainder else 0)

    def slice_user_base(self, slice_index: int) -> int:
        """First user id of a slice (slices are contiguous id ranges)."""
        base, remainder = divmod(self.population, self.slices)
        return slice_index * base + min(slice_index, remainder)

    def shard_slices(self, shard_index: int) -> range:
        if not 0 <= shard_index < self.n_shards:
            raise ValueError("shard_index out of range")
        per = self.slices_per_shard
        return range(shard_index * per, (shard_index + 1) * per)

    def shard_population(self, shard_index: int) -> int:
        return sum(self.slice_population(s) for s in self.shard_slices(shard_index))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "population": self.population,
            "n_shards": self.n_shards,
            "slices": self.slices,
            "n_keys": self.n_keys,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ShardPlan":
        return cls(
            population=int(payload["population"]),
            n_shards=int(payload["n_shards"]),
            slices=int(payload["slices"]),
            n_keys=int(payload["n_keys"]),
        )


@dataclass(frozen=True)
class ScaleParams:
    """Per-run knobs of the sharded workload (JSON-safe round trip)."""

    duration_ms: float
    process: Dict[str, Any] = field(
        default_factory=lambda: {"kind": "poisson", "rate_tps": 100.0}
    )
    user_dist: str = "uniform"
    zipf_theta: float = 0.99
    tx_timeout_ms: float = 4_000.0
    guess_threshold: float = 0.95
    cross_rate_tps: float = 0.0
    branch_timeout_ms: float = 2_500.0
    jitter_sigma: float = 0.2

    def to_dict(self) -> Dict[str, Any]:
        return {
            "duration_ms": self.duration_ms,
            "process": dict(self.process),
            "user_dist": self.user_dist,
            "zipf_theta": self.zipf_theta,
            "tx_timeout_ms": self.tx_timeout_ms,
            "guess_threshold": self.guess_threshold,
            "cross_rate_tps": self.cross_rate_tps,
            "branch_timeout_ms": self.branch_timeout_ms,
            "jitter_sigma": self.jitter_sigma,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ScaleParams":
        return cls(
            duration_ms=float(payload["duration_ms"]),
            process=dict(payload["process"]),
            user_dist=str(payload.get("user_dist", "uniform")),
            zipf_theta=float(payload.get("zipf_theta", 0.99)),
            tx_timeout_ms=float(payload.get("tx_timeout_ms", 4_000.0)),
            guess_threshold=float(payload.get("guess_threshold", 0.95)),
            cross_rate_tps=float(payload.get("cross_rate_tps", 0.0)),
            branch_timeout_ms=float(payload.get("branch_timeout_ms", 2_500.0)),
            jitter_sigma=float(payload.get("jitter_sigma", 0.2)),
        )


def shard_streams(
    plan: ShardPlan,
    shard_index: int,
    root_seed: int,
    params: ScaleParams,
) -> List[Iterator[Arrival]]:
    """This shard's per-slice arrival streams (lazy; nothing drawn yet).

    Slice seeds derive from the experiment **root seed** and the global
    slice index — regrouping the same slices onto a different shard
    count reproduces the identical arrivals.
    """
    process = process_from_dict(params.process)
    streams: List[Iterator[Arrival]] = []
    for slice_index in plan.shard_slices(shard_index):
        chooser = user_chooser(
            params.user_dist, plan.slice_population(slice_index), params.zipf_theta
        )
        streams.append(
            slice_arrivals(
                process,
                slice_index,
                plan.slices,
                params.duration_ms,
                derive_seed(root_seed, f"scale.traffic:slice:{slice_index}"),
                chooser,
                plan.slice_user_base(slice_index),
            )
        )
    return streams


def run_shard(
    plan: ShardPlan,
    shard_index: int,
    root_seed: int,
    params: ScaleParams,
) -> Dict[str, Any]:
    """Simulate one shard end to end; return its JSON-safe row.

    The row carries everything the cross-shard merge needs: summed
    counters, the fixed-bin commit-latency histogram, the session
    metrics snapshot, the history digest (raw ids), per-shard
    checker violations, and this shard's cross-shard branch votes.
    """
    shard_seed = derive_seed(root_seed, f"scale.shard:{shard_index}")
    cluster = Cluster(ClusterConfig(seed=shard_seed, jitter_sigma=params.jitter_sigma))
    recorder = HistoryRecorder().attach(cluster.sim)
    dc_names = cluster.datacenter_names

    # One legacy per-run registry shared by the shard's sessions: its
    # snapshot is simulated-time only, hence deterministic and row-safe.
    metrics = MetricsRegistry()
    planet = PlanetConfig(
        default_timeout_ms=params.tx_timeout_ms,
        default_guess_threshold=params.guess_threshold,
    )
    sessions = {
        dc: PlanetSession(cluster, dc, config=planet, metrics=metrics)
        for dc in dc_names
    }
    data_chooser = UniformChooser(plan.keys_per_shard, prefix=f"s{shard_index}:k")

    # Workload content rngs are per *slice* and consumed in per-slice
    # arrival order, so transaction content is as shard-independent as
    # the arrivals themselves.
    workload_rngs = {
        slice_index: Random(derive_seed(root_seed, f"scale.workload:slice:{slice_index}"))
        for slice_index in plan.shard_slices(shard_index)
    }

    def on_arrival(arrival: Arrival) -> None:
        rng = workload_rngs[arrival.slice_index]
        session = sessions[dc_names[arrival.user_id % len(dc_names)]]
        key = data_chooser.choose(rng)
        tx = session.transaction().read(key).write(key, rng.randrange(1_000_000))
        session.submit(tx)

    source = TrafficSource(
        cluster.sim,
        shard_streams(plan, shard_index, root_seed, params),
        on_arrival,
        name=f"traffic:s{shard_index}",
    )

    # ------------------------------------------------------------------
    # Cross-shard branches this shard owns (see repro.scale.crossshard).
    # ------------------------------------------------------------------
    xplan = cross_shard_plan(
        root_seed, plan.n_shards, params.duration_ms, params.cross_rate_tps
    )
    # Branches never guess: a prepare vote must be a durable MDCC commit,
    # not a speculative response.
    xconfig = PlanetConfig(default_timeout_ms=params.branch_timeout_ms)
    xsessions = {
        dc: PlanetSession(cluster, dc, config=xconfig, metrics=MetricsRegistry())
        for dc in dc_names
    }
    votes: List[Dict[str, Any]] = []
    voted: set = set()
    branches: List[Any] = []

    def record_vote(tx, gid: str, role: str, session_id: str, vote: str) -> None:
        if (gid, role) in voted:
            return
        voted.add((gid, role))
        reason = ""
        if vote == "abort" and tx.decision is not None:
            reason = tx.abort_reason.value
        votes.append(
            {
                "gid": gid,
                "role": role,
                "vote": vote,
                "reason": reason,
                "decided_ms": round(cluster.sim.now, 6),
            }
        )
        tracer = cluster.sim.tracer
        if "history" in tracer.live:
            tracer.emit(
                cluster.sim.now, "history", "xshard_vote",
                txid=tx.txid, session=session_id,
                gid=gid, role=role, vote=vote, reason=reason,
            )

    def submit_branch(xtx: XTx, role: str) -> None:
        rng = Random(branch_seed(root_seed, xtx.gid, role))
        session = xsessions[dc_names[rng.randrange(len(dc_names))]]
        key = data_chooser.choose(rng)
        tx = (
            session.transaction()
            .write(intent_key(shard_index, xtx.gid), f"{role}:{xtx.gid}")
            .read(key)
            .write(key, rng.randrange(1_000_000))
        )
        sid = session.session_id
        tx.on_commit(lambda t, g=xtx.gid, r=role, s=sid: record_vote(t, g, r, s, "prepared"))
        tx.on_abort(lambda t, g=xtx.gid, r=role, s=sid: record_vote(t, g, r, s, "abort"))
        branches.append((xtx.gid, role, sid, tx))
        session.submit(tx)

    for xtx in xplan:
        if xtx.home == shard_index:
            cluster.sim.schedule(xtx.time_ms, submit_branch, xtx, "home")
        if xtx.partner == shard_index:
            cluster.sim.schedule(xtx.time_ms, submit_branch, xtx, "partner")

    cluster.run()

    # A branch that never resolved is an atomicity violation the merge
    # must see — record it as an explicit "unknown" vote.
    for gid, role, sid, tx in branches:
        if (gid, role) not in voted:
            record_vote(tx, gid, role, sid, "unknown")

    history = recorder.history()
    recorder.detach(cluster.sim)
    violations = check_history(history, CheckerConfig())

    finished = [tx for session in sessions.values() for tx in session.finished]
    committed = [tx for tx in finished if tx.committed]
    latencies = [
        latency
        for latency in (tx.commit_latency_ms() for tx in committed)
        if latency is not None
    ]
    guesses = sum(1 for tx in finished if tx.was_guessed)
    wrong = sum(1 for tx in finished if tx.was_guessed and not tx.committed)

    return {
        "shard": shard_index,
        "population": plan.shard_population(shard_index),
        "arrivals": source.arrivals,
        "submitted": len(finished),
        "committed": len(committed),
        "aborted": len(finished) - len(committed),
        "guesses": guesses,
        "wrong_guesses": wrong,
        "commit_latency_bins": scale_merge.bin_counts(latencies),
        "metrics": metrics.snapshot(),
        "ops": len(history),
        "history_digest": history.digest(),
        "violations": [violation.to_dict() for violation in violations],
        "xshard_votes": sorted(votes, key=lambda v: (v["gid"], v["role"])),
    }
