"""Builds a cluster from a :class:`RunConfig`, drives it, collects results."""

from __future__ import annotations

from typing import List

from repro.cluster import Cluster
from repro.core.conflicts import ConflictTracker
from repro.core.session import PlanetSession
from repro.harness.config import RunConfig
from repro.harness.results import RunResult
from repro.obs.metrics import MetricsRegistry
from repro.workload.clients import ClosedLoopClient, OpenLoopClient
from repro.workload.spikes import apply_spikes


def run_experiment(config: RunConfig) -> RunResult:
    """Build the cluster ``config`` describes, drive its workload to the
    end, and collect the finished transactions."""
    cluster = Cluster(config.cluster)
    if config.initial_data:
        cluster.load(config.initial_data)
    if config.spikes:
        apply_spikes(cluster.latency, config.spikes)

    # One session per client data center.  Conflict statistics and the
    # metrics registry are shared across sessions: the paper's predictor
    # aggregates deployment-wide statistics (think gossiped stats).
    conflicts = ConflictTracker()
    metrics = MetricsRegistry()
    # Counters/latencies mirror into the obs event stream when a trace
    # capture is active (no-op otherwise).
    metrics.bind_tracer(cluster.sim.tracer, lambda: cluster.sim.now)
    workload = config.workload
    client_dcs = (
        list(workload.client_dcs)
        if workload.client_dcs is not None
        else cluster.datacenter_names
    )
    sessions: List[PlanetSession] = []
    clients = []
    for dc_name in client_dcs:
        session = PlanetSession(
            cluster, dc_name, config=config.planet, metrics=metrics, conflicts=conflicts
        )
        sessions.append(session)
        for i in range(workload.clients_per_dc):
            name = f"{dc_name}:{i}"
            rng = cluster.sim.rng.stream(f"workload:{name}")
            if workload.arrival == "open":
                clients.append(
                    OpenLoopClient(
                        session,
                        workload.tx_factory,
                        rate_tps=workload.rate_tps,
                        end_ms=config.duration_ms,
                        rng=rng,
                        name=name,
                    )
                )
            else:
                clients.append(
                    ClosedLoopClient(
                        session,
                        workload.tx_factory,
                        end_ms=config.duration_ms,
                        think_time_ms=workload.think_time_ms,
                        rng=rng,
                        name=name,
                    )
                )

    # Clients stop generating at duration_ms; draining the event queue
    # lets every in-flight transaction decide.
    cluster.sim.run()

    all_transactions = [tx for session in sessions for tx in session.finished]
    all_transactions.sort(
        key=lambda tx: (
            tx.submitted_at
            if tx.submitted_at is not None
            else (tx.decision.decided_at if tx.decision is not None else 0.0),
            tx.txid,
        )
    )
    measured = [
        tx
        for tx in all_transactions
        if tx.submitted_at is not None and tx.submitted_at >= config.warmup_ms
    ]
    # Admission-rejected transactions never reach READING, so their
    # submitted_at is None; count the ones rejected inside the window.
    measured.extend(
        tx
        for tx in all_transactions
        if tx.submitted_at is None
        and tx.decision is not None
        and tx.decision.decided_at >= config.warmup_ms
    )
    return RunResult(
        transactions=measured,
        all_transactions=all_transactions,
        duration_ms=config.duration_ms,
        warmup_ms=config.warmup_ms,
        cluster=cluster,
        sessions=sessions,
    )
