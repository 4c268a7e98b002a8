"""Integration tests for the two-phase-commit baseline engine."""

from __future__ import annotations

import pytest

from repro.baselines.locks import LockTable
from repro.baselines.replica import primary_index
from repro.cluster import Cluster, ClusterConfig
from repro.ops import AbortReason, Outcome, TxEvents, TxRequest, WriteOp
from repro.sim.kernel import Simulator


class RecordingEvents(TxEvents):
    def __init__(self):
        self.decision = None
        self.votes = []

    def on_votes(self, request, votes, now):
        self.votes.extend(votes)

    def on_decided(self, request, decision):
        self.decision = decision


def execute(cluster, request, dc="us_west", events=None):
    events = events if events is not None else RecordingEvents()
    cluster.coordinator(dc).execute(request, events)
    cluster.run()
    return events


class TestPrimaryPlacement:
    def test_primary_index_stable(self):
        assert primary_index("some-key", 5) == primary_index("some-key", 5)

    def test_primary_index_spreads(self):
        indices = {primary_index(f"k:{i}", 5) for i in range(200)}
        assert indices == {0, 1, 2, 3, 4}


class TestCommitPath:
    def test_write_commits_and_replicates(self, twopc_cluster):
        events = execute(twopc_cluster, TxRequest(txid="t1", writes=[WriteOp("x", 7)]))
        assert events.decision.outcome is Outcome.COMMITTED
        for node in twopc_cluster.storage_nodes.values():
            assert node.store.get("x").value == 7

    def test_commit_needs_at_least_two_wide_hops(self, twopc_cluster):
        """coordinator->primary + primary->majority-backup replication."""
        events = execute(twopc_cluster, TxRequest(txid="t1", writes=[WriteOp("x", 7)]))
        # The cheapest conceivable 1-RTT commit from us_west is 155 ms
        # (fast-quorum floor); 2PC must exceed it even in the best case.
        assert events.decision.decided_at > 75.0

    def test_multi_key_commit(self, twopc_cluster):
        events = execute(
            twopc_cluster, TxRequest(txid="t1", writes=[WriteOp("a", 1), WriteOp("b", 2)])
        )
        assert events.decision.committed
        for node in twopc_cluster.storage_nodes.values():
            assert node.store.get("a").value == 1
            assert node.store.get("b").value == 2

    def test_read_only_transaction(self, twopc_cluster):
        request = TxRequest(txid="t1", reads=["x"])
        events = execute(twopc_cluster, request)
        assert events.decision.committed
        assert request.read_results == {"x": 0}

    def test_reads_served_by_primary(self, twopc_cluster):
        """A committed write is visible to a subsequent primary read."""
        execute(twopc_cluster, TxRequest(txid="t1", writes=[WriteOp("x", 5)]))
        request = TxRequest(txid="t2", reads=["x"])
        execute(twopc_cluster, request)
        assert request.read_results["x"] == 5

    def test_duplicate_txid_rejected(self, twopc_cluster):
        coordinator = twopc_cluster.coordinator("us_west")
        coordinator.execute(TxRequest(txid="t1", writes=[WriteOp("x", 1)]), TxEvents())
        with pytest.raises(ValueError):
            coordinator.execute(TxRequest(txid="t1", writes=[WriteOp("x", 2)]), TxEvents())


class TestLockConflicts:
    def test_conflicting_transactions_serialize(self, twopc_cluster):
        """Both commit — the second waits for the first's locks."""
        events_a = RecordingEvents()
        events_b = RecordingEvents()
        twopc_cluster.coordinator("us_west").execute(
            TxRequest(txid="ta", writes=[WriteOp("x", 1)]), events_a
        )
        twopc_cluster.coordinator("us_east").execute(
            TxRequest(txid="tb", writes=[WriteOp("x", 2)]), events_b
        )
        twopc_cluster.run()
        assert events_a.decision.committed
        assert events_b.decision.committed
        later = max(events_a.decision.decided_at, events_b.decision.decided_at)
        earlier = min(events_a.decision.decided_at, events_b.decision.decided_at)
        assert later > earlier  # the waiter paid the lock wait

    def test_lock_wait_timeout_aborts(self):
        cluster = Cluster(
            ClusterConfig(seed=3, engine="twopc", jitter_sigma=0.0, lock_wait_timeout_ms=50.0)
        )
        events_a = RecordingEvents()
        events_b = RecordingEvents()
        cluster.coordinator("us_west").execute(
            TxRequest(txid="ta", writes=[WriteOp("x", 1)]), events_a
        )
        cluster.coordinator("us_east").execute(
            TxRequest(txid="tb", writes=[WriteOp("x", 2)]), events_b
        )
        cluster.run()
        outcomes = [
            (e.decision.outcome, e.decision.reason) for e in (events_a, events_b)
        ]
        assert (Outcome.ABORTED, AbortReason.LOCK_TIMEOUT) in outcomes
        assert (Outcome.COMMITTED, AbortReason.NONE) in outcomes

    def test_deadlock_resolved_by_timeout(self):
        """ta locks a then b; tb locks b then a — timeouts break the cycle."""
        cluster = Cluster(
            ClusterConfig(seed=3, engine="twopc", jitter_sigma=0.0, lock_wait_timeout_ms=200.0)
        )
        # Find two keys with different primaries so both grabs can interleave.
        key_a = next(f"k{i}" for i in range(100) if primary_index(f"k{i}", 5) == 0)
        key_b = next(f"k{i}" for i in range(100) if primary_index(f"k{i}", 5) == 3)
        events_a = RecordingEvents()
        events_b = RecordingEvents()
        cluster.coordinator("us_west").execute(
            TxRequest(txid="ta", writes=[WriteOp(key_a, 1), WriteOp(key_b, 1)]), events_a
        )
        cluster.coordinator("singapore").execute(
            TxRequest(txid="tb", writes=[WriteOp(key_b, 2), WriteOp(key_a, 2)]), events_b
        )
        cluster.run()
        # Both decide (no hang), and the store converges across replicas.
        assert events_a.decision is not None
        assert events_b.decision is not None
        snapshots = {
            tuple(sorted(node.store.snapshot().items()))
            for node in cluster.storage_nodes.values()
        }
        assert len(snapshots) == 1

    def test_abort_releases_locks_for_waiters(self):
        cluster = Cluster(
            ClusterConfig(seed=3, engine="twopc", jitter_sigma=0.0, lock_wait_timeout_ms=5000.0)
        )
        events_a = RecordingEvents()
        events_b = RecordingEvents()
        # ta will time out at its deadline while holding the lock on x.
        cluster.coordinator("us_west").execute(
            TxRequest(txid="ta", writes=[WriteOp("x", 1), WriteOp("unreachable", 1)],
                      deadline_ms=120.0),
            events_a,
        )
        from repro.net.partitions import PartitionWindow

        primary_dc = cluster.network.node(
            cluster.coordinator("us_west").primary_id("unreachable")
        ).datacenter.name
        cluster.network.partitions.add_window(
            PartitionWindow(0.0, 400.0, dc_name=primary_dc)
        )
        cluster.sim.schedule(
            10.0,
            cluster.coordinator("us_east").execute,
            TxRequest(txid="tb", writes=[WriteOp("x", 2)]),
            events_b,
        )
        cluster.run()
        if primary_dc != "us_west":
            assert events_a.decision.reason is AbortReason.TIMEOUT
        assert events_b.decision.committed


class TestLockTable:
    def test_immediate_grant(self):
        sim = Simulator()
        locks = LockTable(sim)
        granted = []
        locks.acquire("k", "t1", lambda: granted.append("t1"), lambda: None)
        assert granted == ["t1"]
        assert locks.holder("k") == "t1"

    def test_reentrant_grant(self):
        sim = Simulator()
        locks = LockTable(sim)
        granted = []
        locks.acquire("k", "t1", lambda: granted.append(1), lambda: None)
        locks.acquire("k", "t1", lambda: granted.append(2), lambda: None)
        assert granted == [1, 2]

    def test_fifo_queue(self):
        sim = Simulator()
        locks = LockTable(sim, wait_timeout_ms=1000.0)
        order = []
        locks.acquire("k", "t1", lambda: order.append("t1"), lambda: None)
        locks.acquire("k", "t2", lambda: order.append("t2"), lambda: None)
        locks.acquire("k", "t3", lambda: order.append("t3"), lambda: None)
        locks.release("k", "t1")
        locks.release("k", "t2")
        locks.release("k", "t3")
        assert order == ["t1", "t2", "t3"]
        assert locks.holder("k") is None

    def test_wait_timeout_fires(self):
        sim = Simulator()
        locks = LockTable(sim, wait_timeout_ms=100.0)
        timed_out = []
        locks.acquire("k", "t1", lambda: None, lambda: None)
        locks.acquire("k", "t2", lambda: None, lambda: timed_out.append("t2"))
        sim.run()
        assert timed_out == ["t2"]
        assert locks.lock_timeouts == 1

    def test_timeout_cancelled_on_grant(self):
        sim = Simulator()
        locks = LockTable(sim, wait_timeout_ms=100.0)
        granted, timed_out = [], []
        locks.acquire("k", "t1", lambda: None, lambda: None)
        locks.acquire("k", "t2", lambda: granted.append("t2"), lambda: timed_out.append("t2"))
        sim.schedule(10.0, locks.release, "k", "t1")
        sim.run()
        assert granted == ["t2"]
        assert timed_out == []

    def test_release_removes_waiter(self):
        sim = Simulator()
        locks = LockTable(sim, wait_timeout_ms=100.0)
        granted = []
        locks.acquire("k", "t1", lambda: None, lambda: None)
        locks.acquire("k", "t2", lambda: granted.append("t2"), lambda: None)
        locks.release("k", "t2")  # abort of queued tx
        locks.release("k", "t1")
        sim.run()
        assert granted == []
        assert locks.holder("k") is None

    def test_lock_waits_counted(self):
        sim = Simulator()
        locks = LockTable(sim)
        locks.acquire("k", "t1", lambda: None, lambda: None)
        locks.acquire("k", "t2", lambda: None, lambda: None)
        assert locks.lock_waits == 1
