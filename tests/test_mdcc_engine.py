"""Integration tests for the MDCC engine (coordinator + replicas + network)."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.mdcc import protocol
from repro.net.network import Network
from repro.ops import AbortReason, Decision, DeltaOp, Outcome, TxEvents, TxRequest, WriteOp
from repro.storage.wal import WriteAheadLog


class RecordingEvents(TxEvents):
    def __init__(self):
        self.trace = []
        self.decision = None

    def on_reads_complete(self, request, now):
        self.trace.append(("reads", now))

    def on_commit_started(self, request, now):
        self.trace.append(("commit_started", now))

    def on_votes(self, request, votes, now):
        for key, accepted in votes:
            self.trace.append(("vote", key, accepted, now))

    def on_decided(self, request, decision):
        self.trace.append(("decided", decision.outcome, decision.decided_at))
        self.decision = decision


def execute(cluster, request, dc="us_west", events=None):
    events = events if events is not None else RecordingEvents()
    cluster.coordinator(dc).execute(request, events)
    cluster.run()
    return events


class TestCommitPath:
    def test_single_write_commits_everywhere(self, mdcc_cluster):
        request = TxRequest(txid="t1", writes=[WriteOp("x", 7)])
        events = execute(mdcc_cluster, request)
        assert events.decision.outcome is Outcome.COMMITTED
        for node in mdcc_cluster.storage_nodes.values():
            assert node.store.get("x").value == 7
            assert node.store.record("x").pending == {}

    def test_commit_latency_about_one_quorum_rtt(self, mdcc_cluster):
        request = TxRequest(txid="t1", writes=[WriteOp("x", 7)])
        events = execute(mdcc_cluster, request)
        decided_at = events.decision.decided_at
        # us_west fast quorum RTT is 155 ms; reads add an intra-DC round
        # trip and the WAL sync ~1.5 ms.  Deterministic latency: tight band.
        assert 155.0 <= decided_at <= 165.0

    def test_multi_key_write_commits_atomically(self, mdcc_cluster):
        request = TxRequest(txid="t1", writes=[WriteOp("a", 1), WriteOp("b", 2)])
        events = execute(mdcc_cluster, request)
        assert events.decision.committed
        for node in mdcc_cluster.storage_nodes.values():
            assert node.store.get("a").value == 1
            assert node.store.get("b").value == 2

    def test_read_only_commits_without_options(self, mdcc_cluster):
        request = TxRequest(txid="t1", reads=["x"])
        events = execute(mdcc_cluster, request)
        assert events.decision.committed
        assert request.read_results == {"x": 0}
        # Decision arrives after one intra-DC read round trip only.
        assert events.decision.decided_at < 5.0

    def test_read_stamps_write_versions(self, mdcc_cluster):
        op = WriteOp("x", 5)
        request = TxRequest(txid="t1", writes=[op])
        execute(mdcc_cluster, request)
        assert op.read_version == 0

    def test_events_fire_in_protocol_order(self, mdcc_cluster):
        request = TxRequest(txid="t1", reads=["r"], writes=[WriteOp("x", 5)])
        events = execute(mdcc_cluster, request)
        kinds = [entry[0] for entry in events.trace]
        assert kinds[0] == "reads"
        assert kinds[1] == "commit_started"
        assert kinds[-1] == "decided"
        votes = [entry for entry in events.trace if entry[0] == "vote"]
        # Decision at fast quorum: 4 of 5 votes arrive before the decision,
        # the 5th is ignored after the coordinator forgets the transaction.
        assert len(votes) == 4
        assert all(vote[2] for vote in votes)

    def test_duplicate_txid_rejected(self, mdcc_cluster):
        coordinator = mdcc_cluster.coordinator("us_west")
        coordinator.execute(TxRequest(txid="t1", writes=[WriteOp("x", 1)]), TxEvents())
        with pytest.raises(ValueError):
            coordinator.execute(TxRequest(txid="t1", writes=[WriteOp("x", 2)]), TxEvents())


@pytest.fixture
def sent(monkeypatch):
    """Every message handed to the network, in send order."""
    messages = []
    send = Network.send

    def recording(network, sender_id, recipient_id, message):
        messages.append(message)
        send(network, sender_id, recipient_id, message)

    monkeypatch.setattr(Network, "send", recording)
    return messages


class TestCoalescedRounds:
    """One proposal and one vote message per replica, whatever the write set."""

    def test_two_writes_cost_one_round_per_replica(self, mdcc_cluster, monkeypatch, sent):
        appends = []
        append = WriteAheadLog.append

        def counting_append(wal, kind, txid, now):
            appends.append((wal.label, kind))
            return append(wal, kind, txid, now)

        monkeypatch.setattr(WriteAheadLog, "append", counting_append)
        request = TxRequest(
            txid="t1", writes=[WriteOp("a", 1, read_version=0), WriteOp("b", 2, read_version=0)]
        )
        events = execute(mdcc_cluster, request)
        assert events.decision.committed
        n = len(mdcc_cluster.storage_nodes)
        by_kind = {}
        for message in sent:
            by_kind.setdefault(type(message), []).append(message)
        assert len(by_kind[protocol.Phase2a]) == n
        assert len(by_kind[protocol.Phase2b]) == n
        assert len(by_kind[protocol.DecisionMessage]) == n
        assert len({m.recipient for m in by_kind[protocol.Phase2a]}) == n
        for proposal in by_kind[protocol.Phase2a]:
            assert [option.key for option in proposal.options] == ["a", "b"]
        for vote in by_kind[protocol.Phase2b]:
            assert vote.votes == (("a", True), ("b", True))
        options = [entry for entry in appends if entry[1] == "option"]
        assert len(options) == n and len(set(options)) == n
        # Every record collected its votes from the same messages.
        assert [entry[1:3] for entry in events.trace if entry[0] == "vote"] == [
            ("a", True), ("b", True)
        ] * 4

    def test_classic_path_prepares_every_record_in_one_message(self, sent):
        cluster = Cluster(ClusterConfig(seed=3, jitter_sigma=0.0, use_fast_path=False))
        request = TxRequest(
            txid="t1", writes=[WriteOp("a", 1, read_version=0), WriteOp("b", 2, read_version=0)]
        )
        events = execute(cluster, request)
        assert events.decision.committed
        prepares = [m for m in sent if isinstance(m, protocol.Phase1a)]
        promises = [m for m in sent if isinstance(m, protocol.Phase1b)]
        assert len(prepares) == len(promises) == len(cluster.storage_nodes)
        assert all(m.keys == ("a", "b") for m in prepares)
        assert all(m.promises == (("a", True), ("b", True)) for m in promises)
        assert sum(isinstance(m, protocol.Phase2a) for m in sent) == len(cluster.storage_nodes)


class TestConflicts:
    def test_concurrent_exclusive_writes_never_both_commit(self, mdcc_cluster):
        """No lost updates: AT MOST one of two conflicting writes commits.

        With symmetric timing both may abort (each grabs part of the vote,
        neither reaches the 4/5 fast quorum) — that is correct optimistic
        behaviour, not a bug; the forbidden outcome is both committing.
        """
        events_a = RecordingEvents()
        events_b = RecordingEvents()
        mdcc_cluster.coordinator("us_west").execute(
            TxRequest(txid="ta", writes=[WriteOp("x", 1, read_version=0)]), events_a
        )
        mdcc_cluster.coordinator("us_east").execute(
            TxRequest(txid="tb", writes=[WriteOp("x", 2, read_version=0)]), events_b
        )
        mdcc_cluster.run()
        committed = [e for e in (events_a, events_b) if e.decision.committed]
        assert len(committed) <= 1
        expected = {0, 1 if events_a.decision.committed else None,
                    2 if events_b.decision.committed else None}
        for node in mdcc_cluster.storage_nodes.values():
            assert node.store.get("x").value in expected
            assert node.store.record("x").pending == {}

    def test_sequential_conflicting_writes_second_loses(self, mdcc_cluster):
        """When one proposal clearly leads, it wins and the laggard aborts."""
        events_a = RecordingEvents()
        events_b = RecordingEvents()
        mdcc_cluster.coordinator("us_west").execute(
            TxRequest(txid="ta", writes=[WriteOp("x", 1, read_version=0)]), events_a
        )
        # Start the competitor 60 ms later: tx a's option is already pending
        # at most replicas, so tx b must lose while a still commits.
        mdcc_cluster.sim.schedule(
            60.0,
            mdcc_cluster.coordinator("us_east").execute,
            TxRequest(txid="tb", writes=[WriteOp("x", 2, read_version=0)]),
            events_b,
        )
        mdcc_cluster.run()
        assert events_a.decision.committed
        assert not events_b.decision.committed
        for node in mdcc_cluster.storage_nodes.values():
            assert node.store.get("x").value == 1

    def test_stale_read_version_aborts(self, mdcc_cluster):
        execute(mdcc_cluster, TxRequest(txid="t1", writes=[WriteOp("x", 1, read_version=0)]))
        events = execute(
            mdcc_cluster, TxRequest(txid="t2", writes=[WriteOp("x", 2, read_version=0)])
        )
        assert events.decision.outcome is Outcome.ABORTED
        assert events.decision.reason is AbortReason.CONFLICT

    def test_aborted_transaction_leaves_no_trace(self, mdcc_cluster):
        execute(mdcc_cluster, TxRequest(txid="t1", writes=[WriteOp("x", 1, read_version=0)]))
        execute(mdcc_cluster, TxRequest(txid="t2", writes=[WriteOp("x", 2, read_version=0)]))
        for node in mdcc_cluster.storage_nodes.values():
            assert node.store.get("x").value == 1
            assert node.store.record("x").pending == {}

    def test_multi_key_abort_is_all_or_nothing(self, mdcc_cluster):
        """If one record conflicts the other record's write must not land."""
        execute(mdcc_cluster, TxRequest(txid="t1", writes=[WriteOp("a", 1, read_version=0)]))
        events = execute(
            mdcc_cluster,
            TxRequest(
                txid="t2",
                writes=[WriteOp("a", 9, read_version=0), WriteOp("b", 9, read_version=0)],
            ),
        )
        assert not events.decision.committed
        for node in mdcc_cluster.storage_nodes.values():
            assert node.store.get("a").value == 1
            assert node.store.get("b").value == 0


class TestDeltaOptions:
    def test_concurrent_deltas_both_commit(self, mdcc_cluster):
        mdcc_cluster.load({"stock": 10})
        events_a = RecordingEvents()
        events_b = RecordingEvents()
        mdcc_cluster.coordinator("us_west").execute(
            TxRequest(txid="ta", writes=[DeltaOp("stock", -1)]), events_a
        )
        mdcc_cluster.coordinator("tokyo").execute(
            TxRequest(txid="tb", writes=[DeltaOp("stock", -1)]), events_b
        )
        mdcc_cluster.run()
        assert events_a.decision.committed
        assert events_b.decision.committed
        for node in mdcc_cluster.storage_nodes.values():
            assert node.store.get("stock").value == 8

    def test_escrow_floor_enforced(self, mdcc_cluster):
        mdcc_cluster.load({"stock": 1})
        events_a = RecordingEvents()
        events_b = RecordingEvents()
        mdcc_cluster.coordinator("us_west").execute(
            TxRequest(txid="ta", writes=[DeltaOp("stock", -1, floor=0.0)]), events_a
        )
        mdcc_cluster.coordinator("us_west").execute(
            TxRequest(txid="tb", writes=[DeltaOp("stock", -1, floor=0.0)]), events_b
        )
        mdcc_cluster.run()
        outcomes = sorted(e.decision.outcome.value for e in (events_a, events_b))
        assert outcomes == ["aborted", "committed"]
        for node in mdcc_cluster.storage_nodes.values():
            assert node.store.get("stock").value == 0


class TestTimeouts:
    def test_deadline_aborts_undecided_transaction(self):
        # A partitioned majority: messages to 3 of 5 DCs are lost, so the
        # fast quorum can never form and the deadline must fire.
        cluster = Cluster(ClusterConfig(seed=3, jitter_sigma=0.0))
        from repro.net.partitions import PartitionWindow

        for dc in ("ireland", "singapore", "tokyo"):
            cluster.network.partitions.add_window(
                PartitionWindow(0.0, 10_000.0, dc_name=dc)
            )
        events = RecordingEvents()
        cluster.coordinator("us_west").execute(
            TxRequest(txid="t1", writes=[WriteOp("x", 1, read_version=0)], deadline_ms=500.0),
            events,
        )
        cluster.run()
        assert events.decision.outcome is Outcome.ABORTED
        assert events.decision.reason is AbortReason.TIMEOUT
        assert events.decision.decided_at == 500.0

    def test_fast_transaction_beats_deadline(self, mdcc_cluster):
        events = execute(
            mdcc_cluster,
            TxRequest(txid="t1", writes=[WriteOp("x", 1, read_version=0)], deadline_ms=1000.0),
        )
        assert events.decision.committed


class TestClassicPath:
    def test_classic_path_commits(self):
        cluster = Cluster(ClusterConfig(seed=3, jitter_sigma=0.0, use_fast_path=False))
        events = execute(cluster, TxRequest(txid="t1", writes=[WriteOp("x", 1, read_version=0)]))
        assert events.decision.committed
        for node in cluster.storage_nodes.values():
            assert node.store.get("x").value == 1

    def test_classic_slower_than_fast(self, mdcc_cluster):
        fast_events = execute(
            mdcc_cluster, TxRequest(txid="t1", writes=[WriteOp("x", 1, read_version=0)])
        )
        classic_cluster = Cluster(ClusterConfig(seed=3, jitter_sigma=0.0, use_fast_path=False))
        classic_events = execute(
            classic_cluster, TxRequest(txid="t1", writes=[WriteOp("x", 1, read_version=0)])
        )
        assert classic_events.decision.decided_at > fast_events.decision.decided_at


class TestProgressSnapshot:
    def test_progress_reports_vote_state(self, mdcc_cluster):
        coordinator = mdcc_cluster.coordinator("us_west")
        snapshots = []

        class Snapshotter(TxEvents):
            def on_votes(self, request, votes, now):
                snapshots.append(coordinator.progress(request.txid))

        coordinator.execute(
            TxRequest(txid="t1", writes=[WriteOp("x", 1, read_version=0)]), Snapshotter()
        )
        mdcc_cluster.run()
        assert snapshots, "no votes observed"
        first = snapshots[0]
        record = first.records[0]
        assert record.key == "x"
        assert record.n == 5
        assert record.quorum == 4
        assert record.accepts == 1
        assert len(record.outstanding_dcs) == 4

    def test_progress_none_after_decision(self, mdcc_cluster):
        execute(mdcc_cluster, TxRequest(txid="t1", writes=[WriteOp("x", 1, read_version=0)]))
        assert mdcc_cluster.coordinator("us_west").progress("t1") is None

    def test_progress_includes_deadline(self, mdcc_cluster):
        coordinator = mdcc_cluster.coordinator("us_west")
        seen = []

        class Snapshotter(TxEvents):
            def on_votes(self, request, votes, now):
                seen.append(coordinator.progress(request.txid).deadline_at)

        coordinator.execute(
            TxRequest(txid="t1", writes=[WriteOp("x", 1, read_version=0)], deadline_ms=700.0),
            Snapshotter(),
        )
        mdcc_cluster.run()
        assert seen[0] == pytest.approx(700.0, abs=2.0)
