"""Targeted tests for the replica-side message races.

These races were found by the replica-convergence invariant tests and are
now guarded explicitly: late proposals for decided transactions, duplicate
decision deliveries, and out-of-order decision application.
"""

from __future__ import annotations

import pytest

from repro.baselines import protocol as twopc_protocol
from repro.baselines.replica import TwoPcReplica
from repro.mdcc import protocol
from repro.mdcc.options import WriteOption
from repro.mdcc.replica import MdccReplica
from repro.net.latency import LatencyModel
from repro.net.network import Network, NetworkNode
from repro.net.topology import EC2_FIVE_DC
from repro.ops import WriteOp
from repro.paxos.ballot import Ballot
from repro.sim.kernel import Simulator
from repro.storage.node import StorageNode


class Sink(NetworkNode):
    """Collects replies the replica sends back."""

    def __init__(self, node_id, datacenter):
        super().__init__(node_id, datacenter)
        self.received = []

    def receive(self, message):
        self.received.append(message)


@pytest.fixture
def replica_rig():
    sim = Simulator(seed=0)
    network = Network(sim, EC2_FIVE_DC, latency=LatencyModel(EC2_FIVE_DC, jitter_sigma=0.0))
    node = StorageNode("store", EC2_FIVE_DC.datacenter("us_west"), sim)
    network.register(node)
    replica = MdccReplica(node)
    sink = Sink("coord", EC2_FIVE_DC.datacenter("us_west"))
    network.register(sink)
    return sim, node, replica, sink


def fast_ballot():
    return Ballot(0, "", fast=True)


def phase2a(txid, *options):
    return protocol.Phase2a(
        txid=txid, ballot=fast_ballot(), options=options, sender="coord"
    )


def decision(txid, commit, options):
    return protocol.DecisionMessage(txid=txid, commit=commit, options=tuple(options))


class TestLateProposalSuppression:
    def test_phase2a_after_decision_is_refused(self, replica_rig):
        sim, node, replica, sink = replica_rig
        option = WriteOption("t1", "x", read_version=0, new_value=5)
        # Decision arrives first (the quorum formed elsewhere)...
        node.receive(decision("t1", commit=True, options=[option]))
        sim.run()
        assert node.store.get("x").value == 5
        # ... then the replica's own (reordered) proposal shows up.
        node.receive(phase2a("t1", option))
        sim.run()
        record = node.store.record("x")
        assert record.pending == {}, "late proposal must not orphan a pending option"
        votes = [m for m in sink.received if isinstance(m, protocol.Phase2b)]
        assert votes and votes[-1].votes == (("x", False),)

    def test_late_proposal_after_abort_decision(self, replica_rig):
        sim, node, replica, sink = replica_rig
        option = WriteOption("t1", "x", read_version=0, new_value=5)
        node.receive(decision("t1", commit=False, options=[option]))
        sim.run()
        node.receive(phase2a("t1", option))
        sim.run()
        assert node.store.record("x").pending == {}
        assert node.store.get("x").value == 0  # aborted, never applied


def recording_sends(node, monkeypatch):
    """Record (message, send time) for everything ``node`` sends."""
    sends = []
    send = node.send

    def recording(recipient_id, message):
        sends.append((message, node.sim.now))
        send(recipient_id, message)

    monkeypatch.setattr(node, "send", recording)
    return sends


class TestCoalescedVotes:
    """One Phase2a carries every option; one Phase2b answers for all of them."""

    def test_mixed_vote_leaves_once_its_append_is_durable(self, replica_rig, monkeypatch):
        sim, node, replica, sink = replica_rig
        sends = recording_sends(node, monkeypatch)
        stale = WriteOption("t1", "x", read_version=3, new_value=1)
        fresh = WriteOption("t1", "y", read_version=0, new_value=2)
        appends = node.wal.appends
        node.receive(phase2a("t1", stale, fresh))
        assert node.wal.appends == appends + 1  # one append for the whole proposal
        assert sends == [], "an accepting vote must wait for its WAL append"
        assert node.store.record("x").pending == {}
        assert node.store.record("y").pending == {"t1": fresh}
        sim.run()
        [(vote, sent_at)] = sends
        assert vote.votes == (("x", False), ("y", True))
        assert sent_at >= node.wal.sync_delay_ms > 0
        assert sink.received == [vote]

    def test_all_reject_vote_leaves_at_once(self, replica_rig, monkeypatch):
        sim, node, replica, sink = replica_rig
        sends = recording_sends(node, monkeypatch)
        appends = node.wal.appends
        node.receive(phase2a(
            "t1",
            WriteOption("t1", "x", read_version=3, new_value=1),
            WriteOption("t1", "y", read_version=4, new_value=2),
        ))
        assert node.wal.appends == appends
        [(vote, sent_at)] = sends
        assert vote.votes == (("x", False), ("y", False))
        assert sent_at == 0.0

    @pytest.mark.parametrize("refusal", ["decided", "blocked"])
    def test_late_or_blocked_proposal_refused_for_every_option(
        self, replica_rig, monkeypatch, refusal
    ):
        sim, node, replica, sink = replica_rig
        options = [
            WriteOption("t1", "x", read_version=0, new_value=1),
            WriteOption("t1", "y", read_version=0, new_value=2),
        ]
        if refusal == "decided":
            node.receive(decision("t1", commit=False, options=options))
            sim.run()
        else:
            node.receive(protocol.TxStatusQuery(txid="t1", key="x", sender="coord"))
            sim.run()
        sink.received.clear()
        appends = node.wal.appends
        node.receive(phase2a("t1", *options))
        sim.run()
        assert node.wal.appends == appends
        assert [m.votes for m in sink.received] == [(("x", False), ("y", False))]
        assert node.store.record("x").pending == {}
        assert node.store.record("y").pending == {}


class TestDuplicateDecisions:
    def test_duplicate_commit_applied_once(self, replica_rig):
        sim, node, replica, sink = replica_rig
        option = WriteOption("t1", "x", read_version=0, new_value=5)
        node.receive(phase2a("t1", option))
        sim.run()
        node.receive(decision("t1", commit=True, options=[option]))
        node.receive(decision("t1", commit=True, options=[option]))
        sim.run()
        record = node.store.record("x")
        assert record.latest.value == 5
        assert record.committed_version == 1  # not double-applied


class TestOutOfOrderDecisions:
    def test_write_decisions_apply_in_version_order(self, replica_rig):
        sim, node, replica, sink = replica_rig
        first = WriteOption("t1", "x", read_version=0, new_value="first")
        second = WriteOption("t2", "x", read_version=1, new_value="second")
        # The second write's decision arrives before the first's.
        node.receive(decision("t2", commit=True, options=[second]))
        sim.run()
        assert node.store.record("x").committed_version == 0  # buffered
        node.receive(decision("t1", commit=True, options=[first]))
        sim.run()
        record = node.store.record("x")
        assert record.committed_version == 2
        assert record.latest.value == "second"
        assert record.version_at(1).value == "first"

    def test_chain_of_three_reordered_writes(self, replica_rig):
        sim, node, replica, sink = replica_rig
        options = [
            WriteOption(f"t{i}", "x", read_version=i, new_value=i) for i in range(3)
        ]
        for index in (2, 0, 1):  # fully scrambled
            node.receive(decision(f"t{index}", commit=True, options=[options[index]]))
            sim.run()
        record = node.store.record("x")
        assert record.committed_version == 3
        assert record.latest.value == 2

    def test_stale_duplicate_version_dropped(self, replica_rig):
        sim, node, replica, sink = replica_rig
        first = WriteOption("t1", "x", read_version=0, new_value="first")
        node.receive(decision("t1", commit=True, options=[first]))
        sim.run()
        stale = WriteOption("t9", "x", read_version=0, new_value="stale")
        node.receive(decision("t9", commit=True, options=[stale]))
        sim.run()
        record = node.store.record("x")
        assert record.latest.value == "first"
        assert record.committed_version == 1


class TestTwoPcBackupOrdering:
    @pytest.fixture
    def backup_rig(self):
        sim = Simulator(seed=0)
        network = Network(sim, EC2_FIVE_DC, latency=LatencyModel(EC2_FIVE_DC, jitter_sigma=0.0))
        node = StorageNode("store", EC2_FIVE_DC.datacenter("us_west"), sim)
        network.register(node)
        replica = TwoPcReplica(node, ["store"])
        return sim, node, replica

    def _backup_decision(self, txid, key, value, version):
        return twopc_protocol.BackupDecision(
            txid=txid, key=key, commit=True, op=WriteOp(key, value), version=version
        )

    def test_reordered_backup_decisions_converge(self, backup_rig):
        sim, node, replica = backup_rig
        node.receive(self._backup_decision("t2", "x", "second", version=2))
        assert node.store.record("x").committed_version == 0  # buffered
        node.receive(self._backup_decision("t1", "x", "first", version=1))
        record = node.store.record("x")
        assert record.committed_version == 2
        assert record.latest.value == "second"

    def test_duplicate_backup_decision_dropped(self, backup_rig):
        sim, node, replica = backup_rig
        node.receive(self._backup_decision("t1", "x", "first", version=1))
        node.receive(self._backup_decision("t1", "x", "first", version=1))
        assert node.store.record("x").committed_version == 1

    def test_abort_backup_decision_ignored(self, backup_rig):
        sim, node, replica = backup_rig
        message = twopc_protocol.BackupDecision(
            txid="t1", key="x", commit=False, op=WriteOp("x", 9), version=1
        )
        node.receive(message)
        assert node.store.record("x").committed_version == 0
