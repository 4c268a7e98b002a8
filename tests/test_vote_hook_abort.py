"""An abort issued from inside ``TxEvents.on_votes`` decides exactly once.

The hook runs before the coordinator decides on a vote message.  When it
aborts on the very message that chooses or dooms a record, the coordinator
must stop there: one ABORTED/CLIENT decision, one decision broadcast, and
nothing left pending at the replicas.
"""

from __future__ import annotations

from repro.baselines import protocol as twopc_protocol
from repro.cluster import Cluster, ClusterConfig
from repro.core.session import PlanetSession
from repro.core.speculation import SpeculationManager
from repro.mdcc import protocol as mdcc_protocol
from repro.ops import AbortReason, Outcome, TxEvents, TxRequest, WriteOp
from repro.usecases.alternate import AlternateOnLowLikelihood

DCS = ("us_west", "us_east", "ireland", "singapore", "tokyo")


class AbortOnVote(TxEvents):
    """Aborts its transaction from inside the ``nth`` all-accept vote message."""

    def __init__(self, coordinator, nth: int) -> None:
        self.coordinator = coordinator
        self.nth = nth
        self.yes_votes = 0
        self.aborted = None
        self.decisions = []

    def on_votes(self, request, votes, now):
        if all(accepted for _key, accepted in votes):
            self.yes_votes += 1
            if self.yes_votes == self.nth:
                self.aborted = self.coordinator.abort(request.txid)

    def on_decided(self, request, decision):
        self.decisions.append((decision.outcome, decision.reason))


def count_sends(monkeypatch, coordinator, message_type):
    """Record the txids of every ``message_type`` the coordinator sends."""
    sent = []
    original = coordinator.send

    def counting(recipient_id, message):
        if isinstance(message, message_type):
            sent.append(message.txid)
        original(recipient_id, message)

    monkeypatch.setattr(coordinator, "send", counting)
    return sent


def abort_on_the_choosing_message(monkeypatch, keys):
    cluster = Cluster(ClusterConfig(seed=3, jitter_sigma=0.0))
    coordinator = cluster.coordinator("us_west")
    broadcasts = count_sends(monkeypatch, coordinator, mdcc_protocol.DecisionMessage)
    # Fast quorum is 4 of 5: the 4th accepting message chooses every option.
    events = AbortOnVote(coordinator, nth=4)
    writes = [WriteOp(key, 1, read_version=0) for key in keys]
    coordinator.execute(TxRequest(txid="t1", writes=writes), events)
    cluster.run()
    assert events.aborted is True
    assert events.decisions == [(Outcome.ABORTED, AbortReason.CLIENT)]
    assert broadcasts == ["t1"] * len(DCS)
    for node in cluster.storage_nodes.values():
        for key in keys:
            assert "t1" not in node.store.record(key).pending
            assert node.store.get(key).version == 0


def test_mdcc_abort_on_the_choosing_vote(monkeypatch):
    abort_on_the_choosing_message(monkeypatch, ("x",))


def test_mdcc_abort_on_the_message_choosing_two_records(monkeypatch):
    abort_on_the_choosing_message(monkeypatch, ("x", "y"))


def test_alternate_pattern_aborts_on_a_dooming_vote(monkeypatch):
    decided = []
    original = SpeculationManager.on_decided

    def recording(self, request, decision):
        decided.append((request.txid, decision.outcome, decision.reason))
        original(self, request, decision)

    monkeypatch.setattr(SpeculationManager, "on_decided", recording)
    for seed in range(3):
        decided.clear()
        cluster = Cluster(ClusterConfig(seed=seed))
        coordinator = cluster.coordinator("us_west")
        broadcasts = count_sends(monkeypatch, coordinator, mdcc_protocol.DecisionMessage)
        sessions = {dc: PlanetSession(cluster, dc) for dc in DCS}
        # A floor this low is crossed only on the vote that dooms ``x``.
        pattern = AlternateOnLowLikelihood(
            sessions["us_west"], build_alternate=lambda tx: None, likelihood_floor=0.01
        )
        tx = pattern.run(sessions["us_west"].transaction().write("x", 1))
        for dc in DCS[1:]:
            sessions[dc].submit(sessions[dc].transaction().write("x", 2))
        cluster.run()
        assert pattern.switched == 1
        assert tx.abort_reason is AbortReason.CLIENT
        assert [d for d in decided if d[0] == tx.txid] == [
            (tx.txid, Outcome.ABORTED, AbortReason.CLIENT)
        ]
        assert broadcasts.count(tx.txid) == len(DCS)
        for node in cluster.storage_nodes.values():
            assert tx.txid not in node.store.record("x").pending


def test_twopc_abort_on_the_last_prepare_vote(monkeypatch):
    cluster = Cluster(ClusterConfig(seed=3, engine="twopc", jitter_sigma=0.0))
    coordinator = cluster.coordinator("us_west")
    requests = count_sends(monkeypatch, coordinator, twopc_protocol.DecisionRequest)
    # The second yes vote completes the prepare phase of a two-write tx.
    events = AbortOnVote(coordinator, nth=2)
    coordinator.execute(
        TxRequest(txid="t1", writes=[WriteOp("x", 1), WriteOp("y", 2)]), events
    )
    cluster.run()
    assert events.aborted is True
    assert events.decisions == [(Outcome.ABORTED, AbortReason.CLIENT)]
    assert requests == ["t1", "t1"]  # one decision per written key
    for dc, replica in cluster.replicas.items():
        assert not replica._prepared
        assert replica.locks.holder("x") is None and replica.locks.holder("y") is None
        assert cluster.storage_nodes[dc].store.get("x").version == 0
