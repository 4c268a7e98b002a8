"""Unit tests for the transaction builder and its runtime accessors."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster
from repro.core.errors import TransactionSealed
from repro.core.session import PlanetSession
from repro.core.stages import TxStage
from repro.core.transaction import PlanetTransaction
from repro.ops import AbortReason, Decision, DeltaOp, Outcome, WriteOp


class TestBuilder:
    def test_fluent_chaining_returns_self(self):
        tx = PlanetTransaction()
        assert tx.read("a").write("b", 1).increment("c", -1).with_timeout(100.0) is tx

    def test_read_and_write_recorded(self):
        tx = PlanetTransaction().read("a").write("b", 2)
        assert tx.reads == ["a"]
        assert isinstance(tx.writes[0], WriteOp)
        assert tx.writes[0].key == "b"

    def test_increment_records_delta_op(self):
        tx = PlanetTransaction().increment("stock", -2, floor=0.0)
        op = tx.writes[0]
        assert isinstance(op, DeltaOp)
        assert op.delta == -2
        assert op.floor == 0.0

    def test_invalid_timeout(self):
        with pytest.raises(ValueError):
            PlanetTransaction().with_timeout(0.0)

    def test_invalid_guess_threshold(self):
        with pytest.raises(ValueError):
            PlanetTransaction().with_guess_threshold(0.0)
        with pytest.raises(ValueError):
            PlanetTransaction().with_guess_threshold(1.5)

    def test_callback_setters(self):
        fn = lambda *args: None
        tx = (
            PlanetTransaction()
            .on_progress(fn)
            .on_guess(fn)
            .on_wrong_guess(fn)
            .on_commit(fn)
            .on_abort(fn)
        )
        callbacks = tx.callbacks
        assert callbacks.on_progress is fn
        assert callbacks.on_guess is fn
        assert callbacks.on_wrong_guess is fn
        assert callbacks.on_commit is fn
        assert callbacks.on_abort is fn

    def test_sealed_after_submission(self):
        tx = PlanetTransaction()
        tx.transition(TxStage.READING, 1.0)
        with pytest.raises(TransactionSealed):
            tx.write("k", 1)
        with pytest.raises(TransactionSealed):
            tx.read("k")
        with pytest.raises(TransactionSealed):
            tx.with_timeout(10.0)

    def test_unique_txids(self):
        session = PlanetSession(Cluster(), "us_west")
        assert session.transaction().txid != session.transaction().txid
        bare = PlanetTransaction().write("k", 1)
        assert bare.txid is None  # minted by the session that submits it
        session.submit(bare)
        assert bare.txid == "tx-3"

    def test_to_request_copies_ops(self):
        tx = PlanetTransaction().read("a").write("b", 1).with_timeout(250.0)
        request = tx.to_request()
        assert request.txid == tx.txid
        assert request.reads == ["a"]
        assert request.deadline_ms == 250.0


class TestRuntimeAccessors:
    def _committed_tx(self):
        tx = PlanetTransaction()
        tx.transition(TxStage.READING, 10.0)
        tx.transition(TxStage.PENDING, 12.0)
        tx.transition(TxStage.GUESSED, 15.0)
        tx.decision = Decision(tx.txid, Outcome.COMMITTED, decided_at=100.0)
        tx.transition(TxStage.COMMITTED, 100.0)
        return tx

    def test_timestamps(self):
        tx = self._committed_tx()
        assert tx.submitted_at == 10.0
        assert tx.guessed_at == 15.0
        assert tx.decided_at == 100.0

    def test_latencies(self):
        tx = self._committed_tx()
        assert tx.commit_latency_ms() == 90.0
        assert tx.guess_latency_ms() == 5.0

    def test_flags(self):
        tx = self._committed_tx()
        assert tx.committed
        assert tx.was_guessed
        assert tx.abort_reason is AbortReason.NONE

    def test_unsubmitted_latencies_none(self):
        tx = PlanetTransaction()
        assert tx.commit_latency_ms() is None
        assert tx.guess_latency_ms() is None
        assert tx.submitted_at is None
        assert tx.decided_at is None

    def test_abort_reason_from_decision(self):
        tx = PlanetTransaction()
        tx.transition(TxStage.READING, 0.0)
        tx.decision = Decision(tx.txid, Outcome.ABORTED, AbortReason.TIMEOUT, 50.0)
        tx.transition(TxStage.ABORTED, 50.0)
        assert tx.abort_reason is AbortReason.TIMEOUT
        assert not tx.committed
        assert not tx.was_guessed

    def test_repr(self):
        tx = PlanetTransaction("tx-1")
        assert tx.txid in repr(tx)
