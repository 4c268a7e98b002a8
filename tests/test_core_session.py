"""Integration tests for the PLANET session, speculation and admission."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.core.admission import AdmissionController, AdmissionPolicy
from repro.core.session import PlanetConfig, PlanetSession
from repro.core.stages import TxStage
from repro.ops import AbortReason


def run_tx(cluster, tx, session):
    session.submit(tx)
    cluster.run()
    return tx


class TestHappyPath:
    def test_commit_fires_callbacks_in_order(self, mdcc_cluster):
        session = PlanetSession(mdcc_cluster, "us_west")
        events = []
        tx = (
            session.transaction()
            .write("x", 5)
            .with_guess_threshold(0.9)
            .on_progress(lambda t, p: events.append("progress"))
            .on_guess(lambda t, p: events.append("guess"))
            .on_commit(lambda t: events.append("commit"))
            .on_abort(lambda t: events.append("abort"))
        )
        run_tx(mdcc_cluster, tx, session)
        assert tx.stage is TxStage.COMMITTED
        assert events[0] == "progress"
        assert "guess" in events
        assert events[-1] == "commit"
        assert "abort" not in events

    def test_likelihood_trace_monotone_timestamps(self, mdcc_cluster):
        session = PlanetSession(mdcc_cluster, "us_west")
        tx = session.transaction().write("x", 5)
        run_tx(mdcc_cluster, tx, session)
        times = [t for t, _ in tx.likelihood_trace]
        assert times == sorted(times)
        assert all(0.0 <= p <= 1.0 for _, p in tx.likelihood_trace)

    def test_waiter_wakes_with_decision(self, mdcc_cluster):
        session = PlanetSession(mdcc_cluster, "us_west")
        tx = session.transaction().write("x", 5)
        session.submit(tx)
        assert tx.waiter is not None and not tx.waiter.woken
        mdcc_cluster.run()
        assert tx.waiter.woken

    def test_read_results_populated(self, mdcc_cluster):
        mdcc_cluster.load({"a": 41})
        session = PlanetSession(mdcc_cluster, "us_west")
        tx = session.transaction().read("a")
        run_tx(mdcc_cluster, tx, session)
        assert tx.read_results == {"a": 41}
        assert tx.stage is TxStage.COMMITTED

    def test_session_metrics_updated(self, mdcc_cluster):
        session = PlanetSession(mdcc_cluster, "us_west")
        tx = session.transaction().write("x", 5).with_guess_threshold(0.9)
        run_tx(mdcc_cluster, tx, session)
        assert session.metrics.counter("submitted") == 1
        assert session.metrics.counter("committed") == 1
        assert session.metrics.counter("guessed") == 1
        assert session.metrics.hist("commit_latency_ms").count == 1

    def test_default_timeout_and_threshold_applied(self, mdcc_cluster):
        config = PlanetConfig(default_guess_threshold=0.8, default_timeout_ms=900.0)
        session = PlanetSession(mdcc_cluster, "us_west", config=config)
        tx = session.transaction()
        assert tx.guess_threshold == 0.8
        assert tx.timeout_ms == 900.0


class TestWrongGuess:
    def _contend(self, threshold):
        """Force a wrong guess: poison the conflict stats to look clean, then
        race two writes so the guessed one aborts."""
        cluster = Cluster(ClusterConfig(seed=11, jitter_sigma=0.0))
        session_a = PlanetSession(cluster, "us_west")
        session_b = PlanetSession(
            cluster, "us_east", conflicts=session_a.conflicts, metrics=session_a.metrics
        )
        outcomes = []
        tx_a = (
            session_a.transaction()
            .write("x", 1)
            .with_guess_threshold(threshold)
            .on_guess(lambda t, p: outcomes.append(("guess_a", p)))
            .on_wrong_guess(lambda t: outcomes.append(("wrong_a", None)))
            .on_abort(lambda t: outcomes.append(("abort_a", None)))
        )
        tx_b = (
            session_b.transaction()
            .write("x", 2)
            .with_guess_threshold(threshold)
            .on_guess(lambda t, p: outcomes.append(("guess_b", p)))
            .on_wrong_guess(lambda t: outcomes.append(("wrong_b", None)))
            .on_abort(lambda t: outcomes.append(("abort_b", None)))
        )
        session_a.submit(tx_a)
        session_b.submit(tx_b)
        cluster.run()
        return tx_a, tx_b, outcomes, session_a

    def test_wrong_guess_fires_compensation_not_abort(self):
        tx_a, tx_b, outcomes, session = self._contend(threshold=0.5)
        # Both race; with symmetric split both abort.  Each tx that guessed
        # and aborted must see wrong_*, and not abort_*.
        for tx, tag in ((tx_a, "a"), (tx_b, "b")):
            if tx.was_guessed and not tx.committed:
                assert (f"wrong_{tag}", None) in outcomes
                assert (f"abort_{tag}", None) not in outcomes
            if not tx.was_guessed and not tx.committed:
                assert (f"abort_{tag}", None) in outcomes
        assert any(not tx.committed for tx in (tx_a, tx_b))

    def test_wrong_guess_counted_in_metrics(self):
        tx_a, tx_b, outcomes, session = self._contend(threshold=0.5)
        wrong = sum(1 for tx in (tx_a, tx_b) if tx.was_guessed and not tx.committed)
        assert session.metrics.counter("wrong_guesses") == wrong


class TestAdmissionControl:
    def test_rejected_transaction_aborts_immediately(self, mdcc_cluster):
        config = PlanetConfig(
            admission_policy=AdmissionPolicy.RANDOM, random_reject_rate=0.999999
        )
        session = PlanetSession(mdcc_cluster, "us_west", config=config)
        events = []
        tx = session.transaction().write("x", 1).on_abort(lambda t: events.append("abort"))
        session.submit(tx)
        assert tx.stage is TxStage.REJECTED
        assert tx.decision.reason is AbortReason.ADMISSION
        assert events == ["abort"]
        assert tx.waiter.woken
        assert session.metrics.counter("rejected_admission") == 1

    def test_likelihood_policy_rejects_doomed_keys(self, mdcc_cluster):
        config = PlanetConfig(
            admission_policy=AdmissionPolicy.LIKELIHOOD, admission_threshold=0.5
        )
        session = PlanetSession(mdcc_cluster, "us_west", config=config)
        for _ in range(50):
            session.conflicts.observe_outcome("hot", conflicted=True)
        tx = session.transaction().write("hot", 1)
        session.submit(tx)
        assert tx.stage is TxStage.REJECTED

    def test_likelihood_policy_admits_clean_keys(self, mdcc_cluster):
        config = PlanetConfig(
            admission_policy=AdmissionPolicy.LIKELIHOOD, admission_threshold=0.5
        )
        session = PlanetSession(mdcc_cluster, "us_west", config=config)
        tx = session.transaction().write("cold", 1)
        run_tx(mdcc_cluster, tx, session)
        assert tx.stage is TxStage.COMMITTED

    def test_none_policy_admits_everything(self):
        controller = AdmissionController(policy=AdmissionPolicy.NONE)
        assert controller.decide(0.0).admitted
        assert controller.reject_rate == 0.0

    def test_threshold_policy(self):
        controller = AdmissionController(
            policy=AdmissionPolicy.LIKELIHOOD, threshold=0.3
        )
        assert controller.decide(0.31).admitted
        assert not controller.decide(0.29).admitted
        assert controller.admitted_count == 1
        assert controller.rejected_count == 1

    def test_random_policy_rate(self):
        from random import Random

        controller = AdmissionController(
            policy=AdmissionPolicy.RANDOM, random_reject_rate=0.3, rng=Random(1)
        )
        for _ in range(2000):
            controller.decide(1.0)
        assert 0.25 < controller.reject_rate < 0.35

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            AdmissionController(threshold=1.5)
        with pytest.raises(ValueError):
            AdmissionController(random_reject_rate=1.0)


class TestTimeoutPath:
    def test_timeout_aborts_with_callbacks(self):
        cluster = Cluster(ClusterConfig(seed=5, jitter_sigma=0.0))
        from repro.net.partitions import PartitionWindow

        for dc in ("ireland", "singapore", "tokyo"):
            cluster.network.partitions.add_window(PartitionWindow(0.0, 10_000.0, dc_name=dc))
        session = PlanetSession(cluster, "us_west")
        events = []
        tx = (
            session.transaction()
            .write("x", 1)
            .with_timeout(300.0)
            .on_abort(lambda t: events.append("abort"))
        )
        run_tx(cluster, tx, session)
        assert tx.stage is TxStage.ABORTED
        assert tx.abort_reason is AbortReason.TIMEOUT
        assert events == ["abort"]


class TestTwoPcSession:
    def test_session_works_without_progress_seam(self, twopc_cluster):
        """Guessing silently disables on the baseline engine."""
        session = PlanetSession(twopc_cluster, "us_west")
        tx = session.transaction().write("x", 5).with_guess_threshold(0.5)
        run_tx(twopc_cluster, tx, session)
        assert tx.stage is TxStage.COMMITTED
        assert not tx.was_guessed
        assert tx.likelihood_trace == []

    def test_metrics_still_collected(self, twopc_cluster):
        session = PlanetSession(twopc_cluster, "us_west")
        tx = session.transaction().write("x", 5)
        run_tx(twopc_cluster, tx, session)
        assert session.metrics.counter("committed") == 1
