"""Focused tests on speculation-manager behaviour and TxEvents defaults."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.core.session import PlanetConfig, PlanetSession
from repro.core.stages import TxStage
from repro.ops import Decision, Outcome, TxEvents, TxRequest


class TestTxEventsDefaults:
    def test_base_hooks_are_noops(self):
        events = TxEvents()
        request = TxRequest(txid="t")
        events.on_reads_complete(request, 0.0)
        events.on_commit_started(request, 0.0)
        events.on_votes(request, (("k", True),), 0.0)
        events.on_decided(request, Decision("t", Outcome.COMMITTED))


@pytest.fixture
def quiet():
    cluster = Cluster(ClusterConfig(seed=81, jitter_sigma=0.0))
    return cluster, PlanetSession(cluster, "us_west")


class TestGuessSemantics:
    def test_guess_fires_exactly_once(self, quiet):
        cluster, session = quiet
        guesses = []
        tx = (
            session.transaction()
            .write("x", 1)
            .with_guess_threshold(0.5)  # every vote clears the bar
            .on_guess(lambda t, p: guesses.append(p))
        )
        session.submit(tx)
        cluster.run()
        assert len(guesses) == 1

    def test_no_guess_without_threshold(self, quiet):
        cluster, session = quiet
        tx = session.transaction().write("x", 1)
        session.submit(tx)
        cluster.run()
        assert not tx.was_guessed
        assert tx.predicted_at_guess is None

    def test_threshold_one_requires_certainty(self, quiet):
        cluster, session = quiet
        tx = session.transaction().write("x", 1).with_guess_threshold(1.0)
        session.submit(tx)
        cluster.run()
        assert tx.committed
        # p reaches exactly 1.0 only when the quorum is complete, which is
        # the same instant the decision fires — the guess happens at the
        # final vote (or not at all), never early.
        if tx.was_guessed:
            assert tx.guess_latency_ms() == pytest.approx(tx.commit_latency_ms())

    def test_progress_fires_per_vote(self, quiet):
        cluster, session = quiet
        progresses = []
        tx = (
            session.transaction()
            .write("x", 1)
            .on_progress(lambda t, p: progresses.append(p))
        )
        session.submit(tx)
        cluster.run()
        # Fast quorum needs 4 of 5 votes; the coordinator forgets the tx at
        # decision, so exactly 4 progress callbacks fire.
        assert len(progresses) == 4
        assert progresses == sorted(progresses)  # clean run: monotone

    def test_first_vote_prediction_recorded_once(self, quiet):
        cluster, session = quiet
        tx = session.transaction().write("x", 1)
        session.submit(tx)
        cluster.run()
        assert tx.predicted_at_first_vote is not None
        assert tx.likelihood_trace[0][1] == tx.predicted_at_first_vote

    def test_multi_key_likelihood_lower_than_single(self, quiet):
        cluster, session = quiet
        single = session.transaction().write("a", 1)
        double = session.transaction().write("b", 1).write("c", 1)
        session.submit(single)
        session.submit(double)
        cluster.run()
        # More records at the same vote progress means more residual risk.
        assert double.predicted_at_first_vote < single.predicted_at_first_vote


class TestConflictObservationRules:
    def test_chosen_records_observed_clean(self, quiet):
        cluster, session = quiet
        tx = session.transaction().write("fresh", 1)
        session.submit(tx)
        cluster.run()
        # The decided commit recorded a non-conflict observation.
        assert session.conflicts.conflict_probability("fresh") <= 0.02

    def test_doomed_record_raises_rate(self):
        cluster = Cluster(ClusterConfig(seed=82, jitter_sigma=0.0))
        session = PlanetSession(cluster, "us_west")
        other = PlanetSession(cluster, "us_east", conflicts=session.conflicts)
        baseline = session.conflicts.conflict_probability("hot")
        for i in range(6):
            a = session.transaction().write("hot", i)
            b = other.transaction().write("hot", -i)
            session.submit(a)
            other.submit(b)
            cluster.run()
        assert session.conflicts.conflict_probability("hot") > baseline

    def test_timeout_without_votes_teaches_nothing(self):
        from repro.net.partitions import PartitionWindow

        cluster = Cluster(ClusterConfig(seed=83, jitter_sigma=0.0))
        for dc in cluster.datacenter_names:
            cluster.network.partitions.add_window(
                PartitionWindow(0.0, 1e9, dc_name=dc)
            )
        session = PlanetSession(cluster, "us_west")
        before = session.conflicts.conflict_probability("isolated")
        tx = session.transaction().write("isolated", 1).with_timeout(200.0)
        session.submit(tx)
        cluster.run()
        assert tx.stage is TxStage.ABORTED
        assert session.conflicts.conflict_probability("isolated") == before
