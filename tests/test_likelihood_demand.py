"""The commit likelihood is evaluated only when someone reads it.

Deterministic call counts (no timing): at a transaction's first vote, then
per vote only while a guess is armed or ``on_progress`` is registered.
"""

from __future__ import annotations

from repro.cluster import Cluster, ClusterConfig
from repro.core.likelihood import CommitLikelihoodModel
from repro.core.session import PlanetSession
from repro.core.stages import TxStage
from repro.experiments.common import microbench_run
from repro.usecases.alternate import AlternateOnLowLikelihood


def count_calls(monkeypatch, name):
    """Wrap ``CommitLikelihoodModel.<name>``; returns the list of call args."""
    calls = []
    original = getattr(CommitLikelihoodModel, name)

    def counting(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(CommitLikelihoodModel, name, counting)
    return calls


def quiet(engine="mdcc"):
    cluster = Cluster(ClusterConfig(seed=81, engine=engine, jitter_sigma=0.0))
    return cluster, PlanetSession(cluster, "us_west")


def test_no_consumer_evaluates_once_at_first_vote(monkeypatch):
    evaluations = count_calls(monkeypatch, "likelihood")
    cluster, session = quiet()
    tx = session.transaction().write("x", 1)
    session.submit(tx)
    cluster.run()
    assert tx.committed
    assert len(evaluations) == 1
    assert tx.predicted_at_first_vote is not None
    assert [p for _, p in tx.likelihood_trace] == [tx.predicted_at_first_vote]


def test_armed_guess_evaluates_until_it_fires(monkeypatch):
    # The per-vote likelihoods of this deterministic transaction, to place a
    # threshold that only the third vote clears.
    cluster, session = quiet()
    climb = []
    session.submit(session.transaction().write("x", 1).on_progress(lambda t, p: climb.append(p)))
    cluster.run()
    assert climb[1] < climb[2]

    evaluations = count_calls(monkeypatch, "likelihood")
    cluster, session = quiet()
    tx = session.transaction().write("x", 1).with_guess_threshold(climb[2])
    session.submit(tx)
    cluster.run()
    assert tx.committed and tx.was_guessed
    assert len(evaluations) == 3
    assert [p for _, p in tx.likelihood_trace] == climb[:3]
    assert tx.likelihood_trace[-1] == (tx.stage_times[TxStage.GUESSED], tx.predicted_at_guess)


def test_progress_attached_by_use_case_fires_per_vote(monkeypatch):
    evaluations = count_calls(monkeypatch, "likelihood")
    cluster, session = quiet()
    pattern = AlternateOnLowLikelihood(session, build_alternate=lambda tx: None)
    seen = []
    tx = session.transaction().write("x", 1).on_progress(lambda t, p: seen.append(p))
    pattern.run(tx)
    cluster.run()
    assert tx.committed and pattern.switched == 0
    # Fast quorum is 4 of 5; the coordinator forgets the tx at the decision.
    assert len(seen) == len(evaluations) == len(tx.likelihood_trace) == 4


def test_progress_registered_after_first_vote_still_fires(monkeypatch):
    evaluations = count_calls(monkeypatch, "likelihood")
    cluster, session = quiet()
    tx = session.transaction().write("x", 1)
    session.submit(tx)
    cluster.run(until=10.0)  # the local replica has voted, the remote ones not
    assert len(tx.likelihood_trace) == 1 and not tx.stage.terminal
    seen = []
    tx.on_progress(lambda t, p: seen.append(p))
    cluster.run()
    assert len(seen) == 3
    assert len(evaluations) == 4


def test_twopc_engine_evaluates_nothing(monkeypatch):
    evaluations = count_calls(monkeypatch, "likelihood")
    cluster, session = quiet(engine="twopc")
    seen = []
    tx = (
        session.transaction()
        .write("x", 1)
        .with_guess_threshold(0.5)
        .on_progress(lambda t, p: seen.append(p))
    )
    session.submit(tx)
    cluster.run()
    assert tx.committed
    assert evaluations == [] and seen == [] and tx.likelihood_trace == []
    assert tx.predicted_at_first_vote is None


def test_plain_mdcc_evaluates_each_record_at_most_once(monkeypatch):
    """Guard against the per-vote evaluation (16 per transaction) returning."""
    record_evaluations = count_calls(monkeypatch, "record_likelihood")
    result = microbench_run(
        seed=0, n_keys=500, rate_tps=5.0, clients_per_dc=2,
        duration_ms=5_000.0, warmup_ms=500.0, guess_threshold=None,
    )
    transactions = result.all_transactions
    assert len(transactions) >= 200
    assert all(len(tx.likelihood_trace) <= 1 for tx in transactions)
    voted = [tx for tx in transactions if tx.likelihood_trace]
    assert len(voted) >= 200
    assert 0 < len(record_evaluations) <= sum(len(tx.writes) for tx in voted)
