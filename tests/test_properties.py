"""Property-based tests (hypothesis) on core data structures and invariants."""

from __future__ import annotations

import itertools
import math
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.conflicts import ConflictTracker
from repro.core.likelihood import CommitLikelihoodModel, LikelihoodConfig, poisson_binomial_tail
from repro.core.errors import InvalidTransition
from repro.core.stages import TxStage, check_transition
from repro.mdcc.coordinator import RecordProgress
from repro.net.latency import LatencyModel, _norm_ppf
from repro.net.topology import EC2_FIVE_DC
from repro.paxos.acceptor import OptionAcceptor
from repro.paxos.ballot import Ballot, classic_quorum, fast_quorum
from repro.paxos.learner import QuorumTracker
from repro.sim.events import EventQueue
from repro.stats.histogram import LatencyCdf


class TestEventQueueProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=200))
    def test_pops_in_nondecreasing_time_order(self, times):
        queue = EventQueue()
        for t in times:
            queue.push(t, lambda: None)
        popped = []
        while True:
            event = queue.pop()
            if event is None:
                break
            popped.append(event.time)
        assert popped == sorted(popped)
        assert len(popped) == len(times)


class TestQuorumProperties:
    @given(st.integers(min_value=1, max_value=100))
    def test_fast_quorum_intersection_safety(self, n):
        """Two fast quorums always intersect in a classic quorum."""
        assert 2 * fast_quorum(n) - n >= classic_quorum(n)

    @given(st.integers(min_value=1, max_value=100))
    def test_two_classic_quorums_intersect(self, n):
        assert 2 * classic_quorum(n) > n

    @given(st.integers(min_value=1, max_value=100))
    def test_fast_at_least_classic(self, n):
        assert classic_quorum(n) <= fast_quorum(n) <= n


class TestLearnerProperties:
    @given(
        st.lists(
            st.tuples(st.sampled_from("abcde"), st.booleans()),
            min_size=0,
            max_size=30,
        )
    )
    def test_never_both_chosen_and_doomed(self, votes):
        tracker = QuorumTracker(5, fast_quorum(5))
        for acceptor_id, accepted in votes:
            tracker.add_vote(acceptor_id, accepted)
        assert not (tracker.chosen and tracker.doomed)
        assert tracker.accepts + tracker.rejects + tracker.outstanding() == 5
        assert 0 <= tracker.accepts <= 5
        assert 0 <= tracker.rejects <= 5


class TestAcceptorProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),   # ballot counter
                st.sampled_from(["p", "q"]),             # proposer
                st.booleans(),                           # prepare or accept
            ),
            max_size=40,
        )
    )
    def test_promise_is_monotone(self, operations):
        """The promised ballot never decreases over any operation sequence."""
        acceptor = OptionAcceptor("k")
        last_promised = None
        for counter, proposer, is_prepare in operations:
            ballot = Ballot(counter, proposer)
            if is_prepare:
                acceptor.handle_prepare(ballot)
            else:
                acceptor.handle_accept(ballot, f"tx-{counter}", "opt", lambda o: (True, ""))
            if acceptor.promised is not None and last_promised is not None:
                assert not acceptor.promised < last_promised
            last_promised = acceptor.promised


class TestPoissonBinomialProperties:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=0, max_size=8),
        st.integers(min_value=0, max_value=9),
    )
    def test_matches_bruteforce(self, ps, at_least):
        expected = 0.0
        for outcome in itertools.product([0, 1], repeat=len(ps)):
            if sum(outcome) >= at_least:
                probability = 1.0
                for bit, p in zip(outcome, ps):
                    probability *= p if bit else (1.0 - p)
                expected += probability
        assert poisson_binomial_tail(ps, at_least) == pytest.approx(expected, abs=1e-9)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8))
    def test_tail_monotone_in_threshold(self, ps):
        tails = [poisson_binomial_tail(ps, k) for k in range(len(ps) + 2)]
        for a, b in zip(tails, tails[1:]):
            assert a >= b - 1e-12


class TestLikelihoodProperties:
    @given(
        accepts=st.integers(min_value=0, max_value=5),
        rejects=st.integers(min_value=0, max_value=5),
        conflict=st.floats(min_value=0.0, max_value=1.0),
        deadline=st.one_of(st.none(), st.floats(min_value=1.0, max_value=10_000.0)),
    )
    @settings(max_examples=200)
    def test_record_likelihood_is_probability(self, accepts, rejects, conflict, deadline):
        if accepts + rejects > 5:
            rejects = 5 - accepts
        conflicts = ConflictTracker(prior=conflict, prior_strength=1.0)
        model = CommitLikelihoodModel(
            conflicts=conflicts,
            latency=LatencyModel(EC2_FIVE_DC, jitter_sigma=0.2),
            coordinator_dc=EC2_FIVE_DC.datacenter("us_west"),
        )
        outstanding = tuple(EC2_FIVE_DC.datacenters[: 5 - accepts - rejects])
        record = RecordProgress(
            key="k", accepts=accepts, rejects=rejects, quorum=4, n=5,
            outstanding_dcs=outstanding, proposed_at=0.0,
        )
        p = model.record_likelihood(record, now=10.0, deadline_at=deadline)
        assert 0.0 <= p <= 1.0
        if rejects > 1:
            assert p == 0.0
        if accepts >= 4:
            assert p == 1.0


def _legal(src: TxStage, dst: TxStage) -> bool:
    try:
        check_transition(src, dst)
    except InvalidTransition:
        return False
    return True


class TestStageMachineProperties:
    @given(st.lists(st.sampled_from(list(TxStage)), max_size=20))
    def test_random_walks_stay_legal(self, proposals):
        """Following only allowed edges never reaches an illegal state, and
        terminal states really are terminal."""
        stage = TxStage.CREATED
        for proposal in proposals:
            if _legal(stage, proposal):
                assert not stage.terminal
                stage = proposal
        # If we ended terminal, no outgoing edges exist.
        if stage.terminal:
            assert not any(_legal(stage, other) for other in TxStage)


class TestQuantileProperties:
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=300,
        ),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_sketch_matches_numpy(self, samples, q):
        cdf = LatencyCdf()
        cdf.extend(samples)
        assert cdf.percentile(100.0 * q) == pytest.approx(
            float(np.quantile(samples, q)), rel=1e-6, abs=1e-6
        )


class TestNormPpfProperties:
    @given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
    def test_inverse_of_normal_cdf(self, q):
        z = _norm_ppf(q)
        cdf = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
        assert cdf == pytest.approx(q, abs=1e-6)


class TestConflictTrackerProperties:
    @given(st.lists(st.tuples(st.sampled_from("xyz"), st.booleans()), max_size=200))
    def test_rates_stay_probabilities(self, observations):
        tracker = ConflictTracker()
        for key, conflicted in observations:
            tracker.observe_outcome(key, conflicted)
        for key in "xyz":
            assert 0.0 <= tracker.conflict_probability(key) <= 1.0
            assert 0.0 <= tracker.prior_conflict_probability(key) <= 1.0
