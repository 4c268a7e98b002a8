"""The lean vote path returns the floats and snapshots the per-vote one did.

``reference_record_likelihood`` is the pre-hoisting composition, frozen
here: one lognormal CDF pair per outstanding replica, each taking its own
logs.  The model must equal it with ``==``, not ``approx``.  The pinned
numbers at the bottom were computed on the commit before the change, and
re-pinned once when MDCC moved to one vote message per replica (one
likelihood evaluation per message).
"""

from __future__ import annotations

import pytest

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, ClusterConfig
from repro.core.conflicts import ConflictTracker
from repro.core.likelihood import (
    CommitLikelihoodModel,
    LikelihoodConfig,
    poisson_binomial_tail,
)
from repro.core.session import PlanetConfig
from repro.experiments.common import microbench_run
from repro.mdcc.coordinator import RecordProgress
from repro.net.latency import LatencyModel
from repro.net.topology import EC2_FIVE_DC
from repro.ops import TxEvents, TxRequest, WriteOp

_SQRT2 = math.sqrt(2.0)


def _lognormal_cdf(x, median, sigma):
    if x <= 0:
        return 0.0
    if sigma <= 0:
        return 1.0 if x >= median else 0.0
    z = (math.log(x) - math.log(median)) / sigma
    return 0.5 * (1.0 + math.erf(z / _SQRT2))


def _lognormal_cdf_ln(x, ln_median, sigma):
    if x <= 0:
        return 0.0
    z = (math.log(x) - ln_median) / sigma
    return 0.5 * (1.0 + math.erf(z / _SQRT2))


def _reference_in_time(model, replica_dc, elapsed_ms, remaining_ms):
    if not model.config.use_deadline or remaining_ms is None:
        return 1.0
    if remaining_ms <= 0:
        return 0.0
    one_way = model.latency.topology.one_way_ms(model.coordinator_dc, replica_dc)
    median = 2.0 * one_way + model.config.response_overhead_ms
    ln_median = math.log(median)
    sigma = model.latency.jitter_sigma / _SQRT2
    if sigma > 0:
        already = _lognormal_cdf_ln(elapsed_ms, ln_median, sigma)
    else:
        already = _lognormal_cdf(elapsed_ms, median, sigma)
    if already >= 1.0 - 1e-12:
        return 0.0
    if sigma > 0:
        by_deadline = _lognormal_cdf_ln(elapsed_ms + remaining_ms, ln_median, sigma)
    else:
        by_deadline = _lognormal_cdf(elapsed_ms + remaining_ms, median, sigma)
    return max(0.0, min(1.0, (by_deadline - already) / (1.0 - already)))


def reference_record_likelihood(model, record, now, deadline_at):
    config = model.config
    needed = record.quorum - record.accepts
    if needed <= 0:
        return 1.0
    if record.rejects > record.n - record.quorum:
        return 0.0
    if needed > len(record.outstanding_dcs):
        return 0.0
    elapsed = max(0.0, now - record.proposed_at)
    remaining = None if deadline_at is None else deadline_at - now
    in_time = [
        _reference_in_time(model, dc, elapsed, remaining) for dc in record.outstanding_dcs
    ]
    if config.use_per_record_rates:
        conflict_p = 1.0 - (1.0 - model.conflicts.conflict_probability(record.key))
    else:
        conflict_p = 1.0 - (1.0 - config.static_conflict_rate)
    if config.correlated_conflicts:
        leak = config.conflict_accept_leak
        win_clean = poisson_binomial_tail(in_time, needed)
        win_conflicted = poisson_binomial_tail([leak * t for t in in_time], needed)
        if record.rejects == 0:
            evidence_conflict = conflict_p * (leak ** record.accepts)
            evidence_clean = 1.0 - conflict_p
            denominator = evidence_conflict + evidence_clean
            conflict_post = evidence_conflict / denominator if denominator > 0 else 1.0
        else:
            conflict_post = 1.0
        return (1.0 - conflict_post) * win_clean + conflict_post * win_conflicted
    return poisson_binomial_tail([(1.0 - conflict_p) * t for t in in_time], needed)


A1_ARMS = (
    LikelihoodConfig(),
    LikelihoodConfig(use_deadline=False),
    LikelihoodConfig(correlated_conflicts=False),
    LikelihoodConfig(use_per_record_rates=False),
)

# Every modelled round-trip median (coordinator x replica DC, default overhead).
_MEDIANS = sorted(
    {
        2.0 * EC2_FIVE_DC.one_way_ms(a, b) + LikelihoodConfig().response_overhead_ms
        for a in EC2_FIVE_DC.datacenters
        for b in EC2_FIVE_DC.datacenters
    }
)
# Waits of exactly zero, exactly a median (the zero-jitter step), a small
# multiple of one (the CDF's body and, near 2.5x at the default jitter, the
# "overdue" cut-off), and far beyond all of them.
_waits = st.one_of(
    st.just(0.0),
    st.sampled_from(_MEDIANS),
    st.builds(float.__mul__, st.sampled_from(_MEDIANS), st.floats(0.25, 4.0)),
    st.floats(min_value=0.0, max_value=1e6),
)


@settings(max_examples=400, deadline=None)
@given(
    config=st.sampled_from(A1_ARMS),
    coordinator=st.sampled_from(EC2_FIVE_DC.datacenters),
    jitter=st.one_of(st.just(0.0), st.just(0.2), st.floats(min_value=0.0, max_value=1.5)),
    votes=st.lists(st.sampled_from("+-?"), min_size=5, max_size=5),
    quorum=st.sampled_from((3, 4)),
    history=st.lists(st.booleans(), max_size=12),
    proposed_at=st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e5)),
    elapsed=_waits,
    remaining=st.one_of(st.none(), st.just(0.0), st.floats(-50.0, 0.0), _waits),
)
@example(  # zero jitter, deadline exactly at a replica's modelled response
    config=A1_ARMS[0], coordinator=EC2_FIVE_DC.datacenters[0], jitter=0.0, votes=list("+????"),
    quorum=3, history=[], proposed_at=0.0, elapsed=0.0, remaining=116.0,  # us_west-tokyo
)
@example(  # zero jitter, evaluated exactly when a response is due
    config=A1_ARMS[0], coordinator=EC2_FIVE_DC.datacenters[0], jitter=0.0, votes=list("+????"),
    quorum=4, history=[], proposed_at=0.0, elapsed=116.0, remaining=500.0,
)
def test_record_likelihood_is_bit_identical_to_the_per_replica_composition(
    config, coordinator, jitter, votes, quorum, history, proposed_at, elapsed, remaining
):
    conflicts = ConflictTracker()
    for conflicted in history:
        conflicts.observe_outcome("k", conflicted)
    model = CommitLikelihoodModel(
        conflicts=conflicts,
        latency=LatencyModel(EC2_FIVE_DC, jitter_sigma=jitter),
        coordinator_dc=coordinator,
        config=config,
    )
    record = RecordProgress(
        key="k",
        accepts=votes.count("+"),
        rejects=votes.count("-"),
        quorum=quorum,
        n=5,
        outstanding_dcs=tuple(
            dc for dc, vote in zip(EC2_FIVE_DC.datacenters, votes) if vote == "?"
        ),
        proposed_at=proposed_at,
    )
    now = proposed_at + elapsed
    deadline_at = None if remaining is None else now + remaining
    expected = reference_record_likelihood(model, record, now, deadline_at)
    assert model.record_likelihood(record, now, deadline_at) == expected


def test_progress_reports_outstanding_replicas_in_sorted_id_order():
    cluster = Cluster(ClusterConfig(seed=7, engine="mdcc", jitter_sigma=0.0))
    coordinator = cluster.coordinator("us_west")
    snapshots = []

    class Snapshotter(TxEvents):
        def on_commit_started(self, request, now):
            snapshots.append(coordinator.progress(request.txid))

        def on_votes(self, request, votes, now):
            snapshots.append(coordinator.progress(request.txid))

    coordinator.execute(
        TxRequest(
            txid="t1",
            writes=[WriteOp("x", 1, read_version=0), WriteOp("y", 2, read_version=0)],
            deadline_ms=700.0,
        ),
        Snapshotter(),
    )
    cluster.run()

    # Replica ids are "store:<dc>", so id order is alphabetical by DC name —
    # not the topology's index order.
    by_id = ["ireland", "singapore", "tokyo", "us_east", "us_west"]
    expected = {  # vote messages seen -> (accepts, outstanding) of records x and y
        0: [(0, by_id), (0, by_id)],
        1: [(1, by_id[:4]), (1, by_id[:4])],
        2: [(2, by_id[:3]), (2, by_id[:3])],
    }
    for messages, records in expected.items():
        snapshot = snapshots[messages]
        assert (snapshot.txid, snapshot.submitted_at, snapshot.deadline_at) == ("t1", 0.0, 700.0)
        assert len(snapshot.records) == 2
        for record, key, (accepts, outstanding) in zip(snapshot.records, "xy", records):
            assert (record.key, record.accepts, record.rejects) == (key, accepts, 0)
            assert (record.quorum, record.n, record.proposed_at) == (4, 5, 0.0)
            assert [dc.name for dc in record.outstanding_dcs] == outstanding


def _hot_set_run(seed=0, **overrides):
    """The f8/a1 workload shape, shortened."""
    return microbench_run(
        seed=seed, n_keys=2_000, hot_keys=24, hot_fraction=0.5, rate_tps=8.0,
        clients_per_dc=2, timeout_ms=2_000.0, **overrides,
    )


def _first_vote_calibration(seed):
    result = _hot_set_run(
        seed, duration_ms=10_000.0, warmup_ms=1_500.0, guess_threshold=None
    )
    return result.calibration(at="first_vote")


def test_first_vote_calibration_pinned():
    bins = _first_vote_calibration(seed=0)
    assert [row.count for row in bins.rows()] == [238, 0, 0, 0, 2, 16, 80, 131, 126, 78]
    assert bins.expected_calibration_error() == 0.047414295762120896


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_first_vote_calibration_error_is_bounded(seed):
    """Votes from one replica arrive together, so a record's outcomes are
    correlated; the Poisson-binomial assumes they are not.  Hold the
    first-vote ECE of the hot-set run to a bound, not only to a pin."""
    assert _first_vote_calibration(seed).expected_calibration_error() <= 0.06


def test_guess_rates_pinned_for_analytic_and_empirical_models():
    run = dict(duration_ms=8_000.0, warmup_ms=1_200.0, guess_threshold=0.95)
    full = _hot_set_run(planet=PlanetConfig(likelihood=LikelihoodConfig()), **run)
    assert full.wrong_guess_rate() == 0.07051282051282051
    assert full.guessed_fraction() == 0.5672727272727273
    # The one arm that consumes ``SpeculationManager.state_history``.
    empirical = _hot_set_run(planet=PlanetConfig(use_empirical_model=True), **run)
    assert empirical.wrong_guess_rate() == 0.03333333333333333
    assert empirical.guessed_fraction() == 0.5454545454545454
