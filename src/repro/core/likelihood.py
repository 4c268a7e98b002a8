"""Commit-likelihood prediction from live protocol state.

The model answers: *given what the coordinator has seen so far, what is the
probability this transaction eventually commits?*  It composes three
ingredients, per written record:

1. **Vote state** — with ``a`` accepts of a ``q`` quorum from ``n`` replicas
   and ``r`` rejects, the record still needs ``q - a`` accepts from the
   ``n - a - r`` outstanding replicas; if rejects already make a quorum
   impossible the likelihood is zero.
2. **Conflict probabilities** — each outstanding replica accepts with
   probability ``1 - c(key)`` where ``c`` is the record's live conflict rate
   (see :mod:`repro.core.conflicts`).
3. **Deadline pressure** — an accept only helps if it arrives before the
   transaction's deadline.  Each outstanding replica's response time is
   modelled as a lognormal round trip; having already waited ``elapsed`` ms
   without a response, the probability it arrives in the remaining budget is
   the conditional tail ``(F(total) - F(elapsed)) / (1 - F(elapsed))``.

Per-record success is an exact Poisson-binomial tail (at most a handful of
replicas, so dynamic programming is exact and cheap), and the transaction
commits iff every record succeeds — records are independent because they run
independent Paxos instances.

Ablated variants (experiment A1): ``conflict_only`` drops ingredient 3;
``static_prior`` replaces per-record rates with one global constant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.config import Config
from repro.core.conflicts import ConflictTracker
from repro.mdcc.coordinator import ProgressSnapshot, RecordProgress
from repro.net.latency import LatencyModel, _norm_ppf
from repro.net.topology import Datacenter

_SQRT2 = math.sqrt(2.0)


@dataclass
class LikelihoodConfig(Config):
    """Model variant selection (the full model is the default)."""

    use_deadline: bool = True          # ingredient 3
    use_per_record_rates: bool = True  # ingredient 2 per-record vs static
    static_conflict_rate: float = 0.05
    # Replica rejections of an exclusive option are *correlated*: the
    # conflicting pending option is replicated at every replica.  The default
    # model therefore treats "this record conflicts" as a record-level event
    # and updates it Bayesianly as accept votes arrive; setting this False
    # falls back to independent per-replica conflicts (an A1 ablation arm).
    correlated_conflicts: bool = True
    # P(one replica accepts our option anyway | a conflictor is live): the
    # race "leak" — some replicas vote before the conflicting option lands.
    conflict_accept_leak: float = 0.35
    # Extra per-response overhead beyond the pure network RTT (WAL sync at
    # the replica); keeps the deadline model honest about total response time.
    response_overhead_ms: float = 1.0


def poisson_binomial_tail(probabilities: Sequence[float], at_least: int) -> float:
    """P(sum of independent Bernoulli(p_i) >= at_least), exact DP.

    Degenerate vectors are resolved without running the DP; each early-out
    returns the exact float the DP would have produced (0.0, 1.0, or —
    for ``at_least == n`` — the same left-to-right product the DP
    accumulates into ``dp[n]``), so results are bit-identical either way.
    """
    if at_least <= 0:
        return 1.0
    n = len(probabilities)
    if at_least > n:
        return 0.0
    any_success = False
    all_certain = True
    for p in probabilities:
        if p != 0.0:
            any_success = True
        if p != 1.0:
            all_certain = False
    if not any_success:
        return 0.0
    if all_certain:
        return 1.0
    if at_least == n:
        result = 1.0
        for p in probabilities:
            result *= p
        return result
    # dp[k] = P(exactly k successes) over the prefix processed so far.
    dp = [1.0] + [0.0] * n
    for p in probabilities:
        for k in range(len(dp) - 1, 0, -1):
            dp[k] = dp[k] * (1.0 - p) + dp[k - 1] * p
        dp[0] *= 1.0 - p
    return sum(dp[at_least:])


def _norm_ppf_clamped(q: float) -> float:
    """Standard normal inverse CDF, clamped away from the endpoints."""
    return _norm_ppf(min(max(q, 1e-9), 1.0 - 1e-9))


def _lognormal_cdf_logs(ln_x: float, ln_median: float, sigma: float) -> float:
    """Lognormal CDF at ``exp(ln_x)`` given ``log(median)`` (sigma > 0)."""
    z = (ln_x - ln_median) / sigma
    return 0.5 * (1.0 + math.erf(z / _SQRT2))


def _lognormal_cdf(x: float, median: float, sigma: float) -> float:
    """CDF of a lognormal parameterised by its median and shape sigma."""
    if x <= 0:
        return 0.0
    if sigma <= 0:
        return 1.0 if x >= median else 0.0
    return _lognormal_cdf_logs(math.log(x), math.log(median), sigma)


class CommitLikelihoodModel:
    """Evaluates commit likelihood for in-flight transactions.

    ``coordinator_dc`` anchors the response-time model: an outstanding reply
    from replica DC *d* is a round trip ``coordinator_dc -> d ->
    coordinator_dc``.
    """

    def __init__(
        self,
        conflicts: ConflictTracker,
        latency: LatencyModel,
        coordinator_dc: Datacenter,
        config: Optional[LikelihoodConfig] = None,
    ) -> None:
        self.conflicts = conflicts
        self.latency = latency
        self.coordinator_dc = coordinator_dc
        self.config = config if config is not None else LikelihoodConfig()
        # (median, log(median)) of the modelled RTT per replica-DC index.
        # Topology, coordinator placement, and the response overhead are all
        # fixed for the model's lifetime, so these never invalidate.
        self._rtt_params_by_dc: dict = {}

    # ------------------------------------------------------------------
    def _accept_probability(self, key: str) -> float:
        if self.config.use_per_record_rates:
            return 1.0 - self.conflicts.conflict_probability(key)
        return 1.0 - self.config.static_conflict_rate

    def _rtt_median_ms(self, replica_dc: Datacenter) -> float:
        return self._rtt_params(replica_dc)[0]

    def _rtt_params(self, replica_dc: Datacenter) -> tuple:
        """Cached ``(median, log(median))`` of the modelled round trip."""
        params = self._rtt_params_by_dc.get(replica_dc.index)
        if params is None:
            one_way = self.latency.topology.one_way_ms(self.coordinator_dc, replica_dc)
            median = 2.0 * one_way + self.config.response_overhead_ms
            params = self._rtt_params_by_dc[replica_dc.index] = (median, math.log(median))
        return params

    def _in_time_terms(
        self, outstanding_dcs: Sequence[Datacenter], elapsed_ms: float,
        remaining_ms: Optional[float],
    ) -> List[float]:
        """Per outstanding replica, P(response beats the deadline | not yet here)."""
        if not self.config.use_deadline or remaining_ms is None:
            return [1.0] * len(outstanding_dcs)
        if remaining_ms <= 0:
            return [0.0] * len(outstanding_dcs)
        total_ms = elapsed_ms + remaining_ms
        # A round trip is two lognormal legs; approximate the sum as a
        # lognormal with sigma scaled by 1/sqrt(2) (variance addition).
        sigma = self.latency.jitter_sigma / _SQRT2
        if sigma <= 0:
            # No jitter: the response lands exactly at the median round trip.
            return [
                1.0 if elapsed_ms < self._rtt_params(dc)[0] <= total_ms else 0.0
                for dc in outstanding_dcs
            ]
        # Every outstanding replica of a record has waited equally long.
        ln_elapsed = math.log(elapsed_ms) if elapsed_ms > 0 else None
        ln_total = math.log(total_ms)
        terms = []
        for dc in outstanding_dcs:
            ln_median = self._rtt_params(dc)[1]
            already = (
                0.0 if ln_elapsed is None
                else _lognormal_cdf_logs(ln_elapsed, ln_median, sigma)
            )
            if already >= 1.0 - 1e-12:
                # The response is overdue far beyond the distribution's
                # support; treat it as lost-or-slow, pessimistically.
                terms.append(0.0)
                continue
            by_deadline = _lognormal_cdf_logs(ln_total, ln_median, sigma)
            terms.append(max(0.0, min(1.0, (by_deadline - already) / (1.0 - already))))
        return terms

    # ------------------------------------------------------------------
    def record_likelihood(
        self, record: RecordProgress, now: float, deadline_at: Optional[float]
    ) -> float:
        """Probability that one record's option still gets chosen in time."""
        needed = record.quorum - record.accepts
        if needed <= 0:
            return 1.0
        if record.rejects > record.n - record.quorum:
            return 0.0
        if needed > len(record.outstanding_dcs):
            return 0.0
        elapsed = max(0.0, now - record.proposed_at)
        remaining = None if deadline_at is None else deadline_at - now
        in_time = self._in_time_terms(record.outstanding_dcs, elapsed, remaining)
        conflict_p = 1.0 - self._accept_probability(record.key)

        if self.config.correlated_conflicts:
            leak = self.config.conflict_accept_leak
            win_clean = poisson_binomial_tail(in_time, needed)
            win_conflicted = poisson_binomial_tail([leak * t for t in in_time], needed)
            if record.rejects == 0:
                # Bayes over the record-level conflict hypothesis: each
                # accept in hand is evidence against a live conflictor,
                # because under a conflict a replica accepts only with the
                # leak probability.
                evidence_conflict = conflict_p * (leak ** record.accepts)
                evidence_clean = 1.0 - conflict_p
                denominator = evidence_conflict + evidence_clean
                conflict_post = evidence_conflict / denominator if denominator > 0 else 1.0
            else:
                # A reject is near-certain proof of a conflictor; the open
                # question is whether this option races to quorum anyway.
                conflict_post = 1.0
            return (1.0 - conflict_post) * win_clean + conflict_post * win_conflicted

        per_replica = [(1.0 - conflict_p) * t for t in in_time]
        return poisson_binomial_tail(per_replica, needed)

    def likelihood(self, snapshot: ProgressSnapshot, now: float) -> float:
        """Commit likelihood of the whole transaction right now."""
        p = 1.0
        for record in snapshot.records:
            p *= self.record_likelihood(record, now, snapshot.deadline_at)
            if p == 0.0:
                break
        return p

    # ------------------------------------------------------------------
    # Commit-time prediction (the "latency-aware" half of the model)
    # ------------------------------------------------------------------
    def expected_decision_time(self, snapshot: ProgressSnapshot, now: float) -> float:
        """Expected absolute simulated time at which the decision lands.

        For each record still short of quorum, the decision waits for the
        ``needed``-th fastest outstanding response; we approximate each
        response's remaining time by the conditional median of its lognormal
        round trip given that ``elapsed`` ms have already passed, and take
        the transaction-level maximum over records.  Already-decided records
        contribute ``now``.  This powers progress bars and the use-case
        patterns that race a fallback against the predicted commit.
        """
        worst = now
        for record in snapshot.records:
            needed = record.quorum - record.accepts
            if needed <= 0:
                continue
            if needed > len(record.outstanding_dcs):
                # Doomed (or will be): the timeout decides, if there is one.
                if snapshot.deadline_at is not None:
                    worst = max(worst, snapshot.deadline_at)
                continue
            elapsed = max(0.0, now - record.proposed_at)
            remaining = sorted(
                self._conditional_median_remaining_ms(dc, elapsed)
                for dc in record.outstanding_dcs
            )
            worst = max(worst, now + remaining[needed - 1])
        if snapshot.deadline_at is not None:
            worst = min(worst, snapshot.deadline_at)
        return worst

    def _conditional_median_remaining_ms(self, replica_dc: Datacenter, elapsed_ms: float) -> float:
        """Median additional wait for a response that is ``elapsed_ms`` old."""
        median = self._rtt_median_ms(replica_dc)
        sigma = self.latency.jitter_sigma / _SQRT2
        if sigma <= 0:
            return max(median - elapsed_ms, 0.0)
        already = _lognormal_cdf(elapsed_ms, median, sigma)
        if already >= 1.0 - 1e-9:
            # Far beyond the distribution: the message is effectively lost;
            # report one more median as a shrug.
            return median
        # Median of the conditional distribution: the quantile at the
        # midpoint of the remaining mass.
        target = already + (1.0 - already) / 2.0
        z = _norm_ppf_clamped(target)
        value = median * math.exp(sigma * z)
        return max(value - elapsed_ms, 0.0)

    # ------------------------------------------------------------------
    def prior_likelihood(self, write_keys: Sequence[str]) -> float:
        """Pre-submission likelihood used by admission control.

        No votes exist yet, so only contention-scaled conflict priors apply
        (the deadline ingredient is close to 1 for sane timeouts and is
        deliberately ignored here, matching the paper's use of the predictor
        for admission).
        """
        p = 1.0
        for key in write_keys:
            if self.config.use_per_record_rates:
                hazard = self.conflicts.prior_conflict_probability(key)
            else:
                hazard = self.config.static_conflict_rate
            p *= 1.0 - hazard
        return p


class EmpiricalLikelihoodModel:
    """Likelihood learned from history instead of derived analytically.

    Maintains, per ``(accepts, rejects)`` vote state, the observed frequency
    with which a record in that state ended up chosen.  Per-record
    probabilities are combined multiplicatively as in the analytic model.
    This is calibrated by construction once enough history accumulates, at
    the cost of a cold start and no deadline awareness — one arm of the A1
    ablation.
    """

    def __init__(self, smoothing: float = 1.0) -> None:
        if smoothing <= 0:
            raise ValueError("smoothing must be positive")
        self.smoothing = smoothing
        self._chosen: dict = {}
        self._seen: dict = {}

    def observe(self, accepts: int, rejects: int, chosen: bool) -> None:
        """Record that a record once in state (a, r) was eventually chosen."""
        state = (accepts, rejects)
        self._seen[state] = self._seen.get(state, 0) + 1
        if chosen:
            self._chosen[state] = self._chosen.get(state, 0) + 1

    def record_likelihood(
        self, record: RecordProgress, now: float, deadline_at: Optional[float]
    ) -> float:
        needed = record.quorum - record.accepts
        if needed <= 0:
            return 1.0
        if record.rejects > record.n - record.quorum:
            return 0.0
        state = (record.accepts, record.rejects)
        seen = self._seen.get(state, 0)
        chosen = self._chosen.get(state, 0)
        # Laplace-smoothed toward an optimistic prior of 0.9: cold-start
        # guesses should not be wildly pessimistic.
        return (chosen + 0.9 * self.smoothing) / (seen + self.smoothing)

    def likelihood(self, snapshot: ProgressSnapshot, now: float) -> float:
        p = 1.0
        for record in snapshot.records:
            p *= self.record_likelihood(record, now, snapshot.deadline_at)
            if p == 0.0:
                break
        return p

    def prior_likelihood(self, write_keys: Sequence[str]) -> float:
        state = (0, 0)
        seen = self._seen.get(state, 0)
        chosen = self._chosen.get(state, 0)
        per_record = (chosen + 0.9 * self.smoothing) / (seen + self.smoothing)
        return per_record ** len(list(write_keys))
