"""A PLANET session: one application's connection to a coordinator.

The session owns the per-client PLANET machinery — conflict statistics,
likelihood model, admission controller, metrics — and drives transactions
through: admission check, engine submission with a
:class:`~repro.core.speculation.SpeculationManager` attached, and bookkeeping
at completion.

The session works against either engine.  The baseline 2PC coordinator has
no ``progress()`` seam, so likelihood evaluation (and therefore guessing)
silently disables itself there — the session still measures latencies and
outcomes, which is exactly what the baseline comparisons need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.config import Config
from repro.core.admission import (
    AdmissionAction,
    AdmissionController,
    AdmissionPolicy,
    check_admission_settings,
)
from repro.core.conflicts import ConflictTracker
from repro.core.likelihood import (
    CommitLikelihoodModel,
    EmpiricalLikelihoodModel,
    LikelihoodConfig,
)
from repro.core.stages import TxStage
from repro.core.speculation import SpeculationManager
from repro.core.transaction import PlanetTransaction, check_guess_threshold, check_timeout
from repro.obs.metrics import MetricsRegistry
from repro.ops import AbortReason, Decision, Outcome, validate_isolation
from repro.paxos.ballot import classic_quorum, fast_quorum
from repro.sim.process import Waiter


@dataclass
class PlanetConfig(Config):
    """Session-level PLANET configuration."""

    likelihood: LikelihoodConfig = field(default_factory=LikelihoodConfig)
    admission_policy: AdmissionPolicy = AdmissionPolicy.NONE
    admission_threshold: float = 0.3
    random_reject_rate: float = 0.0
    admission_delay_ms: float = 100.0
    admission_max_delays: int = 3
    # Session guarantee: reads observe this session's own committed
    # exclusive writes (the engine re-reads until the local replica caught
    # up).  Commutative deltas are excluded — their assigned version is not
    # knowable at the session — and documented as eventually visible.
    read_your_writes: bool = False
    # Default isolation contract for this session's transactions (see
    # repro.ops.ISOLATION_LEVELS); transactions override it per-tx with
    # PlanetTransaction.with_isolation.  "serializable" is byte-for-byte
    # the engine's historical behaviour.
    isolation: str = "serializable"
    default_guess_threshold: Optional[float] = None
    default_timeout_ms: Optional[float] = None
    use_empirical_model: bool = False

    def __post_init__(self) -> None:
        check_admission_settings(
            self.admission_threshold,
            self.random_reject_rate,
            self.admission_delay_ms,
            self.admission_max_delays,
        )
        validate_isolation(self.isolation)
        if self.default_guess_threshold is not None:
            check_guess_threshold(self.default_guess_threshold, "default_guess_threshold")
        if self.default_timeout_ms is not None:
            check_timeout(self.default_timeout_ms, "default_timeout_ms")


class PlanetSession:
    def __init__(
        self,
        cluster,
        dc_name: str,
        config: Optional[PlanetConfig] = None,
        metrics: Optional[MetricsRegistry] = None,
        conflicts: Optional[ConflictTracker] = None,
    ) -> None:
        self.cluster = cluster
        self.dc_name = dc_name
        self.config = config if config is not None else PlanetConfig()
        self.sim = cluster.sim
        self.coordinator = cluster.coordinator(dc_name)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Conflict statistics may be shared across sessions (all app servers
        # in a DC — or in the experiment, the whole deployment — feed one
        # tracker, as the paper's predictor aggregates system-wide stats).
        self.conflicts = conflicts if conflicts is not None else ConflictTracker()
        self.likelihood_model = CommitLikelihoodModel(
            conflicts=self.conflicts,
            latency=cluster.latency,
            coordinator_dc=self.coordinator.datacenter,
            config=self.config.likelihood,
        )
        self.empirical_model: Optional[EmpiricalLikelihoodModel] = (
            EmpiricalLikelihoodModel() if self.config.use_empirical_model else None
        )
        self.admission = AdmissionController(
            policy=self.config.admission_policy,
            threshold=self.config.admission_threshold,
            random_reject_rate=self.config.random_reject_rate,
            delay_ms=self.config.admission_delay_ms,
            max_delays=self.config.admission_max_delays,
            rng=self.sim.rng.stream(f"admission:{dc_name}"),
        )
        # Stable per-cluster session identity, recorded on every history
        # event so the offline checker can verify per-session guarantees.
        self.session_id = cluster.next_session_id(dc_name)
        self.finished: List[PlanetTransaction] = []
        # Per-key committed-version watermarks for read-your-writes.
        self._write_watermarks: Dict[str, int] = {}
        # Per-key highest version this session has read — the monotonic
        # floor for monotonic-session transactions.  Only maintained when
        # such transactions run, so serializable sessions are untouched.
        self._read_watermarks: Dict[str, int] = {}
        n = len(cluster.replica_ids)
        self.record_quorum = (
            fast_quorum(n) if getattr(cluster.config, "use_fast_path", True) else classic_quorum(n)
        )
        self._engine_has_progress = hasattr(self.coordinator, "progress")

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def transaction(self) -> PlanetTransaction:
        tx = PlanetTransaction(self.cluster.mint_txid())
        if self.config.default_timeout_ms is not None:
            tx.timeout_ms = self.config.default_timeout_ms
        if self.config.default_guess_threshold is not None:
            tx.guess_threshold = self.config.default_guess_threshold
        return tx

    def submit(self, tx: PlanetTransaction) -> PlanetTransaction:
        """Run the transaction; callbacks fire as the simulation advances."""
        if tx.txid is None:
            tx.txid = self.cluster.mint_txid()
        tx.waiter = Waiter()
        self.metrics.inc("submitted")
        gm = self.sim.metrics
        if gm.enabled:
            gm.inc("planet.submitted", dc=self.dc_name)
        tracer = self.sim.tracer
        if "history" in tracer.live:
            # ``wkeys`` is the declared write set (comma-joined, sorted).
            # The checker needs it for transactions that never reach a
            # decision record — their writes may have installed invisibly
            # (orphan recovery), so their keys are excused from strict
            # version-chain checking.
            fields = dict(
                txid=tx.txid, session=self.session_id,
                ryw=self.config.read_your_writes,
                reads=len(tx.reads), writes=len(tx.writes),
                wkeys=",".join(sorted(op.key for op in tx.writes)),
            )
            # The declared level rides on the begin record for the checker
            # and predictor.  Serializable is implied when absent, which
            # keeps pre-isolation history digests byte-identical.
            isolation = self.effective_isolation(tx)
            if isolation != "serializable":
                fields["iso"] = isolation
            tracer.emit(self.sim.now, "history", "begin", **fields)
        self._attempt_admission(tx, previous_delays=0)
        return tx

    def effective_isolation(self, tx: PlanetTransaction) -> str:
        """The isolation contract ``tx`` runs under (override or default)."""
        return tx.isolation if tx.isolation is not None else self.config.isolation

    def _attempt_admission(self, tx: PlanetTransaction, previous_delays: int) -> None:
        prior = self._prior_likelihood(tx)
        decision = self.admission.decide(prior, previous_delays=previous_delays)
        tracer = self.sim.tracer
        if "admission" in tracer.live:
            tracer.emit(
                self.sim.now, "admission", decision.action.value,
                txid=tx.txid, prior=prior, policy=decision.policy.value,
                attempt=previous_delays,
            )
        if decision.action is AdmissionAction.REJECT:
            self._reject(tx)
            return
        if decision.action is AdmissionAction.DELAY:
            # Hold the transaction back; hot records cool as their in-flight
            # writers decide, so the prior improves on the next attempt.
            self.metrics.inc("delayed_admission")
            gm = self.sim.metrics
            if gm.enabled:
                gm.inc("planet.admission_delays", dc=self.dc_name)
            self.sim.schedule(
                decision.delay_ms, self._attempt_admission, tx, previous_delays + 1
            )
            return
        manager = SpeculationManager(tx, self)
        tx.transition(TxStage.READING, self.sim.now)
        manager.note_stage(TxStage.READING, self.sim.now)
        for op in tx.writes:
            self.conflicts.register_inflight(op.key)
        request = tx.to_request()
        request.isolation = self.effective_isolation(tx)
        if self.config.read_your_writes and self._write_watermarks:
            touched = set(request.reads) | set(request.write_keys)
            request.min_versions = {
                key: self._write_watermarks[key]
                for key in touched
                if key in self._write_watermarks
            }
        if request.isolation == "monotonic-session" and self._read_watermarks:
            # Session guarantee: this transaction's reads must not go
            # backwards relative to what the session has already read.
            # The engine's min_versions re-read loop waits for the local
            # replica to catch up to the floor.
            for key in request.reads:
                floor = self._read_watermarks.get(key)
                if floor is not None and floor > request.min_versions.get(key, 0):
                    request.min_versions[key] = floor
        self.coordinator.execute(request, manager)

    def abort(self, tx: PlanetTransaction) -> bool:
        """Application-initiated abort of an in-flight transaction.

        Returns True if the abort took effect (the ``on_abort`` — or, for a
        guessed transaction, ``on_wrong_guess`` — callback fires through the
        normal decision path); False when the transaction already decided.
        """
        if tx.decision is not None or tx.stage.terminal:
            return False
        return self.coordinator.abort(tx.txid)

    # ------------------------------------------------------------------
    # Hooks used by the speculation manager
    # ------------------------------------------------------------------
    def note_read_versions(self, request) -> None:
        """Advance the session's monotonic read floors (monotonic-session).

        Called when a transaction's read phase completes; a no-op for every
        other isolation level so serializable sessions stay byte-identical
        to their pre-isolation behaviour.
        """
        if request.isolation != "monotonic-session":
            return
        for key, version in request.read_versions.items():
            if version > self._read_watermarks.get(key, -1):
                self._read_watermarks[key] = version

    def evaluate_likelihood(self, tx: PlanetTransaction, now: float) -> Optional[float]:
        if not self._engine_has_progress:
            return None
        snapshot = self.coordinator.progress(tx.txid)
        if snapshot is None:
            return None
        if self.empirical_model is not None:
            return self.empirical_model.likelihood(snapshot, now)
        return self.likelihood_model.likelihood(snapshot, now)

    def predict_decision_time(self, tx: PlanetTransaction) -> Optional[float]:
        """Expected absolute simulated time of the transaction's decision.

        None when the transaction is not in its voting phase (not yet
        submitted, already decided, or running on an engine without the
        progress seam).
        """
        if not self._engine_has_progress:
            return None
        snapshot = self.coordinator.progress(tx.txid)
        if snapshot is None:
            return None
        return self.likelihood_model.expected_decision_time(snapshot, self.sim.now)

    def finish_transaction(self, tx: PlanetTransaction, manager: SpeculationManager) -> None:
        for op in tx.writes:
            self.conflicts.unregister_inflight(op.key)
        if self.config.read_your_writes and tx.committed:
            from repro.ops import WriteOp

            for op in tx.writes:
                if isinstance(op, WriteOp) and op.read_version is not None:
                    watermark = op.read_version + 1
                    if watermark > self._write_watermarks.get(op.key, 0):
                        self._write_watermarks[op.key] = watermark
        self.finished.append(tx)
        self._record_metrics(tx)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _prior_likelihood(self, tx: PlanetTransaction) -> float:
        keys = [op.key for op in tx.writes]
        if self.empirical_model is not None:
            return self.empirical_model.prior_likelihood(keys)
        return self.likelihood_model.prior_likelihood(keys)

    def _reject(self, tx: PlanetTransaction) -> None:
        now = self.sim.now
        tx.transition(TxStage.REJECTED, now)
        tx.decision = Decision(
            txid=tx.txid, outcome=Outcome.ABORTED, reason=AbortReason.ADMISSION, decided_at=now
        )
        self.metrics.inc("rejected_admission")
        gm = self.sim.metrics
        if gm.enabled:
            gm.inc("planet.admission_rejections", dc=self.dc_name)
        tracer = self.sim.tracer
        if "history" in tracer.live:
            tracer.emit(
                now, "history", "abort",
                txid=tx.txid, session=self.session_id,
                reason=AbortReason.ADMISSION.value,
            )
        self.finished.append(tx)
        tx.callbacks.fire_abort(tx)
        tx.waiter.wake(tx.decision)

    def _record_metrics(self, tx: PlanetTransaction) -> None:
        metrics = self.metrics
        gm = self.sim.metrics
        if tx.committed:
            metrics.inc("committed")
            if gm.enabled:
                gm.inc("planet.committed", dc=self.dc_name)
            latency = tx.commit_latency_ms()
            if latency is not None:
                metrics.observe("commit_latency_ms", latency)
                if gm.enabled:
                    gm.observe("planet.commit_latency_ms", latency, dc=self.dc_name)
        else:
            metrics.inc("aborted")
            metrics.inc(f"aborted_{tx.abort_reason.value}")
            if gm.enabled:
                reason = tx.abort_reason.value if tx.abort_reason is not None else "unknown"
                gm.inc("planet.aborted", dc=self.dc_name, reason=reason)
        if tx.was_guessed:
            metrics.inc("guessed")
            if gm.enabled:
                gm.inc("planet.guesses", dc=self.dc_name)
            guess_latency = tx.guess_latency_ms()
            if guess_latency is not None:
                metrics.observe("guess_latency_ms", guess_latency)
            if not tx.committed:
                metrics.inc("wrong_guesses")
                if gm.enabled:
                    # Each wrong guess owes the application an apology
                    # (the paper's "guesses, apologies" contract).
                    gm.inc("planet.apologies", dc=self.dc_name)
        if tx.predicted_at_first_vote is not None and gm.enabled:
            # Decile buckets so the calibration curve can be read off a
            # metrics snapshot without replaying the run.
            predicted = min(tx.predicted_at_first_vote, 1.0)
            bucket = min(int(predicted * 10), 9)
            gm.inc(
                "planet.likelihood_bucket",
                bucket=f"{bucket / 10:.1f}",
                committed=str(tx.committed).lower(),
            )
