"""Speculative commit management: the bridge between engine and application.

One :class:`SpeculationManager` rides along with each submitted transaction
as its :class:`~repro.ops.TxEvents` hook object.  It evaluates the commit
likelihood at the transaction's first vote message (the calibration
snapshot) and then once per vote message only while someone reads it — a
guess threshold is armed and has not fired, or a progress callback is
registered.
Each evaluation feeds the progress callback and fires the *guess* — the
speculative commit — the first time the likelihood crosses the application's
threshold.  At decision time it reconciles the guess (commit: the guess was
right; abort: fire the compensation callback), updates conflict statistics,
and reports the finished transaction back to the session.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.stages import SPANNED_STAGES, TxStage
from repro.core.transaction import PlanetTransaction
from repro.ops import Decision, TxEvents, TxRequest, WriteOp


class SpeculationManager(TxEvents):
    def __init__(self, tx: PlanetTransaction, session) -> None:
        self.tx = tx
        self.session = session
        # Per-key (accepts, rejects) counts observed through on_votes, kept so
        # conflict statistics survive the coordinator forgetting the tx.
        self.vote_counts: Dict[str, List[int]] = {}
        # Vote-state history per key, kept only when the session has an
        # empirical model to consume it.
        self.state_history: Dict[str, List[Tuple[int, int]]] = {}
        self._stage_span = None  # open obs span for the current stage

    # ------------------------------------------------------------------
    # Observability: one span per non-terminal stage, on the tx's track
    # ------------------------------------------------------------------
    def note_stage(self, stage: TxStage, now: float) -> None:
        tracer = self.session.sim.tracer
        if "stage" not in tracer.live:
            return
        tracer.end(self._stage_span, now)
        self._stage_span = (
            tracer.begin(now, "stage", stage.value, track=self.tx.txid)
            if stage in SPANNED_STAGES
            else None
        )

    # ------------------------------------------------------------------
    # TxEvents
    # ------------------------------------------------------------------
    def on_reads_complete(self, request: TxRequest, now: float) -> None:
        self.tx.read_results.update(request.read_results)
        self.session.note_read_versions(request)
        tracer = self.session.sim.tracer
        if "history" in tracer.live:
            # One client-visible read per key, with the version actually
            # served (engines without version tracking report -1; the
            # checker skips those).  Sorted for a deterministic stream.
            session_id = self.session.session_id
            versions = request.read_versions
            for key in sorted(request.read_results):
                tracer.emit(
                    now, "history", "read",
                    txid=self.tx.txid, session=session_id,
                    key=key, version=versions.get(key, -1),
                )

    def on_commit_started(self, request: TxRequest, now: float) -> None:
        self.tx.transition(TxStage.PENDING, now)
        self.note_stage(TxStage.PENDING, now)

    def on_votes(
        self, request: TxRequest, votes: Tuple[Tuple[str, bool], ...], now: float
    ) -> None:
        keep_history = self.session.empirical_model is not None
        for key, accepted in votes:
            counts = self.vote_counts.setdefault(key, [0, 0])
            if keep_history:
                self.state_history.setdefault(key, []).append((counts[0], counts[1]))
            counts[0 if accepted else 1] += 1

        # The likelihood is a pure function of coordinator and conflict
        # state, so it is computed once per vote message, and only for
        # someone who reads it: the first-vote calibration snapshot, a guess
        # still waiting to fire, or a progress callback (looked up per
        # message: it may be attached late).
        tx = self.tx
        if not (
            tx.predicted_at_first_vote is None
            or (tx.guess_threshold is not None and tx.stage is TxStage.PENDING)
            or tx.callbacks.on_progress is not None
        ):
            return
        likelihood = self.session.evaluate_likelihood(tx, now)
        if likelihood is None:
            return
        tx.likelihood_trace.append((now, likelihood))
        if tx.predicted_at_first_vote is None:
            tx.predicted_at_first_vote = likelihood
        tx.callbacks.fire_progress(tx, likelihood)

        # Read after the progress callback, which may abort or re-arm the tx.
        threshold = tx.guess_threshold
        if (
            threshold is not None
            and tx.stage is TxStage.PENDING
            and likelihood >= threshold
        ):
            tx.transition(TxStage.GUESSED, now)
            self.note_stage(TxStage.GUESSED, now)
            tx.predicted_at_guess = likelihood
            tracer = self.session.sim.tracer
            if "stage" in tracer.live:
                tracer.emit(
                    now, "stage", "guess", txid=tx.txid, likelihood=likelihood
                )
            if "history" in tracer.live:
                tracer.emit(
                    now, "history", "guess",
                    txid=tx.txid,
                    session=self.session.session_id,
                    likelihood=likelihood,
                )
            tx.callbacks.fire_guess(tx, likelihood)

    def on_decided(self, request: TxRequest, decision: Decision) -> None:
        tx = self.tx
        tx.decision = decision
        now = decision.decided_at
        was_guessed = tx.stage is TxStage.GUESSED
        if decision.committed:
            tx.transition(TxStage.COMMITTED, now)
        else:
            tx.transition(TxStage.ABORTED, now)
        self.note_stage(tx.stage, now)
        tracer = self.session.sim.tracer
        if "history" in tracer.live:
            # History ordering contract: a committed transaction's writes
            # precede its commit record, and both precede anything a commit
            # callback does (session bookkeeping runs before callbacks, so
            # a follow-up transaction's begin lands after this commit).
            session_id = self.session.session_id
            if decision.committed:
                for op in tx.writes:
                    if isinstance(op, WriteOp):
                        tracer.emit(
                            now, "history", "write",
                            txid=tx.txid, session=session_id, key=op.key,
                            kind="w",
                            read_version=(
                                -1 if op.read_version is None else op.read_version
                            ),
                        )
                    else:
                        tracer.emit(
                            now, "history", "write",
                            txid=tx.txid, session=session_id, key=op.key,
                            kind="delta", delta=op.delta, floor=op.floor,
                        )
                tracer.emit(
                    now, "history", "commit", txid=tx.txid, session=session_id
                )
            else:
                tracer.emit(
                    now, "history", "abort",
                    txid=tx.txid, session=session_id, reason=decision.reason.value,
                )
                if was_guessed:
                    # The wrong-guess compensation is the paper's apology;
                    # the checker holds it to exactly-once per wrong guess.
                    tracer.emit(
                        now, "history", "apology", txid=tx.txid, session=session_id
                    )
        # Session bookkeeping (conflict stats, read-your-writes watermarks,
        # metrics) runs BEFORE user callbacks: a callback that immediately
        # issues a follow-up transaction must observe this one's effects.
        self._update_statistics(decision)
        self.session.finish_transaction(tx, self)
        if decision.committed:
            tx.callbacks.fire_commit(tx)
        elif was_guessed:
            tx.callbacks.fire_wrong_guess(tx)
        else:
            tx.callbacks.fire_abort(tx)
        if tx.waiter is not None and not tx.waiter.woken:
            tx.waiter.wake(decision)

    # ------------------------------------------------------------------
    def _update_statistics(self, decision: Decision) -> None:
        conflicts = self.session.conflicts
        quorum = self.session.record_quorum
        n = len(self.session.cluster.replica_ids)
        for key, (accepts, rejects) in self.vote_counts.items():
            # Label the record's experience by its *decided* fate: chosen
            # (quorum reached) or doomed (quorum impossible).  A record left
            # ambiguous at decision time — votes stop arriving once the
            # transaction decides — teaches us nothing and is skipped.
            if accepts >= quorum:
                conflicts.observe_outcome(key, conflicted=False)
            elif rejects > n - quorum:
                conflicts.observe_outcome(key, conflicted=True)
        empirical = self.session.empirical_model
        if empirical is not None:
            for key, history in self.state_history.items():
                accepts, rejects = self.vote_counts[key]
                quorum = self.session.record_quorum
                chosen = accepts >= quorum
                for state in history:
                    empirical.observe(state[0], state[1], chosen)
