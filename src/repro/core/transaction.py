"""The PLANET transaction object and its fluent builder API.

A transaction buffers reads and writes, carries the application's latency
contract (timeout, guess threshold) and callbacks, and records every stage
transition with its simulated timestamp so experiments can reconstruct the
full timeline (submit → guess → decide) afterwards.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.callbacks import CallbackSet
from repro.core.errors import TransactionSealed
from repro.core.stages import TxStage, check_transition
from repro.ops import (
    AbortReason,
    DeltaOp,
    Decision,
    TxRequest,
    WriteLike,
    WriteOp,
    validate_isolation,
)


def check_timeout(timeout_ms: float, name: str = "timeout_ms") -> None:
    if timeout_ms <= 0:
        raise ValueError(f"{name} must be positive, got {timeout_ms}")


def check_guess_threshold(threshold: float, name: str = "guess threshold") -> None:
    if not 0.0 < threshold <= 1.0:
        raise ValueError(f"{name} must be in (0, 1], got {threshold}")


class PlanetTransaction:
    """One application transaction under the PLANET programming model.

    Build it fluently, then hand it to
    :meth:`~repro.core.client.PlanetClient.submit`::

        txn = (client.transaction()
               .read("account")
               .increment("stock:42", -1)
               .write("order:7", order)
               .with_timeout(500.0)
               .with_guess_threshold(0.95)
               .on_guess(show_confirmation)
               .on_wrong_guess(send_apology_email)
               .on_commit(finalize))
    """

    def __init__(self, txid: Optional[str] = None) -> None:
        # None until the session that submits it mints one from its cluster.
        self.txid = txid
        self.reads: List[str] = []
        self.writes: List[WriteLike] = []
        self.timeout_ms: Optional[float] = None
        self.guess_threshold: Optional[float] = None
        # Per-transaction isolation override; None inherits the session's
        # configured level (PlanetConfig.isolation).
        self.isolation: Optional[str] = None
        self.callbacks = CallbackSet()

        # Runtime state, owned by the session/speculation layer.
        self.stage = TxStage.CREATED
        self.stage_times: Dict[TxStage, float] = {}
        self.read_results: Dict[str, Any] = {}
        self.likelihood_trace: List[Tuple[float, float]] = []
        self.predicted_at_guess: Optional[float] = None
        self.predicted_at_first_vote: Optional[float] = None
        self.decision: Optional[Decision] = None
        self.waiter = None  # set on submit; wakes with the final Decision

    # ------------------------------------------------------------------
    # Builder API
    # ------------------------------------------------------------------
    def _check_mutable(self) -> None:
        if self.stage is not TxStage.CREATED:
            raise TransactionSealed(f"{self.txid} already submitted")

    def read(self, key: str) -> "PlanetTransaction":
        self._check_mutable()
        self.reads.append(key)
        return self

    def write(self, key: str, value: Any) -> "PlanetTransaction":
        """Exclusive write: validated against the version read."""
        self._check_mutable()
        self.writes.append(WriteOp(key=key, value=value))
        return self

    def increment(self, key: str, delta: float, floor: float = 0.0) -> "PlanetTransaction":
        """Commutative numeric update with an escrow ``floor``."""
        self._check_mutable()
        self.writes.append(DeltaOp(key=key, delta=delta, floor=floor))
        return self

    def with_timeout(self, timeout_ms: float) -> "PlanetTransaction":
        self._check_mutable()
        check_timeout(timeout_ms)
        self.timeout_ms = timeout_ms
        return self

    def with_guess_threshold(self, threshold: float) -> "PlanetTransaction":
        self._check_mutable()
        check_guess_threshold(threshold)
        self.guess_threshold = threshold
        return self

    def with_isolation(self, level: str) -> "PlanetTransaction":
        """Declare this transaction's isolation contract (overrides the
        session default; see :data:`repro.ops.ISOLATION_LEVELS`)."""
        self._check_mutable()
        self.isolation = validate_isolation(level)
        return self

    def on_progress(self, fn: Callable) -> "PlanetTransaction":
        self.callbacks.on_progress = fn
        return self

    def on_guess(self, fn: Callable) -> "PlanetTransaction":
        self.callbacks.on_guess = fn
        return self

    def on_wrong_guess(self, fn: Callable) -> "PlanetTransaction":
        self.callbacks.on_wrong_guess = fn
        return self

    def on_commit(self, fn: Callable) -> "PlanetTransaction":
        self.callbacks.on_commit = fn
        return self

    def on_abort(self, fn: Callable) -> "PlanetTransaction":
        self.callbacks.on_abort = fn
        return self

    # ------------------------------------------------------------------
    # Runtime
    # ------------------------------------------------------------------
    def transition(self, new_stage: TxStage, now: float) -> None:
        check_transition(self.stage, new_stage)
        self.stage = new_stage
        self.stage_times[new_stage] = now

    def to_request(self) -> TxRequest:
        return TxRequest(
            txid=self.txid,
            reads=list(self.reads),
            writes=self.writes,
            deadline_ms=self.timeout_ms,
        )

    # Convenience accessors for experiment code -------------------------
    @property
    def submitted_at(self) -> Optional[float]:
        return self.stage_times.get(TxStage.READING)

    @property
    def guessed_at(self) -> Optional[float]:
        return self.stage_times.get(TxStage.GUESSED)

    @property
    def decided_at(self) -> Optional[float]:
        if self.decision is None:
            return None
        return self.decision.decided_at

    @property
    def committed(self) -> bool:
        return self.stage is TxStage.COMMITTED

    @property
    def was_guessed(self) -> bool:
        return TxStage.GUESSED in self.stage_times

    @property
    def abort_reason(self) -> AbortReason:
        if self.decision is None:
            return AbortReason.NONE
        return self.decision.reason

    def commit_latency_ms(self) -> Optional[float]:
        if self.submitted_at is None or self.decided_at is None:
            return None
        return self.decided_at - self.submitted_at

    def guess_latency_ms(self) -> Optional[float]:
        if self.submitted_at is None or self.guessed_at is None:
            return None
        return self.guessed_at - self.submitted_at

    def __repr__(self) -> str:
        return f"<PlanetTransaction {self.txid} {self.stage.value}>"
