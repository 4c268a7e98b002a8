"""Engine-agnostic transaction operations, outcomes and event hooks.

Both commit engines (the MDCC-style optimistic engine PLANET runs on, and the
two-phase-commit baseline) consume the same :class:`TxRequest` and report
progress through the same :class:`TxEvents` hook object, which is how the
PLANET layer observes protocol internals without the engines depending on it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union


class Outcome(enum.Enum):
    COMMITTED = "committed"
    ABORTED = "aborted"


class AbortReason(enum.Enum):
    NONE = "none"
    CONFLICT = "conflict"            # optimistic option validation failed
    TIMEOUT = "timeout"              # deadline expired before a decision
    ADMISSION = "admission"          # rejected by PLANET's admission control
    LOCK_TIMEOUT = "lock_timeout"    # 2PC lock wait exceeded
    BALLOT = "ballot"                # lost a Paxos ballot race
    CLIENT = "client"                # application-initiated abort


@dataclass
class WriteOp:
    """Blind or read-modify write of ``key`` to ``value``.

    ``read_version`` is stamped by the session after the read phase; the
    optimistic engine validates it against the replica's committed version.
    """

    key: str
    value: Any
    read_version: Optional[int] = None


@dataclass
class DeltaOp:
    """Commutative increment of a numeric record, with an escrow floor.

    ``delta`` may be negative (e.g. decrementing stock); the engine accepts
    it only while the projected value stays >= ``floor``, which is what lets
    hot counters commute instead of conflicting.
    """

    key: str
    delta: float
    floor: float = 0.0


WriteLike = Union[WriteOp, DeltaOp]

#: Per-transaction isolation contracts, strongest first.  ``serializable``
#: is the engine's historical behaviour, bit-for-bit.  ``snapshot`` keeps
#: strict first-committer-wins writes but *declares* that its reads come
#: from a (per-record) snapshot — a contract the predictive checker uses,
#: not an engine relaxation.  ``monotonic-session`` and ``read-committed``
#: relax write validation (stale exclusive writes are accepted and resolved
#: last-writer-wins); ``monotonic-session`` additionally keeps the
#: session's reads monotonic through the ``min_versions`` machinery.
ISOLATION_LEVELS = (
    "serializable",
    "snapshot",
    "monotonic-session",
    "read-committed",
)

#: Levels whose exclusive writes skip stale-read validation (and therefore
#: may lose updates).
RELAXED_WRITE_LEVELS = frozenset({"monotonic-session", "read-committed"})


def validate_isolation(level: str) -> str:
    if level not in ISOLATION_LEVELS:
        raise ValueError(
            f"unknown isolation level {level!r}; expected one of {ISOLATION_LEVELS}"
        )
    return level


@dataclass
class TxRequest:
    """A transaction as handed to a commit engine.

    ``reads`` are keys whose committed values the application wants;
    ``writes`` are the operations to commit atomically.  ``read_results``
    and ``read_versions`` are filled by the engine during the read phase.

    ``min_versions`` requests session guarantees: the engine re-reads any
    key whose local replica is still behind the given committed version —
    how the PLANET session implements read-your-writes (the replica catches
    up as soon as the decision it is missing arrives).
    """

    txid: str
    reads: List[str] = field(default_factory=list)
    writes: List[WriteLike] = field(default_factory=list)
    read_results: Dict[str, Any] = field(default_factory=dict)
    read_versions: Dict[str, int] = field(default_factory=dict)
    min_versions: Dict[str, int] = field(default_factory=dict)
    submitted_at: float = 0.0
    deadline_ms: Optional[float] = None
    # Declared isolation contract; see ISOLATION_LEVELS.  Engines relax
    # exclusive-write validation for RELAXED_WRITE_LEVELS and leave every
    # other level's behaviour identical to serializable.
    isolation: str = "serializable"

    @property
    def write_keys(self) -> List[str]:
        return [op.key for op in self.writes]

    def is_read_only(self) -> bool:
        return not self.writes


@dataclass(frozen=True)
class Decision:
    """Final engine verdict on a transaction."""

    txid: str
    outcome: Outcome
    reason: AbortReason = AbortReason.NONE
    decided_at: float = 0.0

    @property
    def committed(self) -> bool:
        return self.outcome is Outcome.COMMITTED


class TxEvents:
    """Progress hooks an engine calls while processing one transaction.

    The default implementation ignores everything; PLANET's speculation layer
    overrides these to drive likelihood prediction and guess callbacks.
    """

    def on_reads_complete(self, request: TxRequest, now: float) -> None:
        """The read phase finished; ``request.read_results`` is populated."""

    def on_commit_started(self, request: TxRequest, now: float) -> None:
        """Options/prepares have been sent to the replicas."""

    def on_votes(
        self, request: TxRequest, votes: Tuple[Tuple[str, bool], ...], now: float
    ) -> None:
        """One replica's vote message arrived: a ``(key, accepted)`` pair per
        record it voted on (an MDCC ``Phase2b`` carries every record of the
        transaction; a 2PC prepare reply carries one)."""

    def on_decided(self, request: TxRequest, decision: Decision) -> None:
        """The engine reached a final commit/abort decision."""
