"""The staged transaction lifecycle PLANET exposes to applications.

This is the heart of the programming model: instead of a single opaque
"running" state, a PLANET transaction moves through observable stages and the
application can attach behaviour to each transition (see
:class:`~repro.core.callbacks.CallbackSet`).

::

    CREATED ──submit──▶ READING ──options sent──▶ PENDING ──votes──▶ COMMITTED
        │                  │                         │  ╲
        │                  │                         │   ╲ p ≥ threshold
        │                  ▼                         ▼    ▼
        └──admission──▶ REJECTED                  ABORTED  GUESSED ──▶ COMMITTED
                                                              │
                                                              └──▶ ABORTED (wrong guess)
"""

from __future__ import annotations

import enum
from typing import Dict, FrozenSet

from repro.core.errors import InvalidTransition


class TxStage(enum.Enum):
    CREATED = "created"
    REJECTED = "rejected"        # refused by admission control, never ran
    READING = "reading"          # read phase at the local replica
    PENDING = "pending"          # options proposed, votes arriving
    GUESSED = "guessed"          # speculatively committed to the application
    COMMITTED = "committed"
    ABORTED = "aborted"

    @property
    def terminal(self) -> bool:
        return self in _TERMINAL


_TERMINAL: FrozenSet[TxStage] = frozenset(
    {TxStage.REJECTED, TxStage.COMMITTED, TxStage.ABORTED}
)

_ALLOWED: Dict[TxStage, FrozenSet[TxStage]] = {
    TxStage.CREATED: frozenset({TxStage.READING, TxStage.REJECTED}),
    TxStage.READING: frozenset({TxStage.PENDING, TxStage.COMMITTED, TxStage.ABORTED}),
    TxStage.PENDING: frozenset({TxStage.GUESSED, TxStage.COMMITTED, TxStage.ABORTED}),
    TxStage.GUESSED: frozenset({TxStage.COMMITTED, TxStage.ABORTED}),
    TxStage.REJECTED: frozenset(),
    TxStage.COMMITTED: frozenset(),
    TxStage.ABORTED: frozenset(),
}


#: Stages that occupy simulated time and therefore carry an obs span
#: (``stage``/``<name>``, track = txid) from entry until the next
#: transition.  Terminal stages are instants — the span of the stage being
#: left ends there; no new span opens.
SPANNED_STAGES: FrozenSet[TxStage] = frozenset(
    {TxStage.READING, TxStage.PENDING, TxStage.GUESSED}
)


def check_transition(current: TxStage, new: TxStage) -> None:
    """Raise :class:`InvalidTransition` unless ``current -> new`` is legal."""
    if new not in _ALLOWED[current]:
        raise InvalidTransition(f"illegal stage transition {current.value} -> {new.value}")
