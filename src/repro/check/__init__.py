"""``repro.check`` — history-based consistency checking and fault campaigns.

Three layers, used together or separately:

* :mod:`~repro.check.history` — a :class:`~repro.obs.events.Sink` that
  rides the obs event bus and records every client-visible operation
  (begin/read/write/guess/commit/abort/apology, plus engine decision
  metadata) into a compact, digestable :class:`History`;
* :mod:`~repro.check.checker` — the offline checker: per-record
  serializability of committed transactions, read-your-writes and
  monotonic-reads session guarantees, MDCC option-acceptance invariants,
  and PLANET guess/apology soundness;
* :mod:`~repro.check.campaign` — one seed-derived fault schedule run and
  checked, plus the replayable plan files; the ``check_campaign``
  experiment (``python -m repro check campaign``) fans schedules out.

See ``docs/checking.md`` for the history schema and the invariant
catalogue.
"""

from repro.check.checker import CheckerConfig, Violation, check_history
from repro.check.history import History, HistoryOp, HistoryRecorder

__all__ = [
    "CheckerConfig",
    "History",
    "HistoryOp",
    "HistoryRecorder",
    "Violation",
    "check_history",
]
