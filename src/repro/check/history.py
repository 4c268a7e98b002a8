"""History capture: the client-visible operation log of one run.

The PLANET layer emits one ``history`` obs event per client-visible
operation (see ``docs/checking.md`` for the schema).  A
:class:`HistoryRecorder` subscribes to a simulator's tracer, keeps those
events as compact :class:`HistoryOp` records in arrival order, and hands
back an immutable :class:`History` the offline checker consumes.

The recorder attaches *directly* to one simulator's tracer rather than
through the process-wide obs capture, so a campaign worker can record its
own cluster's history while (or without) a global capture is installed —
the two compose instead of fighting over the one-capture-at-a-time slot.

Like the flight recorder's digest, :meth:`History.digest` hashes ids raw:
txids and session ids are minted per cluster, so two runs of the same
seeded schedule produce byte-identical digests in any process.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.events import Sink, TraceEvent

#: On-disk history file format tag (``python -m repro check predict``).
HISTORY_FORMAT = "repro.check/history-v1"

#: Operation kinds a history may contain, in no particular order.  The
#: ``engine_decision`` kind is engine metadata (per-record vote counts at
#: decision time) rather than a client-visible operation; the checker uses
#: it for the quorum-backing invariant.
OP_KINDS = (
    "begin", "read", "write", "guess", "commit", "abort", "apology",
    "engine_decision", "xshard_vote",
)

@dataclass(frozen=True)
class HistoryOp:
    """One recorded operation: *at time t, transaction tx did kind*.

    ``session`` is empty for operations with no session attribution
    (``engine_decision``).  ``fields`` carries the kind-specific payload
    (key/version for reads, read_version for writes, reason for aborts…).
    """

    time_ms: float
    kind: str
    txid: str
    session: str = ""
    fields: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "time_ms": self.time_ms,
            "kind": self.kind,
            "txid": self.txid,
            "session": self.session,
            "fields": dict(self.fields),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "HistoryOp":
        return cls(
            time_ms=float(payload["time_ms"]),
            kind=str(payload["kind"]),
            txid=str(payload["txid"]),
            session=str(payload.get("session", "")),
            fields=dict(payload.get("fields", {})),
        )


class History:
    """An ordered, immutable-by-convention sequence of :class:`HistoryOp`.

    Order is emission order, which in a discrete-event run is causal
    order: same-instant operations appear in the order the code performed
    them (a commit precedes the begin of a follow-up transaction issued
    from its callback).  The checker leans on this — session-guarantee
    floors are maintained by a single forward scan.
    """

    def __init__(self, ops: Optional[List[HistoryOp]] = None) -> None:
        self.ops: List[HistoryOp] = list(ops) if ops is not None else []

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[HistoryOp]:
        return iter(self.ops)

    # -- convenience views ---------------------------------------------
    def by_kind(self, kind: str) -> List[HistoryOp]:
        return [op for op in self.ops if op.kind == kind]

    def txids(self) -> List[str]:
        """Transaction ids in first-appearance order."""
        seen: Dict[str, None] = {}
        for op in self.ops:
            if op.txid not in seen:
                seen[op.txid] = None
        return list(seen)

    def sessions(self) -> List[str]:
        seen: Dict[str, None] = {}
        for op in self.ops:
            if op.session and op.session not in seen:
                seen[op.session] = None
        return list(seen)

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {"ops": [op.to_dict() for op in self.ops]}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "History":
        return cls([HistoryOp.from_dict(op) for op in payload.get("ops", [])])

    # -- determinism digest --------------------------------------------
    def digest(self) -> str:
        """SHA-256 over the canonical serialisation of the operations.

        Floats are formatted at fixed precision and ids hashed raw, so the
        digest is a function of the seeded run only — same schedule, same
        digest, regardless of process history or worker placement.
        """

        def canon(value: Any) -> str:
            return f"{value:.6f}" if isinstance(value, float) else str(value)

        hasher = hashlib.sha256()
        for op in self.ops:
            fields = op.fields
            parts = [canon(op.time_ms), op.kind, canon(op.txid), canon(op.session)]
            for key in sorted(fields):
                parts.append(f"{key}={canon(fields[key])}")
            hasher.update(("|".join(parts) + "\n").encode("utf-8"))
        return hasher.hexdigest()


#: The fields a stored operation may carry, the JSON types each may have,
#: and which of them it must carry (see :meth:`HistoryOp.to_dict`).
_OP_FIELDS = {
    "time_ms": (int, float), "kind": (str,), "txid": (str,),
    "session": (str,), "fields": (dict,),
}
_REQUIRED_OP_FIELDS = ("time_ms", "kind", "txid")
#: Payload fields the checker and the predictor read as integers.
_INT_PAYLOAD_FIELDS = ("version", "read_version", "accepts", "quorum")


def check_history_file(payload: Any, source: str) -> Dict[str, Any]:
    """``payload`` if it is a ``repro.check/history-v1`` document
    (``{"format": ..., "ops": [...]}``) :meth:`History.to_dict` could write.

    Otherwise a :class:`ValueError` prefixed with ``source`` names the
    offending ``ops[i]``, so a bad file never predicts as some other history.
    """
    found = payload.get("format") if isinstance(payload, dict) else None
    if found != HISTORY_FORMAT:
        raise ValueError(
            f"{source}: not a history file (format {found!r}, expected {HISTORY_FORMAT!r})"
        )
    ops = payload.get("ops")
    if not isinstance(ops, list):
        raise ValueError(f"{source}: ops must be a list, got {ops!r}")
    for index, op in enumerate(ops):
        where = f"{source}: ops[{index}]"
        if not isinstance(op, dict):
            raise ValueError(f"{where}: expected an object, got {op!r}")
        for name, types in _OP_FIELDS.items():
            if name not in op:
                if name in _REQUIRED_OP_FIELDS:
                    raise ValueError(f"{where}: no {name}")
                continue
            if isinstance(op[name], bool) or not isinstance(op[name], types):
                raise ValueError(f"{where}.{name}: bad value {op[name]!r}")
        for name in _INT_PAYLOAD_FIELDS:
            value = op.get("fields", {}).get(name, 0)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{where}.fields.{name}: bad value {value!r}")
    return payload


class HistoryRecorder(Sink):
    """Obs sink turning ``history`` events into a :class:`History`.

    Attach to one simulator with :meth:`attach` (or pass it to
    ``obs.session`` / ``tracer.add_sink`` yourself); events of other
    categories are ignored, so the recorder composes with wider captures.
    """

    def __init__(self) -> None:
        self._ops: List[HistoryOp] = []

    # -- Sink ----------------------------------------------------------
    def on_event(self, event: TraceEvent) -> None:
        if event.category != "history":
            return
        fields = dict(event.fields)
        txid = str(fields.pop("txid", ""))
        session = str(fields.pop("session", ""))
        self._ops.append(
            HistoryOp(
                time_ms=event.time_ms,
                kind=event.name,
                txid=txid,
                session=session,
                fields=fields,
            )
        )

    # -- wiring --------------------------------------------------------
    def attach(self, sim) -> "HistoryRecorder":
        """Subscribe to ``sim``'s tracer for ``history`` events only."""
        sim.tracer.add_sink(self, categories=("history",))
        return self

    def detach(self, sim) -> None:
        sim.tracer.remove_sink(self)

    # -- results -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ops)

    def history(self) -> History:
        return History(list(self._ops))
