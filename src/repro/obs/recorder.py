"""The flight recorder: a bounded in-memory ring of events and spans.

Always-on tracing must not grow without bound, so the recorder keeps only
the last ``capacity`` records (``collections.deque`` eviction) and counts
what it dropped.  Its :meth:`FlightRecorder.digest` is the replay-
determinism oracle: two runs with the same seed must produce byte-identical
digests, which pins down *every* instrumented decision in the stack —
message timing, vote order, WAL syncs — far more tightly than comparing
final aggregates.

Every id a record carries (txids, session ids, node ids) is minted by the
run itself, so the digest hashes them raw.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Any, Deque, List, Union

from repro.obs.events import Sink, TraceEvent
from repro.obs.metrics import current as current_metrics
from repro.obs.spans import Span

Record = Union[TraceEvent, Span]


class FlightRecorder(Sink):
    """Ring-buffer sink retaining the most recent ``capacity`` records."""

    def __init__(self, capacity: int = 100_000) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._records: Deque[Record] = deque(maxlen=capacity)
        self.seen_events = 0
        self.seen_spans = 0

    # -- Sink ----------------------------------------------------------
    def on_event(self, event: TraceEvent) -> None:
        self.seen_events += 1
        if len(self._records) == self.capacity:
            self._note_eviction()
        self._records.append(event)

    def on_span(self, span: Span) -> None:
        self.seen_spans += 1
        if len(self._records) == self.capacity:
            self._note_eviction()
        self._records.append(span)

    @staticmethod
    def _note_eviction() -> None:
        # Looked up lazily, only on the (rare) eviction path, so the
        # recorder's hot append stays a deque push.
        metrics = current_metrics()
        if metrics.enabled:
            metrics.inc("obs.recorder_evictions")

    # -- Introspection -------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    @property
    def seen(self) -> int:
        return self.seen_events + self.seen_spans

    @property
    def evicted(self) -> int:
        return self.seen - len(self._records)

    def records(self) -> List[Record]:
        """Retained records in arrival order (spans arrive at their end)."""
        return list(self._records)

    def events(self) -> List[TraceEvent]:
        return [r for r in self._records if isinstance(r, TraceEvent)]

    def spans(self) -> List[Span]:
        return [r for r in self._records if isinstance(r, Span)]

    def categories(self) -> List[str]:
        return sorted({r.category for r in self._records})

    def clear(self) -> None:
        self._records.clear()
        self.seen_events = 0
        self.seen_spans = 0

    # -- Determinism digest --------------------------------------------
    def digest(self) -> str:
        """SHA-256 over the canonical serialisation of the retained records.

        Same seed ⇒ same digest, independent of process history (see module
        docstring) and of which simulator pid emitted what.
        """

        def canon(value: Any) -> str:
            return f"{value:.6f}" if isinstance(value, float) else str(value)

        hasher = hashlib.sha256()
        for record in self._records:
            if isinstance(record, TraceEvent):
                parts = ["E", canon(record.time_ms), record.category, record.name]
            else:
                parts = [
                    "S",
                    canon(record.start_ms),
                    canon(record.end_ms if record.end_ms is not None else -1.0),
                    record.category,
                    record.name,
                    canon(record.track),
                    str(record.depth),
                ]
            parts.extend(f"{key}={canon(record.fields[key])}" for key in sorted(record.fields))
            hasher.update("|".join(parts).encode("utf-8"))
            hasher.update(b"\n")
        return hasher.hexdigest()
