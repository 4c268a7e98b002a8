"""The structured event bus at the bottom of the observability stack.

Everything observable in a run flows through a per-simulator
:class:`Tracer` as either an instant :class:`TraceEvent` or a
:class:`~repro.obs.spans.Span`.  Sinks (flight recorder, profiler, custom
test probes) subscribe to a tracer; instrumented call sites in the kernel,
network, engines, and storage emit through it.

The design constraint is the **no-op fast path**, per category: a capture
costs only what some sink subscribed to.  ``Tracer.live`` is the union of
the attached sinks' categories, and every call site guards on its *own*
category before building any keyword arguments::

    if "message" in tracer.live:
        tracer.emit(now, "message", "send", ...)

so with no sinks, or with sinks that want other categories, an
instrumented hot path (kernel dispatch, every message send, every WAL
append) pays an attribute load and a set lookup.  A history-only capture
(``HistoryRecorder``) therefore runs the kernel's plain drain loop and
builds no ``sim``/``message``/``wal``/``paxos`` records at all.  (Under
the old all-or-nothing ``enabled`` flag one ``history`` sink switched
every call site on, and the tracer then discarded all but the history
records: on the benchmark's ``faults_checked`` that was 1.29M calls into
``repro.obs`` per run for 58k recorded operations.)

Global capture
--------------
Experiments build their own :class:`~repro.sim.kernel.Simulator` deep
inside the harness, so the CLI cannot hand a tracer down.  Instead,
:func:`install` registers sinks process-wide; every simulator created while
a capture is installed binds them at construction (the kernel calls
:func:`new_tracer`).  :func:`repro.obs.session` wraps install/uninstall as
a context manager.

This module imports nothing from the rest of ``repro`` — the bus is usable
from any layer without creating cycles.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.obs.spans import Span, SpanStacks


class TraceEvent:
    """One instant, structured observation: *at time t, in category c, name
    n happened, with these fields*."""

    __slots__ = ("time_ms", "category", "name", "fields", "pid")

    def __init__(
        self,
        time_ms: float,
        category: str,
        name: str,
        fields: Optional[Dict[str, Any]] = None,
        pid: int = 0,
    ) -> None:
        self.time_ms = time_ms
        self.category = category
        self.name = name
        self.fields = fields if fields is not None else {}
        self.pid = pid

    def __repr__(self) -> str:
        return f"<TraceEvent t={self.time_ms:.3f} {self.category}/{self.name} {self.fields!r}>"


class Sink:
    """Receives events and finished spans.  Subclass and override."""

    def on_event(self, event: TraceEvent) -> None:  # pragma: no cover - default no-op
        pass

    def on_span(self, span: Span) -> None:  # pragma: no cover - default no-op
        pass


#: Event categories emitted by the built-in instrumentation.
CATEGORIES: Tuple[str, ...] = (
    "sim",        # kernel event dispatch
    "message",    # network send / deliver / drop
    "paxos",      # ballot minting, prepare/accept rounds, votes, decisions
    "stage",      # transaction stage spans and the speculative guess
    "wal",        # WAL sync / group-commit durability windows
    "admission",  # admission-control admit / delay / reject
    "tx",         # transaction-level instants (submit, decide)
    "history",    # client-visible operation history (repro.check)
    "metric",     # MetricsRegistry counter/latency adapter
    "sweep",      # sweep executor point lifecycle (deterministic fields only)
    "progress",   # sweep wall-clock progress / stragglers (non-deterministic)
)

#: Default capture set: everything except per-dispatch kernel events (which
#: multiply the event volume without adding protocol insight) and wall-clock
#: ``progress`` events (which would break cross-run digest determinism).
#: Pass ``categories={"sim", "progress", ...}`` explicitly to include them.
DEFAULT_CATEGORIES: FrozenSet[str] = frozenset(
    c for c in CATEGORIES if c not in ("sim", "progress")
)

_ALL: FrozenSet[str] = frozenset(CATEGORIES)


class Tracer:
    """Per-simulator event/span emitter with a per-category gate.

    ``live`` is the union of the categories the attached sinks asked for
    (empty with no sinks).  Call sites guard on their own category —
    ``if "message" in tracer.live:`` — so a capture pays only for what some
    sink subscribed to, and each event or span reaches only the sinks that
    want its category.
    """

    __slots__ = ("live", "enabled", "pid", "_sinks", "_stacks")

    def __init__(self, pid: int = 0) -> None:
        self.live: FrozenSet[str] = frozenset()
        # ``bool(live)``, recomputed with it: the compiled kernel reads it
        # per event and per send, so it stays a plain slot, not a property.
        self.enabled = False
        self.pid = pid
        self._sinks: List[Tuple[Sink, FrozenSet[str]]] = []
        self._stacks = SpanStacks()

    # -- wiring --------------------------------------------------------
    def add_sink(self, sink: Sink, categories: Optional[Iterable[str]] = None) -> Sink:
        """Attach ``sink`` for ``categories`` (None = every category)."""
        wanted = _ALL if categories is None else frozenset(categories)
        self._sinks.append((sink, wanted))
        self.live |= wanted
        self.enabled = bool(self.live)
        return sink

    def remove_sink(self, sink: Sink) -> None:
        for index, (attached, _) in enumerate(self._sinks):
            if attached is sink:
                del self._sinks[index]
                break
        self.live = frozenset().union(*(wanted for _, wanted in self._sinks))
        self.enabled = bool(self.live)

    # -- instants ------------------------------------------------------
    def emit(self, time_ms: float, category: str, name: str, **fields: Any) -> None:
        if category not in self.live:
            return
        event = TraceEvent(time_ms, category, name, fields, self.pid)
        for sink, wanted in self._sinks:
            if category in wanted:
                sink.on_event(event)

    # -- spans ---------------------------------------------------------
    def begin(
        self, time_ms: float, category: str, name: str, track: str = "", **fields: Any
    ) -> Optional[Span]:
        """Open a span; returns None when ``category`` is not live
        (``end(None, …)`` is safe)."""
        if category not in self.live:
            return None
        span = Span(category, name, track, time_ms, fields=fields, pid=self.pid)
        span.depth = self._stacks.open(span)
        return span

    def end(self, span: Optional[Span], time_ms: float, **fields: Any) -> None:
        if span is None or span.end_ms is not None:
            return
        span.end_ms = time_ms
        if fields:
            span.fields.update(fields)
        self._stacks.close(span)
        self._deliver_span(span)

    def span(
        self,
        start_ms: float,
        end_ms: float,
        category: str,
        name: str,
        track: str = "",
        **fields: Any,
    ) -> None:
        """Emit an already-complete span (e.g. a message flight, a WAL sync)."""
        if category not in self.live:
            return
        self._deliver_span(
            Span(category, name, track, start_ms, end_ms, fields=fields, pid=self.pid)
        )

    def _deliver_span(self, span: Span) -> None:
        category = span.category
        for sink, wanted in self._sinks:
            if category in wanted:
                sink.on_span(span)

    def open_spans(self) -> List[Span]:
        """Spans begun but not yet ended (diagnostics / leak tests)."""
        return self._stacks.open_spans()


#: A permanently disabled tracer for components constructed without one.
NULL_TRACER = Tracer()


# ----------------------------------------------------------------------
# Process-wide capture: sinks installed here bind to every new simulator.
# ----------------------------------------------------------------------
_pid_counter = itertools.count(1)
_installed_sinks: List[Sink] = []
_installed_categories: Optional[FrozenSet[str]] = None
_bound_tracers: List[Tracer] = []


def install(sinks: Iterable[Sink], categories: Optional[Iterable[str]] = None) -> None:
    """Start a process-wide capture: every Simulator created from now on
    traces into ``sinks``.  One capture at a time (captures own the global
    namespace; nesting them would silently cross-wire digests).  Simulator
    pids restart at 1, so two identical captures export identical traces."""
    global _installed_categories
    if _installed_sinks:
        raise RuntimeError("an obs capture is already installed")
    restart_pids()
    _installed_sinks.extend(sinks)
    _installed_categories = frozenset(categories) if categories is not None else None


def uninstall() -> None:
    """Stop the capture and detach every tracer it bound."""
    global _installed_categories
    for tracer in _bound_tracers:
        for sink in list(_installed_sinks):
            tracer.remove_sink(sink)
    _bound_tracers.clear()
    _installed_sinks.clear()
    _installed_categories = None


def capture_active() -> bool:
    return bool(_installed_sinks)


def installed_categories() -> Optional[FrozenSet[str]]:
    """The active capture's category filter (None = everything, or inactive)."""
    return _installed_categories


def restart_pids() -> None:
    """Number the simulators created from now on from pid 1 again."""
    global _pid_counter
    _pid_counter = itertools.count(1)


def next_pid() -> int:
    """Mint a fresh simulator pid (used when replaying forwarded records)."""
    return next(_pid_counter)


def emit_to_capture(record) -> None:
    """Feed one record straight into the installed capture's sinks.

    This is the seam for events that have no simulator tracer behind them —
    the sweep executor's point lifecycle, and records forwarded from worker
    processes.  The installed category filter still applies, so replayed
    streams and synthetic events obey the same rules as live tracers.
    No-op when no capture is installed.
    """
    if not _installed_sinks:
        return
    cats = _installed_categories
    if cats is not None and record.category not in cats:
        return
    if isinstance(record, TraceEvent):
        for sink in _installed_sinks:
            sink.on_event(record)
    else:
        for sink in _installed_sinks:
            sink.on_span(record)


def new_tracer() -> Tracer:
    """Mint the tracer for a new simulator, binding any installed capture."""
    tracer = Tracer(pid=next(_pid_counter))
    if _installed_sinks:
        for sink in _installed_sinks:
            tracer.add_sink(sink, categories=_installed_categories)
        _bound_tracers.append(tracer)
    return tracer


# ----------------------------------------------------------------------
# Post-hoc adapter: a finished transaction as an event stream.
# ----------------------------------------------------------------------
def events_from_transaction(tx) -> List[TraceEvent]:
    """The life of one finished transaction as obs events.

    Works on any object with the :class:`~repro.core.transaction
    .PlanetTransaction` audit surface (``stage_times``,
    ``likelihood_trace``, …) — duck-typed so this module stays
    import-free.  ``repro.trace`` renders these into the human timeline;
    tests diff them against live-captured streams.
    """
    events: List[TraceEvent] = []
    for stage, when in tx.stage_times.items():
        fields: Dict[str, Any] = {"txid": tx.txid}
        name = stage.value
        if name == "guessed" and tx.predicted_at_guess is not None:
            fields["p"] = tx.predicted_at_guess
        elif name == "aborted":
            fields["reason"] = tx.abort_reason.value
        elif name == "committed" and tx.commit_latency_ms() is not None:
            fields["latency_ms"] = tx.commit_latency_ms()
        events.append(TraceEvent(when, "stage", name, fields))
    for when, likelihood in tx.likelihood_trace:
        events.append(
            TraceEvent(when, "tx", "vote", {"txid": tx.txid, "likelihood": likelihood})
        )
    events.sort(key=lambda event: (event.time_ms, event.category, event.name))
    return events
