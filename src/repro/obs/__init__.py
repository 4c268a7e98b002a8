"""``repro.obs`` — system-wide tracing, span profiling, flight recording.

The observability subsystem every other layer reports into:

* :mod:`~repro.obs.events` — the structured event bus (`TraceEvent`,
  `Tracer`, sinks) with a no-op fast path when tracing is off;
* :mod:`~repro.obs.spans` — simulated-time spans with per-track nesting;
* :mod:`~repro.obs.recorder` — the bounded flight recorder and its
  deterministic digest;
* :mod:`~repro.obs.export` — JSONL and Chrome ``trace_event`` export
  (opens in ``chrome://tracing`` / Perfetto);
* :mod:`~repro.obs.profile` — the "where did the milliseconds go"
  simulated-time profiler;
* :mod:`~repro.obs.metrics` — the counters/gauges/histograms facade with
  the same no-op fast path and process-wide install discipline.

Typical use from tests or drivers::

    from repro import obs

    recorder = obs.FlightRecorder()
    with obs.session(recorder):
        result = run_experiment(config)   # every Simulator created inside
                                          # the block traces into recorder
    obs.write_chrome_trace("trace.json", recorder)

See ``docs/observability.md`` for the category reference and sink API.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Tuple

from repro.obs.events import (
    CATEGORIES,
    DEFAULT_CATEGORIES,
    NULL_TRACER,
    Sink,
    TraceEvent,
    Tracer,
    capture_active,
    emit_to_capture,
    events_from_transaction,
    install,
    installed_categories,
    new_tracer,
    next_pid,
    restart_pids,
    uninstall,
)
from repro.obs import metrics as _metrics_module
from repro.obs.export import (
    chrome_trace,
    record_from_dict,
    record_to_dict,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.metrics import active as metrics_active
from repro.obs.metrics import current as current_metrics
from repro.obs.profile import ProfileReport, SpanAggregator, render_profile
from repro.obs.recorder import FlightRecorder
from repro.obs.spans import Span

__all__ = [
    "CATEGORIES",
    "DEFAULT_CATEGORIES",
    "NULL_METRICS",
    "NULL_TRACER",
    "FlightRecorder",
    "MetricsRegistry",
    "ObsSession",
    "ProfileReport",
    "Sink",
    "Span",
    "SpanAggregator",
    "TraceEvent",
    "Tracer",
    "capture_active",
    "chrome_trace",
    "current_metrics",
    "emit_to_capture",
    "events_from_transaction",
    "install",
    "installed_categories",
    "metrics_active",
    "new_tracer",
    "next_pid",
    "record_from_dict",
    "record_to_dict",
    "render_profile",
    "session",
    "uninstall",
    "write_chrome_trace",
    "write_jsonl",
]


@dataclass(frozen=True)
class ObsSession:
    """Handles yielded by :func:`session`: whatever was installed."""

    sinks: Tuple[Sink, ...]
    metrics: Optional[MetricsRegistry]  # None when no registry was asked for


@contextmanager
def session(
    *sinks: Sink,
    categories: Optional[Iterable[str]] = DEFAULT_CATEGORIES,
    metrics=None,
) -> Iterator[ObsSession]:
    """The one way to install observability process-wide.

    Every simulator created inside the block traces into ``sinks`` and
    records into the metrics registry::

        recorder, history = obs.FlightRecorder(), HistoryRecorder()
        with obs.session(recorder, history, metrics=True) as s:
            run_experiment(config)
        s.metrics.snapshot()
        check_history(history.history())   # repro.check

    ``categories`` defaults to everything except per-dispatch ``sim`` and
    wall-clock ``progress`` events (``history`` included); pass
    ``categories=None`` for the full firehose.  ``metrics`` is ``True`` for
    a fresh :class:`MetricsRegistry`, an existing registry to install, or
    ``None``/``False`` for no metrics.  Everything installed is
    uninstalled on exit, in reverse order.  Code recording one simulator
    while an outer session may be live attaches a sink to that simulator
    instead, e.g. ``HistoryRecorder().attach(sim)``.
    """
    registry: Optional[MetricsRegistry] = None
    if metrics is True:
        registry = MetricsRegistry()
    elif metrics:
        registry = metrics
    if not sinks and registry is None:
        raise ValueError(
            "obs.session(...) would install nothing: pass sinks and/or metrics=..."
        )
    if sinks:
        install(sinks, categories=categories)
    else:
        # Metric labels carry simulator pids too: number them per session.
        restart_pids()
    if registry is not None:
        _metrics_module.install(registry)
    try:
        yield ObsSession(sinks, registry)
    finally:
        if registry is not None:
            _metrics_module.uninstall()
        if sinks:
            uninstall()
