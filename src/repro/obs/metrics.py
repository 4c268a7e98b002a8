"""The system-wide metrics facade: counters, gauges, labelled histograms.

This module is the quantitative half of the observability stack.  The
event bus (:mod:`repro.obs.events`) answers "what happened, in order";
the metrics layer answers "how much, how often, how slow" — cheaply
enough to leave the instrumentation compiled in everywhere.

Design mirrors the tracer exactly:

* **No-op fast path.**  With no registry installed, every instrumented
  hot path (kernel dispatch, message send, WAL append) pays one
  attribute load and one branch: components hold a reference to
  :data:`NULL_METRICS`, whose ``enabled`` is False, and guard with
  ``if metrics.enabled:`` before building any label kwargs.
* **Global install.**  Experiments build their simulators deep inside
  the harness, so callers install a registry process-wide
  (:func:`install`); every :class:`~repro.sim.kernel.Simulator` created
  while it is installed binds it at construction.
  ``repro.obs.session(metrics=...)`` wraps install/uninstall as a
  context manager.
* **Labels.**  Every instrument takes ``**labels`` (``kind=``, ``node=``,
  ``path=``, ``dc=`` …); a labelled family renders as
  ``name{k=v,…}`` with keys sorted, so snapshots and digests are
  deterministic.

Values are *simulated-time* quantities (latencies in simulated ms,
counts of simulated events); the registry itself never reads a wall
clock — harness self-observability lives in
:mod:`repro.harness.perf` instead.

Histograms are :class:`repro.stats.histogram.LatencyCdf`, the one
exact-sample distribution type; this module imports nothing else from
``repro``, so any layer can use it without cycles.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

from repro.stats.histogram import LatencyCdf


def _render(name: str, labels: Dict[str, Any]) -> str:
    """Canonical series name: ``name`` or ``name{k=v,…}`` (keys sorted).

    The single-label case — the overwhelming majority of hot-path calls
    (``kind=``, ``node=``) — skips the sort and generator machinery.
    """
    if not labels:
        return name
    if len(labels) == 1:
        for k, v in labels.items():
            return f"{name}{{{k}={v}}}"
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class MetricsRegistry:
    """Counters, gauges, and labelled histograms for one collection scope.

    One write API (:meth:`inc`/:meth:`set_gauge`/:meth:`max_gauge`/
    :meth:`observe`) serves both the per-run registries experiment
    runners build and the system-wide instrumentation installed through
    :func:`install`.
    """

    #: Class attribute so the guard ``if metrics.enabled:`` is a plain
    #: attribute load on both the real registry and :data:`NULL_METRICS`.
    enabled: bool = True

    def __init__(self) -> None:
        self._counters: Dict[str, float] = defaultdict(int)
        self._gauges: Dict[str, float] = {}
        self._hists: Dict[str, LatencyCdf] = {}
        self._tracer = None
        self._clock: Callable[[], float] = lambda: 0.0

    # -- Observability adapter (legacy) ---------------------------------
    def bind_tracer(self, tracer, clock: Callable[[], float]) -> None:
        """Mirror counter increments and histogram samples into the obs
        event stream (category ``metric``), timestamped by ``clock``.

        The registry has no time source of its own, hence the explicit
        clock (normally ``lambda: sim.now``); unbound registries behave
        exactly as before.
        """
        self._tracer = tracer
        self._clock = clock

    # -- Counters -------------------------------------------------------
    def inc(self, name: str, amount: float = 1, **labels: Any) -> None:
        key = _render(name, labels) if labels else name
        self._counters[key] += amount
        tracer = self._tracer
        if tracer is not None and "metric" in tracer.live:
            tracer.emit(self._clock(), "metric", key, delta=amount)

    def counter(self, name: str, **labels: Any) -> float:
        return self._counters.get(_render(name, labels), 0)

    def counters(self) -> Dict[str, float]:
        return dict(self._counters)

    def counter_family(self, name: str) -> float:
        """Sum of a counter family across all label combinations."""
        prefix = name + "{"
        return sum(
            v for k, v in self._counters.items() if k == name or k.startswith(prefix)
        )

    # -- Gauges ---------------------------------------------------------
    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        self._gauges[_render(name, labels)] = value

    def max_gauge(self, name: str, value: float, **labels: Any) -> None:
        """Set the gauge to ``max(current, value)`` — high-water marks."""
        key = _render(name, labels) if labels else name
        current = self._gauges.get(key)
        if current is None or value > current:
            self._gauges[key] = value

    def gauge(self, name: str, **labels: Any) -> Optional[float]:
        return self._gauges.get(_render(name, labels))

    def gauges(self) -> Dict[str, float]:
        return dict(self._gauges)

    def gauge_family(self, name: str) -> float:
        """Sum of a gauge family across all label combinations."""
        prefix = name + "{"
        return sum(
            v for k, v in self._gauges.items() if k == name or k.startswith(prefix)
        )

    # -- Histograms -----------------------------------------------------
    def observe(self, name: str, value: float, **labels: Any) -> None:
        key = _render(name, labels) if labels else name
        hist = self._hists.get(key)
        if hist is None:
            hist = self._hists[key] = LatencyCdf()
        hist.update(value)
        tracer = self._tracer
        if tracer is not None and "metric" in tracer.live:
            tracer.emit(self._clock(), "metric", key, value_ms=value)

    def hist(self, name: str, **labels: Any) -> LatencyCdf:
        key = _render(name, labels)
        hist = self._hists.get(key)
        if hist is None:
            hist = self._hists[key] = LatencyCdf()
        return hist

    def latency_names(self) -> List[str]:
        return sorted(self._hists)

    # -- Whole-registry views -------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe snapshot of everything collected (the BENCH shape)."""
        return {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
            "histograms": {
                k: self._hists[k].summary() for k in sorted(self._hists)
            },
        }

    def digest(self) -> str:
        """Canonical text rendering (used by determinism tests)."""
        parts = [f"{k}={v}" for k, v in sorted(self._counters.items())]
        parts.extend(f"{k}~{v:.6f}" for k, v in sorted(self._gauges.items()))
        for name in self.latency_names():
            hist = self._hists[name]
            parts.append(
                f"{name}:n={hist.count},p50={hist.percentile(50):.6f},"
                f"p99={hist.percentile(99):.6f}"
            )
        return "|".join(parts)


class NullMetrics(MetricsRegistry):
    """The permanently disabled registry every component starts with.

    All mutators are overridden to plain ``pass`` so a call that slips
    through an unguarded site is still safe — but call sites should
    guard with ``if metrics.enabled:`` and never pay the call at all.
    """

    enabled = False

    def inc(self, name: str, amount: float = 1, **labels: Any) -> None:
        pass

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        pass

    def max_gauge(self, name: str, value: float, **labels: Any) -> None:
        pass

    def observe(self, name: str, value: float, **labels: Any) -> None:
        pass


#: Shared disabled registry; the ``sim.metrics`` of every simulator built
#: while no collection is installed.
NULL_METRICS = NullMetrics()


# ----------------------------------------------------------------------
# Process-wide collection: one installed registry, bound by new simulators.
# ----------------------------------------------------------------------
_installed: Optional[MetricsRegistry] = None


def peak_rss_bytes() -> int:
    """Peak resident set size of the current process, in bytes (0 unknown).

    The harness-side memory gauge backing the traffic layer's
    "memory-lean" claim: the parallel executor samples it after every
    point (in the worker that ran it) and folds the high-water mark into
    ``sweep.peak_rss_bytes`` and the :class:`~repro.harness.perf
    .PerfReport`.  Wall-clock-style nondeterminism is fine here — like
    worker utilization, it never feeds rows or digests.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource
        import sys

        usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        # ru_maxrss is KiB on Linux, bytes on macOS.
        return int(usage) if sys.platform == "darwin" else int(usage) * 1024
    except (ImportError, ValueError, OSError):
        return 0


def install(registry: MetricsRegistry) -> MetricsRegistry:
    """Start a process-wide collection: every Simulator created from now
    on (and every harness-side instrument) records into ``registry``.
    One collection at a time, for the same reason obs captures are
    exclusive: nested scopes would silently cross-wire snapshots."""
    global _installed
    if _installed is not None:
        raise RuntimeError("a metrics collection is already installed")
    _installed = registry
    return registry


def uninstall() -> None:
    """Stop the collection.  Already-bound simulators keep their reference
    (their runs are usually over); new simulators bind NULL_METRICS."""
    global _installed
    _installed = None


def active() -> bool:
    return _installed is not None


def current() -> MetricsRegistry:
    """The installed registry, or :data:`NULL_METRICS` when none is."""
    registry = _installed
    return registry if registry is not None else NULL_METRICS
