"""Harness self-observability: where did the *wall clock* go?

The metrics facade (:mod:`repro.obs.metrics`) measures the simulated
system; this module measures the harness running it.  A
:class:`PhaseClock` wraps the phases of one sweep (grid expansion, point
execution, reduction) in wall-clock timers and folds in two kernel-side
totals read from the installed metrics registry — events processed and
simulated horizon — to yield a :class:`PerfReport`:

* wall-clock per phase,
* kernel events per wall-second (the simulator's raw throughput),
* the simulated-time / wall-time ratio (how much faster than reality
  the run went — the honest answer to "is the simulator fast enough?").

Without an installed registry the kernel totals read zero and the
report degrades to phase timings only; the phase clock itself never
touches the metrics layer's hot path.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Tuple

from repro.obs import metrics as obs_metrics


@dataclass(frozen=True)
class PhaseTiming:
    name: str
    wall_s: float


@dataclass
class PerfReport:
    """Wall-clock accounting for one harness run (a sweep)."""

    phases: List[PhaseTiming]
    wall_s: float
    kernel_events: int
    sim_ms: float
    #: High-water resident set size over the run, max across the parent
    #: and any sweep workers; 0 when not collected.  Set by the sweep
    #: executor, not the phase clock — memory is per process, not per phase.
    peak_rss_bytes: int = 0

    @property
    def events_per_sec(self) -> float:
        """Kernel events per wall-second, 0.0 when nothing was measured."""
        if self.wall_s <= 0 or self.kernel_events <= 0:
            return 0.0
        return self.kernel_events / self.wall_s

    @property
    def sim_wall_ratio(self) -> float:
        """Simulated seconds elapsed per wall second (> 1 = faster than
        real time), 0.0 when nothing was measured."""
        if self.wall_s <= 0 or self.sim_ms <= 0:
            return 0.0
        return (self.sim_ms / 1000.0) / self.wall_s

    def phase_wall_s(self, name: str) -> float:
        return sum(p.wall_s for p in self.phases if p.name == name)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "wall_s": self.wall_s,
            "phases": {p.name: p.wall_s for p in self.phases},
            "kernel_events": self.kernel_events,
            "sim_ms": self.sim_ms,
            "events_per_sec": self.events_per_sec,
            "sim_wall_ratio": self.sim_wall_ratio,
            "peak_rss_bytes": self.peak_rss_bytes,
        }

    def summary_line(self) -> str:
        """One-line rendering for stderr (``repro run``)."""
        parts = [f"wall {self.wall_s:.2f}s"]
        parts.extend(f"{p.name} {p.wall_s:.2f}s" for p in self.phases)
        if self.kernel_events:
            parts.append(f"{self.events_per_sec:,.0f} events/s")
        if self.sim_ms:
            parts.append(f"sim/wall {self.sim_wall_ratio:.1f}x")
        if self.peak_rss_bytes:
            parts.append(f"peak rss {self.peak_rss_bytes / (1024 * 1024):.0f}MB")
        return "perf: " + ", ".join(parts)


class PhaseClock:
    """Accumulates named wall-clock phases plus kernel-counter deltas.

    Snapshot the installed registry's kernel totals at construction so a
    long-lived registry (one collection spanning several sweeps) yields
    per-run deltas, not lifetime totals.
    """

    def __init__(self) -> None:
        self._started = time.monotonic()
        self._phases: List[Tuple[str, float]] = []
        self._events0, self._sim_ms0 = self._kernel_totals()

    @staticmethod
    def _kernel_totals() -> Tuple[float, float]:
        registry = obs_metrics.current()
        if not registry.enabled:
            return 0.0, 0.0
        return (
            registry.counter_family("sim.events"),
            registry.gauge_family("sim.now_ms"),
        )

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        t0 = time.monotonic()
        try:
            yield
        finally:
            self._phases.append((name, time.monotonic() - t0))

    def report(self) -> PerfReport:
        events1, sim_ms1 = self._kernel_totals()
        return PerfReport(
            phases=[PhaseTiming(name, wall) for name, wall in self._phases],
            wall_s=time.monotonic() - self._started,
            kernel_events=int(max(0.0, events1 - self._events0)),
            sim_ms=max(0.0, sim_ms1 - self._sim_ms0),
        )
