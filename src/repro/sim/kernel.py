"""The simulator: a virtual clock plus an event loop.

Time is measured in **milliseconds** throughout the code base, matching the
unit every latency number in the paper is reported in.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.obs.events import Tracer, new_tracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.metrics import current as current_metrics
from repro.sim.events import Event, EventQueue
from repro.sim.rng import RngRegistry


class Simulator:
    """Deterministic discrete-event simulator.

    Components schedule callbacks with :meth:`schedule` (relative delay) or
    :meth:`schedule_at` (absolute time); :meth:`run` drains the queue in time
    order, advancing :attr:`now`.

    A :class:`~repro.sim.rng.RngRegistry` derived from ``seed`` hangs off the
    simulator so every component can obtain an independent, reproducible
    random stream by name.
    """

    def __init__(self, seed: int = 0) -> None:
        self.now: float = 0.0
        self.seed = seed
        self.rng = RngRegistry(seed)
        # The per-simulator tracer (repro.obs).  Each instrumented call site
        # tests its own category against ``tracer.live`` — empty unless an
        # obs capture is installed or a sink is attached directly;
        # components read it at call time via their ``sim`` reference, so
        # attaching a sink is instant everywhere.
        self.tracer: Tracer = new_tracer()
        # The metrics facade (repro.obs.metrics).  NULL_METRICS — one
        # attribute load and one branch per instrumented call site — unless
        # a collection is installed when the simulator is built.
        self.metrics: MetricsRegistry = current_metrics()
        self._queue = EventQueue()
        self._events_processed = 0
        self._running = False
        self._stopped = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` ms from now (delay >= 0)."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        return self._queue.push(self.now + delay, fn, args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute simulated time ``time``."""
        if time < self.now:
            raise ValueError(f"cannot schedule in the past: {time} < {self.now}")
        return self._queue.push(time, fn, args)

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at the current instant (after pending events)."""
        return self._queue.push(self.now, fn, args)

    def schedule_daemon(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule background work that never keeps the simulation alive.

        Daemon events (anti-entropy ticks, periodic monitors) run normally
        while foreground work exists — or up to an explicit ``until`` horizon
        — but :meth:`run` without a horizon stops once only daemons remain.
        """
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        return self._queue.push(self.now + delay, fn, args, daemon=True)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next event.  Returns False when the queue is empty."""
        event = self._queue.pop()
        if event is None:
            return False
        self.now = event.time
        self._events_processed += 1
        if self.metrics.enabled or "sim" in self.tracer.live:
            self._observe_dispatch(event)
        event.fn(*event.args)
        return True

    def _observe_dispatch(self, event: Event) -> None:
        """Per-event metrics/trace emission (off the fast loop's spine)."""
        metrics = self.metrics
        if metrics.enabled:
            metrics.inc("sim.events")
            # Raw heap length (cancelled entries included), matching the
            # depth the batched loop samples.
            metrics.max_gauge("sim.queue_depth", float(len(self._queue._heap)))
        tracer = self.tracer
        if "sim" in tracer.live:
            fn = event.fn
            tracer.emit(
                self.now, "sim", "dispatch",
                fn=getattr(fn, "__qualname__", None) or type(fn).__name__,
            )

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Process events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fired earlier, so back-to-back ``run`` calls
        compose predictably.

        The dispatch loop is deliberately inlined rather than delegating to
        :meth:`step`: at full-grid scale the per-event method calls
        (``peek_time`` + ``pop`` + ``step``) dominated kernel time.  Heap
        entries are ``(time, seq, Event)`` tuples, so one ``heappop`` per
        event replaces peek-then-pop and every sift comparison runs in C.
        """
        self._running = True
        self._stopped = False
        queue = self._queue
        heap = queue._heap
        heappop = heapq.heappop
        tracer = self.tracer
        metrics = self.metrics
        fired = 0
        try:
            if until is None and max_events is None:
                # Unbounded drain: the overwhelmingly common call.  The
                # foreground count is exact (cancel releases it eagerly),
                # so the loop condition alone is the drain check.
                dispatch_traced = "sim" in tracer.live
                mirror = metrics._tracer
                if not metrics.enabled and not dispatch_traced:
                    while heap and queue._foreground and not self._stopped:
                        entry = heappop(heap)
                        event = entry[2]
                        if event.cancelled:
                            continue
                        event._queue = None
                        queue._live -= 1
                        if not event.daemon:
                            queue._foreground -= 1
                        self.now = entry[0]
                        self._events_processed += 1
                        event.fn(*event.args)
                elif not dispatch_traced and (mirror is None or "metric" not in mirror.live):
                    # Metrics on, but nothing traces dispatches or mirrors
                    # increments into a trace stream: the per-event counter
                    # and the queue high-water mark can be accumulated in
                    # locals and flushed once — the final values are
                    # identical (counts sum, max is associative).
                    dispatched = 0
                    depth_hw = 0
                    try:
                        while heap and queue._foreground and not self._stopped:
                            entry = heappop(heap)
                            event = entry[2]
                            if event.cancelled:
                                continue
                            event._queue = None
                            queue._live -= 1
                            if not event.daemon:
                                queue._foreground -= 1
                            self.now = entry[0]
                            dispatched += 1
                            depth = len(heap)
                            if depth > depth_hw:
                                depth_hw = depth
                            event.fn(*event.args)
                    finally:
                        if dispatched:
                            self._events_processed += dispatched
                            metrics.inc("sim.events", dispatched)
                            metrics.max_gauge("sim.queue_depth", float(depth_hw))
                else:
                    while heap and queue._foreground and not self._stopped:
                        entry = heappop(heap)
                        event = entry[2]
                        if event.cancelled:
                            continue
                        event._queue = None
                        queue._live -= 1
                        if not event.daemon:
                            queue._foreground -= 1
                        self.now = entry[0]
                        self._events_processed += 1
                        self._observe_dispatch(event)
                        event.fn(*event.args)
            else:
                while not self._stopped:
                    if max_events is not None and fired >= max_events:
                        break
                    while heap and heap[0][2].cancelled:
                        heappop(heap)
                    if not heap:
                        break
                    entry = heap[0]
                    next_time = entry[0]
                    if until is not None and next_time > until:
                        break
                    if until is None and queue._foreground == 0:
                        break  # only background daemons remain: drained
                    heappop(heap)
                    event = entry[2]
                    event._queue = None
                    queue._live -= 1
                    if not event.daemon:
                        queue._foreground -= 1
                    self.now = next_time
                    self._events_processed += 1
                    if metrics.enabled or "sim" in tracer.live:
                        self._observe_dispatch(event)
                    event.fn(*event.args)
                    fired += 1
        finally:
            self._running = False
            metrics = self.metrics
            if metrics.enabled:
                # Simulated horizon per simulator (summed by PerfReport for
                # the simulated-time/wall-time ratio).
                metrics.max_gauge("sim.now_ms", self.now, pid=self.tracer.pid)
        if until is not None and self.now < until and not self._stopped:
            self.now = until

    def stop(self) -> None:
        """Stop :meth:`run` after the current event finishes."""
        self._stopped = True

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    @property
    def foreground_pending(self) -> int:
        """Pending non-daemon events (what keeps ``run()`` alive)."""
        return self._queue.foreground_count

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def __repr__(self) -> str:
        return (
            f"<Simulator now={self.now:.3f}ms pending={self.pending_events} "
            f"processed={self._events_processed}>"
        )
