"""Python face of the compiled simulator kernel.

``CompiledSimulator`` subclasses the C ``SimulatorBase`` from
:mod:`repro._ckernel` and supplies exactly what the pure-python
:class:`repro.sim.kernel.Simulator` builds in ``__init__`` — the rng
registry, a fresh tracer, and the currently-installed metrics facade —
so every component that duck-types against ``sim`` sees an identical
surface.  The observed-dispatch hook stays in python (it only runs when
instrumentation is on) and samples the same raw heap length the
interpreted loop does, keeping recorder digests byte-identical.

:mod:`repro.engine` imports this module only when ``repro._ckernel``
exists; an ImportError from here (undefined symbol, ABI mismatch below)
therefore means a stale build, which the engine reports as an error.
"""

from __future__ import annotations

from repro import _ckernel
from repro.obs.events import Tracer, new_tracer
from repro.obs.metrics import MetricsRegistry
from repro.obs.metrics import current as current_metrics
from repro.sim.rng import RngRegistry

_EXPECTED_ABI = 1
if getattr(_ckernel, "ABI_VERSION", None) != _EXPECTED_ABI:
    raise ImportError(
        f"repro._ckernel ABI {getattr(_ckernel, 'ABI_VERSION', None)!r} != "
        f"{_EXPECTED_ABI}"
    )


class CompiledSimulator(_ckernel.SimulatorBase):
    """Deterministic discrete-event simulator, compiled hot loop.

    Drop-in for :class:`repro.sim.kernel.Simulator`: same constructor,
    same scheduling/run/stop API, same observable event order, and —
    the hard contract — byte-identical ResultSet/obs/history digests.
    """

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed, RngRegistry(seed), new_tracer(), current_metrics())

    def _observe_dispatch(self, event) -> None:
        """Per-event metrics/trace emission (identical to the python kernel)."""
        metrics: MetricsRegistry = self.metrics
        if metrics.enabled:
            metrics.inc("sim.events")
            # Raw heap length (cancelled entries included), matching the
            # depth the batched loop samples.
            metrics.max_gauge("sim.queue_depth", float(self._queue.heap_len))
        tracer: Tracer = self.tracer
        if "sim" in tracer.live:
            fn = event.fn
            tracer.emit(
                self.now, "sim", "dispatch",
                fn=getattr(fn, "__qualname__", None) or type(fn).__name__,
            )

    def __repr__(self) -> str:
        return (
            f"<CompiledSimulator now={self.now:.3f}ms pending={self.pending_events} "
            f"processed={self.events_processed}>"
        )
