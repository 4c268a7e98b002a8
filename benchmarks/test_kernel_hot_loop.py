"""Micro-benchmarks of the kernel's dispatch fast path.

These isolate what ``Simulator.run()`` costs per event with nothing on
top: tuple-heap push/pop with heavy same-instant tie-breaking, the fully
unguarded drain loop, the batched metrics-on loop, and cancellation
churn.
"""

from __future__ import annotations

from repro.obs.metrics import MetricsRegistry, install, uninstall
from repro.sim.kernel import Simulator


def _self_rescheduling_sim(n_actors: int = 32, per_actor: int = 500) -> Simulator:
    """A simulator loaded with actors that reschedule themselves on
    quantized delays (lots of equal-time heap entries)."""
    sim = Simulator(seed=7)
    rng = sim.rng.stream("bench")

    def make_actor(index: int):
        remaining = [per_actor]

        def tick() -> None:
            remaining[0] -= 1
            if remaining[0] > 0:
                sim.schedule(rng.randrange(0, 4) * 0.5, tick)

        return tick

    for index in range(n_actors):
        sim.schedule(rng.randrange(0, 4) * 0.5, make_actor(index))
    return sim


def test_unguarded_drain_loop(benchmark):
    """events/sec of run() with tracer and metrics both disabled."""

    def drain():
        sim = _self_rescheduling_sim()
        sim.run()
        return sim.events_processed

    events = benchmark(drain)
    assert events == 32 * 500


def test_metrics_on_drain_loop(benchmark):
    """Same drain with a registry installed: the batched-observation loop."""

    def drain():
        registry = MetricsRegistry()
        install(registry)
        try:
            sim = _self_rescheduling_sim()
            sim.run()
        finally:
            uninstall()
        assert registry.counter("sim.events") == sim.events_processed
        return sim.events_processed

    events = benchmark(drain)
    assert events == 32 * 500


def test_cancellation_churn(benchmark):
    """Push/cancel/drain cycles: eager foreground release + lazy discard."""

    def churn():
        sim = Simulator(seed=11)
        fired = [0]

        def noop() -> None:
            fired[0] += 1

        for i in range(2000):
            keep = sim.schedule(float(i % 13), noop)
            victim = sim.schedule(float(i % 13) + 0.25, noop)
            victim.cancel()
            assert keep is not victim
        sim.run()
        return fired[0]

    fired = benchmark(churn)
    assert fired == 2000
