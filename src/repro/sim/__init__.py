"""Deterministic discrete-event simulation kernel.

All protocol latency in this reproduction is *simulated*: the kernel advances
a virtual clock from event to event, so a five-data-center experiment with
hundreds of milliseconds of wide-area latency per message runs in wall-clock
time proportional only to the number of events, never to the simulated
latencies.  This is the substitution that makes latency-sensitive transaction
benchmarks reproducible from Python (see DESIGN.md).
"""

from repro.sim.events import Event, EventQueue
from repro.sim.kernel import Simulator
from repro.sim.process import Process
from repro.sim.rng import RngRegistry

__all__ = ["Event", "EventQueue", "Simulator", "Process", "RngRegistry"]
