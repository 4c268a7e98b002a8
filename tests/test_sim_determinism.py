"""Determinism properties of the kernel's inlined fast loop.

The dispatch loop in :meth:`Simulator.run` was rewritten for speed (tuple
heap entries, three specialised sub-loops, batched metrics).  These tests
pin its *semantics* against a deliberately naive reference simulator — a
flat list scanned with ``min()`` per step — across the scenarios the fast
paths special-case: same-instant tie-breaking, cancel-then-fire,
daemon-only drain, and arbitrary ``run(until=...)`` / ``max_events``
interleavings.  Both simulators execute the same generated program; any
divergence in firing order, clock, or event count is a kernel bug.

Every property runs against each available backend (the pure-python
kernel always; the compiled ``repro._ckernel`` port when built), so the
C kernel is held to the same reference semantics — and one extra
property asserts the two backends agree with *each other* directly.
"""

from __future__ import annotations

import importlib.machinery
import sys
import types

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import engine
from repro.obs.metrics import MetricsRegistry, install, uninstall

#: Every kernel implementation importable on this checkout.
BACKENDS = ["python"] + (["compiled"] if engine.compiled_available() else [])


class _NaiveEvent:
    __slots__ = ("time", "seq", "label", "daemon", "cancelled", "actions")

    def __init__(self, time, seq, label, daemon, actions):
        self.time = time
        self.seq = seq
        self.label = label
        self.daemon = daemon
        self.cancelled = False
        self.actions = actions

    def cancel(self):
        self.cancelled = True


class NaiveSimulator:
    """Reference semantics: a list, ``min()`` per dispatch, no heap.

    Mirrors the kernel's contract: events fire in ``(time, seq)`` order;
    cancelled events never fire and never count; daemons fire but do not
    keep an unbounded ``run()`` alive; ``run(until=...)`` advances the
    clock to the horizon; ``max_events`` bounds fired (not discarded)
    events.
    """

    def __init__(self):
        self.now = 0.0
        self._entries = []
        self._seq = 0
        self.fired = []
        self.events_processed = 0

    def schedule(self, delay, label, daemon=False, actions=()):
        event = _NaiveEvent(self.now + delay, self._seq, label, daemon, list(actions))
        self._seq += 1
        self._entries.append(event)
        return event

    def _next_pending(self):
        pending = [e for e in self._entries if not e.cancelled]
        if not pending:
            return None
        return min(pending, key=lambda e: (e.time, e.seq))

    def _foreground(self):
        return sum(1 for e in self._entries if not e.cancelled and not e.daemon)

    def run(self, until=None, max_events=None, perform=None):
        fired = 0
        while True:
            if max_events is not None and fired >= max_events:
                break
            event = self._next_pending()
            if event is None:
                break
            if until is not None and event.time > until:
                break
            if until is None and self._foreground() == 0:
                break
            self._entries.remove(event)
            self.now = event.time
            self.events_processed += 1
            self.fired.append((event.label, event.time))
            if perform is not None:
                perform(self, event)
            fired += 1
        if until is not None and self.now < until:
            self.now = until


# ----------------------------------------------------------------------
# The generated program: initial events plus per-event reactions.
# ----------------------------------------------------------------------
#: Delays are quantized to half-milliseconds so same-instant collisions —
#: the tie-break case — are the norm, not the exception.
_delays = st.integers(min_value=0, max_value=5).map(lambda i: i * 0.5)

_actions = st.lists(
    st.one_of(
        st.tuples(st.just("spawn"), _delays, st.booleans()),
        st.tuples(st.just("spawn_cancelled"), _delays, st.booleans()),
        st.tuples(st.just("cancel_latest"), st.just(0.0), st.just(False)),
    ),
    max_size=3,
)

_initial = st.lists(
    st.tuples(_delays, st.booleans(), _actions), min_size=1, max_size=12
)

_run_plan = st.lists(
    st.one_of(
        st.tuples(st.just("drain"), st.just(None)),
        st.tuples(st.just("until"), _delays.map(lambda d: d + 1.0)),
        st.tuples(st.just("max"), st.integers(min_value=1, max_value=20)),
    ),
    min_size=1,
    max_size=4,
).map(lambda plan: plan + [("drain", None)])


def _drive_real(initial, plan, backend="python"):
    sim = engine.get_kernel(backend)(seed=0)
    fired = []
    live = []  # cancellable events, newest last (mirrors the naive side)

    def make_callback(label, actions):
        def callback():
            fired.append((label, sim.now))
            for kind, delay, daemon in actions:
                if kind == "spawn":
                    child_label = f"{label}/s{len(fired)}"
                    live.append(_real_schedule(child_label, delay, daemon, ()))
                elif kind == "spawn_cancelled":
                    child_label = f"{label}/x{len(fired)}"
                    live.append(_real_schedule(child_label, delay, daemon, ()))
                    live[-1].cancel()
                elif kind == "cancel_latest" and live:
                    live.pop().cancel()

        return callback

    def _real_schedule(label, delay, daemon, actions):
        callback = make_callback(label, actions)
        if daemon:
            return sim.schedule_daemon(delay, callback)
        return sim.schedule(delay, callback)

    for index, (delay, daemon, actions) in enumerate(initial):
        live.append(_real_schedule(f"e{index}", delay, daemon, actions))
    for kind, value in plan:
        if kind == "drain":
            sim.run()
        elif kind == "until":
            sim.run(until=sim.now + value)
        else:
            sim.run(max_events=value)
    return fired, sim.now, sim.events_processed


def _drive_naive(initial, plan):
    sim = NaiveSimulator()
    live = []

    def perform(simulator, event):
        for kind, delay, daemon in event.actions:
            if kind == "spawn":
                label = f"{event.label}/s{len(simulator.fired)}"
                live.append(simulator.schedule(delay, label, daemon=daemon))
            elif kind == "spawn_cancelled":
                label = f"{event.label}/x{len(simulator.fired)}"
                live.append(simulator.schedule(delay, label, daemon=daemon))
                live[-1].cancel()
            elif kind == "cancel_latest" and live:
                live.pop().cancel()

    for index, (delay, daemon, actions) in enumerate(initial):
        live.append(sim.schedule(delay, f"e{index}", daemon=daemon, actions=actions))
    for kind, value in plan:
        if kind == "drain":
            sim.run(perform=perform)
        elif kind == "until":
            sim.run(until=sim.now + value, perform=perform)
        else:
            sim.run(max_events=value, perform=perform)
    return sim.fired, sim.now, sim.events_processed


@pytest.mark.parametrize("backend", BACKENDS)
class TestFastLoopMatchesReference:
    @given(_initial, _run_plan)
    @settings(max_examples=200, deadline=None)
    def test_same_firing_sequence(self, backend, initial, plan):
        real = _drive_real(initial, plan, backend)
        naive = _drive_naive(initial, plan)
        assert real == naive

    @given(_initial, _run_plan)
    @settings(max_examples=50, deadline=None)
    def test_metrics_installed_does_not_change_order(self, backend, initial, plan):
        """The batched metrics loop fires the same sequence as the bare
        loop, and its flushed counter equals the dispatch count."""
        bare = _drive_real(initial, plan, backend)
        registry = MetricsRegistry()
        install(registry)
        try:
            observed = _drive_real(initial, plan, backend)
        finally:
            uninstall()
        assert observed == bare
        assert registry.counter("sim.events") == observed[2]


@pytest.mark.skipif(
    not engine.compiled_available(), reason="compiled kernel not built"
)
class TestBackendsAgree:
    @given(_initial, _run_plan)
    @settings(max_examples=100, deadline=None)
    def test_python_and_compiled_fire_identically(self, initial, plan):
        assert _drive_real(initial, plan, "python") == _drive_real(
            initial, plan, "compiled"
        )


class TestStaleExtension:
    """An extension that exists but does not import is an error, not
    "not built": it must never degrade ``auto`` to python silently."""

    def test_abi_mismatch_raises_with_rebuild_hint(self, monkeypatch):
        import repro

        fake = types.ModuleType("repro._ckernel")
        fake.__spec__ = importlib.machinery.ModuleSpec("repro._ckernel", None)
        fake.ABI_VERSION = -1
        monkeypatch.setitem(sys.modules, "repro._ckernel", fake)
        monkeypatch.setattr(repro, "_ckernel", fake, raising=False)
        monkeypatch.delitem(sys.modules, "repro.sim.compiled", raising=False)
        monkeypatch.setattr(engine, "_compiled_checked", False)
        monkeypatch.setattr(engine, "_compiled_cls", None)
        for probe in (
            engine.compiled_available,
            engine.describe,
            lambda: engine.get_kernel("auto"),
            lambda: engine.get_kernel("compiled"),
        ):
            with pytest.raises(engine.BackendUnavailableError) as error:
                probe()
            assert "ABI -1" in str(error.value)
            assert "python setup.py build_ext --inplace" in str(error.value)
        # An explicit python request never touches the extension.
        assert engine.get_kernel("python").__name__ == "Simulator"


@pytest.mark.parametrize("backend", BACKENDS)
class TestFastLoopScenarios:
    def test_same_instant_ties_fire_in_scheduling_order(self, backend):
        sim = engine.get_kernel(backend)(seed=0)
        fired = []
        for index in range(10):
            sim.schedule(5.0, fired.append, index)
        sim.run()
        assert fired == list(range(10))
        assert sim.now == 5.0

    def test_cancel_then_fire_skips_only_the_cancelled(self, backend):
        sim = engine.get_kernel(backend)(seed=0)
        fired = []
        keep = sim.schedule(1.0, fired.append, "keep")
        victim = sim.schedule(1.0, fired.append, "victim")
        later = sim.schedule(2.0, fired.append, "later")
        victim.cancel()
        victim.cancel()  # double-cancel is a no-op
        sim.run()
        assert fired == ["keep", "later"]
        assert not keep.cancelled and later is not None

    def test_daemon_only_queue_drains_immediately(self, backend):
        sim = engine.get_kernel(backend)(seed=0)
        ticks = []

        def tick():
            ticks.append(sim.now)
            sim.schedule_daemon(10.0, tick)

        sim.schedule_daemon(10.0, tick)
        sim.run()
        assert ticks == []
        assert sim.pending_events == 1  # the daemon is still queued

    def test_daemons_run_up_to_an_explicit_horizon(self, backend):
        sim = engine.get_kernel(backend)(seed=0)
        ticks = []

        def tick():
            ticks.append(sim.now)
            sim.schedule_daemon(10.0, tick)

        sim.schedule_daemon(10.0, tick)
        sim.run(until=35.0)
        assert ticks == [10.0, 20.0, 30.0]
        assert sim.now == 35.0

    def test_cancelled_foreground_does_not_keep_daemons_alive(self, backend):
        """Eager cancel accounting: once real work is cancelled, a pending
        daemon no longer runs during an unbounded drain."""
        sim = engine.get_kernel(backend)(seed=0)
        fired = []
        sim.schedule_daemon(1.0, fired.append, "daemon")
        work = sim.schedule(5.0, fired.append, "work")
        work.cancel()
        sim.run()
        assert fired == []
        assert sim.foreground_pending == 0

    def test_max_events_counts_fired_not_discarded(self, backend):
        sim = engine.get_kernel(backend)(seed=0)
        fired = []
        victims = [sim.schedule(float(i), fired.append, f"v{i}") for i in range(3)]
        for victim in victims:
            victim.cancel()
        sim.schedule(10.0, fired.append, "a")
        sim.schedule(11.0, fired.append, "b")
        sim.run(max_events=1)
        assert fired == ["a"]
        sim.run(max_events=1)
        assert fired == ["a", "b"]
