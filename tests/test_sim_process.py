"""Unit tests for generator-based processes and waiters."""

from __future__ import annotations

import pytest

from repro.sim.process import Process, Waiter


class TestProcessDelays:
    def test_process_resumes_after_yielded_delay(self, sim):
        trace = []

        def body():
            trace.append(("start", sim.now))
            yield 10.0
            trace.append(("after", sim.now))

        Process(sim, body())
        sim.run()
        assert trace == [("start", 0.0), ("after", 10.0)]

    def test_multiple_processes_interleave(self, sim):
        trace = []

        def body(name, delay):
            for _ in range(2):
                yield delay
                trace.append((name, sim.now))

        Process(sim, body("fast", 1.0))
        Process(sim, body("slow", 3.0))
        sim.run()
        assert trace == [("fast", 1.0), ("fast", 2.0), ("slow", 3.0), ("slow", 6.0)]

    def test_finished_flag(self, sim):
        def body():
            yield 1.0

        process = Process(sim, body())
        assert not process.finished
        sim.run()
        assert process.finished

    def test_bad_yield_type_raises(self, sim):
        def body():
            yield "nope"

        Process(sim, body(), name="bad")
        with pytest.raises(TypeError):
            sim.run()


class TestWaiter:
    def test_process_blocks_until_woken(self, sim):
        waiter = Waiter()
        trace = []

        def body():
            value = yield waiter
            trace.append((value, sim.now))

        Process(sim, body())
        sim.schedule(25.0, waiter.wake, "result")
        sim.run()
        assert trace == [("result", 25.0)]

    def test_waiter_woken_before_wait_resumes_immediately(self, sim):
        waiter = Waiter()
        waiter.wake("early")
        trace = []

        def body():
            yield 5.0
            value = yield waiter
            trace.append((value, sim.now))

        Process(sim, body())
        sim.run()
        assert trace == [("early", 5.0)]

    def test_double_wake_raises(self):
        waiter = Waiter()
        waiter.wake()
        with pytest.raises(RuntimeError):
            waiter.wake()

    def test_woken_property(self):
        waiter = Waiter()
        assert not waiter.woken
        waiter.wake()
        assert waiter.woken
