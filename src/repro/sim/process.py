"""Generator-based processes on top of the callback kernel.

Protocol code in this repository is written callback-style (a message arrives,
a handler runs), but *client* behaviour — think, issue a transaction, wait,
repeat — reads much more naturally as sequential code.  A :class:`Process`
wraps a generator that yields delays (in ms); the kernel resumes it after each
delay.  Yielding a :class:`Waiter` suspends until some other component calls
``waiter.wake(value)``, which is how a client blocks on a transaction outcome.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.kernel import Simulator


class Waiter:
    """One-shot rendezvous between a process and an external callback."""

    __slots__ = ("_process", "_value", "_woken")

    def __init__(self) -> None:
        self._process: Optional["Process"] = None
        self._value: Any = None
        self._woken = False

    def wake(self, value: Any = None) -> None:
        """Deliver ``value`` and resume the waiting process (idempotent-safe:
        waking twice is a programming error and raises)."""
        if self._woken:
            raise RuntimeError("Waiter woken twice")
        self._woken = True
        self._value = value
        if self._process is not None:
            process = self._process
            self._process = None
            process._resume_soon(value)

    @property
    def woken(self) -> bool:
        return self._woken


class Process:
    """Drives a generator that yields float delays or :class:`Waiter` objects."""

    def __init__(self, sim: Simulator, generator: Generator[Any, Any, None], name: str = ""):
        self.sim = sim
        self.name = name
        self._generator = generator
        self._finished = False
        sim.call_soon(self._advance, None)

    @property
    def finished(self) -> bool:
        return self._finished

    def _resume_soon(self, value: Any) -> None:
        self.sim.call_soon(self._advance, value)

    def _advance(self, send_value: Any) -> None:
        if self._finished:
            return
        try:
            yielded = self._generator.send(send_value)
        except StopIteration:
            self._finished = True
            return
        if isinstance(yielded, Waiter):
            if yielded.woken:
                # The event fired before we got to wait on it; resume at once.
                self._resume_soon(yielded._value)
            else:
                yielded._process = self
        elif isinstance(yielded, (int, float)):
            self.sim.schedule(float(yielded), self._advance, None)
        else:
            raise TypeError(f"process {self.name!r} yielded {yielded!r}; expected delay or Waiter")
