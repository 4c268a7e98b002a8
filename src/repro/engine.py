"""Engine selection: one seam between callers and the simulator kernel.

The simulator has two interchangeable implementations:

* ``python`` — :class:`repro.sim.kernel.Simulator`, the pure-python
  reference kernel.  Always available.
* ``compiled`` — :class:`repro.sim.compiled.CompiledSimulator`, a C
  extension port of the same hot loop (see ``src/repro/_ckernel.c``),
  byte-identical in every observable — event order, rng consumption,
  ResultSet/obs/history digests — and ~10× faster at raw dispatch.

Nothing in the tree imports ``Simulator`` directly for execution any
more; Cluster, the scale shards, and every registered experiment go
through :func:`get_kernel` / :func:`build_simulator`, so one override —
``--set engine.backend=...`` on the CLI, ``ClusterConfig(backend=...)``
in code, or the :func:`use` context manager — switches the whole stack.

``auto`` (the default everywhere) resolves to the compiled kernel when
the extension is built, else the python kernel — so a checkout without
a C toolchain behaves exactly as before.  An extension that is present
but does not import (stale ABI, undefined symbol) is an error, never a
silent fallback: see :func:`compiled_available`.
"""

from __future__ import annotations

import importlib.util
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Optional, Type

BACKENDS = ("auto", "compiled", "python")

#: Process-local backend selection consumed by ``auto`` (set by
#: :func:`use`, which the sweep executor wraps around every point so
#: ``--set engine.backend=...`` reaches serial and worker runs alike).
_selected: ContextVar[Optional[str]] = ContextVar("engine_backend", default=None)

_REBUILD = "python setup.py build_ext --inplace"

_compiled_cls: Optional[type] = None
_compiled_checked = False


class BackendUnavailableError(RuntimeError):
    """The compiled backend was requested but is not built, or is built
    and does not import."""


def _load_compiled() -> Optional[type]:
    global _compiled_cls, _compiled_checked
    if not _compiled_checked:
        # Only "no such module" means not built.  A ``_ckernel*.so`` that
        # is there and fails to import must not degrade ``auto`` to python
        # and turn the parity suite into skips.
        if importlib.util.find_spec("repro._ckernel") is not None:
            try:
                from repro.sim.compiled import CompiledSimulator
            except ImportError as exc:
                raise BackendUnavailableError(
                    f"repro._ckernel is built but does not import ({exc}); "
                    f"rebuild it with `{_REBUILD}` or delete the stale "
                    "extension file"
                ) from exc
            _compiled_cls = CompiledSimulator
        _compiled_checked = True
    return _compiled_cls


def compiled_available() -> bool:
    """True when the ``repro._ckernel`` extension is built and imports.

    False only when no such module exists on this checkout; one that
    exists and fails to import raises :class:`BackendUnavailableError`.
    """
    return _load_compiled() is not None


def normalize_backend(backend: Optional[str]) -> str:
    name = "auto" if backend is None else str(backend).strip().lower()
    if name not in BACKENDS:
        raise ValueError(
            f"unknown engine backend {backend!r}: choose from {'/'.join(BACKENDS)}"
        )
    return name


def get_kernel(backend: str = "auto") -> Type:
    """Return the simulator class for ``backend``.

    ``auto`` honours the ambient :func:`use` selection first (that is how
    ``--set engine.backend=...`` arrives), then prefers the compiled
    kernel when built, else falls back to pure python.  ``compiled``
    raises :class:`BackendUnavailableError` with build instructions when
    the extension is missing — an explicit request must not silently
    degrade.
    """
    name = normalize_backend(backend)
    if name == "auto":
        ambient = _selected.get()
        name = ambient if ambient is not None else (
            "compiled" if compiled_available() else "python"
        )
    if name == "python":
        from repro.sim.kernel import Simulator

        return Simulator
    cls = _load_compiled()
    if cls is None:
        raise BackendUnavailableError(
            "compiled kernel requested but repro._ckernel is not built; "
            f"build it with `{_REBUILD}` or use backend='python'"
        )
    return cls


def build_simulator(seed: int = 0, backend: str = "auto"):
    """Construct a simulator for ``backend`` (the one seam Cluster uses)."""
    return get_kernel(backend)(seed=seed)


def backend_name(sim_or_cls) -> str:
    """``"compiled"`` or ``"python"`` for a simulator instance or class."""
    cls = sim_or_cls if isinstance(sim_or_cls, type) else type(sim_or_cls)
    compiled = _load_compiled()
    if compiled is not None and issubclass(cls, compiled):
        return "compiled"
    return "python"


@contextmanager
def use(backend: Optional[str]) -> Iterator[None]:
    """Select the backend ``auto`` resolves to within this context.

    ``None`` and ``"auto"`` leave the ambient selection untouched, so the
    executor can wrap every point unconditionally.
    """
    name = normalize_backend(backend)
    if name == "auto":
        yield
        return
    if name == "compiled":
        get_kernel("compiled")  # fail fast with the build hint
    token = _selected.set(name)
    try:
        yield
    finally:
        _selected.reset(token)


def describe() -> dict:
    """Backend facts for CLI/status output and the tier-1 test header."""
    ambient = _selected.get()
    return {
        "available": ["python"] + (["compiled"] if compiled_available() else []),
        "auto_resolves_to": ambient
        or ("compiled" if compiled_available() else "python"),
    }
