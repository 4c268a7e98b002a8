"""SC1 — sharded planet-scale simulation (1M open-loop users).

Thin registry shim: the implementation lives in
:mod:`repro.scale.experiment` (the ``repro.scale`` subsystem), but the
experiment keeps a module here so discovery, the worker import path and
the module contract match every other driver.
"""

from __future__ import annotations

from repro.scale.experiment import SPEC

__all__ = ["SPEC"]
