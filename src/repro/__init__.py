"""PLANET reproduction: predictive latency-aware networked transactions.

Reproduction of *PLANET: Making Progress with Commit Processing in
Unpredictable Environments* (Pang, Kraska, Franklin, Fekete — SIGMOD 2014)
on a deterministic discrete-event simulation of a five-data-center,
strongly consistent, geo-replicated database.  See DESIGN.md for the system
inventory and EXPERIMENTS.md for the reproduced evaluation.

This module is the curated public surface — everything in ``__all__`` is
supported API; modules not re-exported here are internal (see the
architecture section of README.md for the internal/public split):

* :class:`Cluster` / :class:`ClusterConfig` — build the simulated
  deployment (``ClusterConfig(backend=...)`` selects the simulator
  kernel);
* :class:`PlanetClient` / :class:`PlanetSession` / :class:`PlanetConfig`
  — the application-facing transaction API and its configuration;
* :func:`run_experiment` — drive one workload against a cluster;
* :mod:`repro.engine` / :func:`get_kernel` — simulator-kernel selection
  (pure-python vs the optional compiled extension);
* :func:`check_history` — the client-visible consistency checker
  (``python -m repro check``);
* :func:`run_shard` — one shard of the planet-scale simulation
  (``python -m repro run scaleout_1m``);
* :mod:`repro.experiments` — the registry with one spec per paper
  figure/table (``registry.get(id).run(...)``).

The heavier entry points load lazily so ``import repro`` stays cheap.
"""

from typing import Any

from repro.cluster import Cluster, ClusterConfig
from repro.core.client import PlanetClient
from repro.core.session import PlanetConfig, PlanetSession
from repro.core.stages import TxStage
from repro.core.transaction import PlanetTransaction
from repro.core.admission import AdmissionPolicy
from repro.ops import AbortReason, Outcome

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "ClusterConfig",
    "PlanetClient",
    "PlanetConfig",
    "PlanetSession",
    "PlanetTransaction",
    "TxStage",
    "AdmissionPolicy",
    "AbortReason",
    "Outcome",
    "engine",
    "get_kernel",
    "run_experiment",
    "RunConfig",
    "check_history",
    "run_shard",
    "__version__",
]

#: Lazy exports (PEP 562): attribute name -> (module, attribute or None
#: for the module itself).  Keeps ``import repro`` free of the harness,
#: checker, and scale machinery until they are actually used.
_LAZY = {
    "engine": ("repro.engine", None),
    "get_kernel": ("repro.engine", "get_kernel"),
    "run_experiment": ("repro.harness.runner", "run_experiment"),
    "RunConfig": ("repro.harness.config", "RunConfig"),
    "check_history": ("repro.check.checker", "check_history"),
    "run_shard": ("repro.scale.shard", "run_shard"),
}


def __getattr__(name: str) -> Any:
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module 'repro' has no attribute {name!r}") from None
    import importlib

    module = importlib.import_module(module_name)
    value = module if attr is None else getattr(module, attr)
    globals()[name] = value  # cache: __getattr__ runs once per name
    return value


def __dir__() -> list:
    return sorted(set(globals()) | set(_LAZY))
