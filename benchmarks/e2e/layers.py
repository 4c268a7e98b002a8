"""Per-layer numbers: a wall-clock budget from a cProfile run, and counts.

The layers are the ``repro`` packages.  The budget is a tree whose children
sum to the parent: every function's *self* time goes to exactly one layer,
so the layer shares (plus ``other``) sum to 1.  Time spent in builtins and
the standard library belongs to whoever called them, so it is handed down
the profile's caller edges to the first ``repro`` function it reaches.
"""

from __future__ import annotations

import importlib
import os
from typing import Any, Dict, List, Optional, Tuple

LAYERS = (
    "sim", "net", "storage", "paxos", "mdcc", "baselines", "core", "obs",
    "check", "faults", "scale", "workload", "harness", "stats", "cluster",
)

#: Public functions reported by name:
#: metric -> (module, qualified name, "calls" or "cum_s").
PROBES = {
    "sim.push.calls": ("repro.sim.events", "EventQueue.push", "calls"),
    "net.send.calls": ("repro.net.network", "Network.send", "calls"),
    "net.send.cum_s": ("repro.net.network", "Network.send", "cum_s"),
    "net.sample_ms.calls": ("repro.net.latency", "LatencyModel.sample_ms", "calls"),
    "storage.receive.calls": ("repro.storage.node", "StorageNode.receive", "calls"),
    "storage.wal_append.calls": ("repro.storage.wal", "WriteAheadLog.append", "calls"),
    "mdcc.progress.calls": ("repro.mdcc.coordinator", "MdccCoordinator.progress", "calls"),
    "core.likelihood_evals": (
        "repro.core.likelihood", "CommitLikelihoodModel.record_likelihood", "calls"
    ),
    "core.poisson_tail.calls": ("repro.core.likelihood", "poisson_binomial_tail", "calls"),
    "check.check_history.cum_s": ("repro.check.checker", "check_history", "cum_s"),
    "scale.merge.cum_s": ("repro.scale.merge", "merge_shards", "cum_s"),
}

Func = Tuple[str, int, str]  # cProfile's (filename, first line, name)


def _own_layer(func: Func, package_dir: str) -> Optional[str]:
    """The layer a profiled function belongs to, or None for foreign code."""
    filename, _, name = func
    if filename == "~":
        # Methods of the compiled kernel are the sim layer's own code, and
        # its message sender the net layer's, whoever calls them.
        if "_ckernel" in name:
            return "net" if "NetSender" in name else "sim"
        return None
    if not filename.startswith(package_dir + os.sep):
        return None
    head, _, rest = filename[len(package_dir) + 1:].partition(os.sep)
    if not rest:
        return "cluster"  # top-level modules: cluster.py, ops.py, engine.py
    return head if head in LAYERS else None


def _probe_key(module: str, qualname: str) -> Optional[Func]:
    """cProfile's key for a public function, None when it no longer exists."""
    try:
        target: Any = importlib.import_module(module)
        for attr in qualname.split("."):
            target = getattr(target, attr)
        code = target.__code__
    except (ImportError, AttributeError):
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def budget(stats: Dict[Func, tuple], package_dir: str) -> Tuple[Dict[str, float], List[dict]]:
    """Layer metrics and trace rows from ``pstats.Stats(...).stats``."""
    own = {func: _own_layer(func, package_dir) for func in stats}
    memo: Dict[Func, Dict[str, float]] = {}

    def spread(func: Func, stack: Tuple[Func, ...]) -> Dict[str, float]:
        """Layer mix that foreign ``func``'s time belongs to (sums to <= 1)."""
        layer = own.get(func)
        if layer is not None:
            return {layer: 1.0}
        if func in memo:
            return memo[func]
        if func in stack or func not in stats:
            return {}
        callers = stats[func][4]
        weights = {c: edge[3] for c, edge in callers.items()}  # cumulative s
        total = sum(weights.values())
        if total <= 0.0:
            weights = {c: float(edge[0]) for c, edge in callers.items()}
            total = sum(weights.values())
        mix: Dict[str, float] = {}
        for caller, weight in weights.items():
            for name, part in spread(caller, stack + (func,)).items():
                mix[name] = mix.get(name, 0.0) + part * weight / total
        memo[func] = mix
        return mix

    self_s = {layer: 0.0 for layer in LAYERS}
    entries = {layer: 0 for layer in LAYERS}
    total_s = 0.0
    rows: List[dict] = []
    for func, (_, _, tottime, _, callers) in stats.items():
        total_s += tottime
        layer = own[func]
        if layer is not None:
            self_s[layer] += tottime
        for caller, (edge_calls, _, edge_self, edge_cum) in callers.items():
            caller_mix = spread(caller, ())
            if layer is None:
                for name, part in caller_mix.items():
                    self_s[name] += edge_self * part
            elif max(caller_mix, key=caller_mix.get, default=None) != layer:
                entries[layer] += edge_calls
            rows.append({
                "function": _label(func, package_dir),
                "layer": layer,
                "caller": _label(caller, package_dir),
                "calls": edge_calls,
                "self_s": edge_self,
                "cum_s": edge_cum,
            })

    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.share"] = self_s[layer] / total_s
        metrics[f"{layer}.entries"] = entries[layer]
    metrics["other.share"] = 1.0 - sum(self_s.values()) / total_s
    for metric, (module, qualname, field) in PROBES.items():
        _, ncalls, _, cumtime, _ = stats.get(
            _probe_key(module, qualname), (0, 0, 0.0, 0.0, {})
        )
        metrics[metric] = ncalls if field == "calls" else cumtime
    return metrics, rows


def _label(func: Func, package_dir: str) -> str:
    filename, line, name = func
    if filename == "~":
        return name
    if filename.startswith(package_dir + os.sep):
        filename = "repro/" + filename[len(package_dir) + 1:]
    return f"{filename}:{line}({name})"


def _family(values: Dict[str, float], name: str, **labels: str) -> float:
    """Sum a metric over its label sets, optionally pinning some labels."""
    total = 0.0
    for key, value in values.items():
        base, _, rendered = key.partition("{")
        if base == name and all(f"{k}={v}" in rendered for k, v in labels.items()):
            total += value
    return total


def counts(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """Exact per-layer counts from a ``MetricsRegistry.snapshot()``."""
    c = snapshot["counters"]
    gauges = snapshot["gauges"]
    return {
        "sim.events": _family(c, "sim.events"),
        "sim.queue_depth_max": max(
            (v for k, v in gauges.items() if k.partition("{")[0] == "sim.queue_depth"),
            default=0.0,
        ),
        "net.messages_sent": _family(c, "net.messages_sent"),
        "net.messages_dropped": _family(c, "net.messages_dropped"),
        "net.bytes_sent": _family(c, "net.bytes_sent"),
        "storage.wal_appends": _family(c, "wal.appends"),
        "storage.wal_syncs": _family(c, "wal.syncs"),
        "paxos.ballots_fast": _family(c, "paxos.ballots", kind="fast"),
        "paxos.ballots_classic": _family(c, "paxos.ballots", kind="classic"),
        "mdcc.rounds_fast": _family(c, "mdcc.rounds", path="fast"),
        "mdcc.rounds_classic": _family(c, "mdcc.rounds", path="classic"),
        "mdcc.option_conflicts": _family(c, "mdcc.option_conflicts"),
        "mdcc.read_retries": _family(c, "mdcc.read_retries"),
        "mdcc.aborts_conflict": _family(c, "mdcc.decisions", reason="conflict"),
        "mdcc.aborts_timeout": _family(c, "mdcc.decisions", reason="timeout"),
        "core.guesses": _family(c, "planet.guesses"),
        "core.apologies": _family(c, "planet.apologies"),
        "core.admission_rejections": _family(c, "planet.admission_rejections"),
        "core.admission_delays": _family(c, "planet.admission_delays"),
    }
