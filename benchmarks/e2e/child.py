"""One run of one workload, in a process of its own.

``child.py WORKLOAD MODE SEED SCALE SPAWNED_AT [TRACE_OUT]`` runs the
workload's entry call once and prints one JSON object on its last output
line.  MODE is ``timed`` (obs off), ``counts`` (a MetricsRegistry installed
through ``obs.session``) or ``traced`` (obs off, cProfile around the entry
call; the profile's caller edges go to TRACE_OUT).  SPAWNED_AT is the
parent's CLOCK_MONOTONIC reading just before it started this process, so
``setup_s`` covers interpreter start, imports and input construction.
"""

from __future__ import annotations

import cProfile
import dataclasses
import importlib.util
import json
import pstats
import resource
import sys
import time
from pathlib import Path

import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
PACKAGE_DIR = HERE.parents[1] / "src" / "repro"
BUILD_LIB = HERE / ".build" / "lib"


def monotonic() -> float:
    """A clock parent and child share (perf_counter's origin is per process)."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def import_repro(compiled: bool) -> None:
    """Import ``repro`` from the source tree, never from an installed copy.

    For the compiled backend the out-of-tree build directory joins the
    package's search path *before* ``repro/__init__`` runs, because the net
    layer looks for ``repro._ckernel`` while it is being imported.
    """
    sys.path.insert(0, str(PACKAGE_DIR.parent))
    if not compiled:
        return
    spec = importlib.util.spec_from_file_location(
        "repro",
        PACKAGE_DIR / "__init__.py",
        submodule_search_locations=[str(PACKAGE_DIR), str(BUILD_LIB / "repro")],
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["repro"] = module
    spec.loader.exec_module(module)


def timed(entry):
    wall, cpu = time.perf_counter(), time.process_time()
    raw = entry()
    return raw, time.perf_counter() - wall, time.process_time() - cpu


def main(argv) -> int:
    name, mode = argv[0], argv[1]
    seed, scale, spawned_at = int(argv[2]), float(argv[3]), float(argv[4])
    workload = WORKLOADS[name]
    import_repro(workload.backend == "compiled")
    from repro import engine, obs

    entry, summarise = workload.prepare(seed, scale)
    out = {}
    # Every workload pins its kernel, so a stray in-tree extension cannot
    # change the numbers of the python-backend workloads.
    with engine.use(workload.backend):
        out["backend"] = engine.backend_name(engine.get_kernel())
        out["setup_s"] = monotonic() - spawned_at
        if mode == "timed":
            raw, wall_s, cpu_s = timed(entry)
        elif mode == "counts":
            registry = obs.MetricsRegistry()
            with obs.session(metrics=registry):
                raw, wall_s, cpu_s = timed(entry)
        elif mode == "traced":
            profile = cProfile.Profile()
            raw, wall_s, cpu_s = profile.runcall(timed, entry)
        else:
            raise SystemExit(f"unknown mode {mode!r}")
    out["wall_s"], out["cpu_s"] = wall_s, cpu_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["summary"] = dataclasses.asdict(summarise(raw))

    if mode == "counts":
        out["counts"] = layers.counts(registry.snapshot())
    if mode == "traced":
        out["layers"], rows = layers.budget(pstats.Stats(profile).stats, str(PACKAGE_DIR))
        rows.sort(key=lambda row: row["self_s"], reverse=True)
        trace_out = Path(argv[5])
        trace_out.parent.mkdir(parents=True, exist_ok=True)
        trace_out.write_text(json.dumps(
            {"workload": name, "seed": seed, "scale": scale, "wall_s": wall_s, "rows": rows}
        ))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
