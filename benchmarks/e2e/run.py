"""The repo benchmark: six full-protocol workloads, measured from outside.

    python benchmarks/e2e/run.py --seed 0            # all six, both modes
    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python benchmarks/e2e/run.py agree A.json B.json

The parent is single-threaded and runs one child process at a time (see
child.py); it never imports ``repro`` itself, so it stays small and the
children's peak RSS is their own.  Metric names, units, directions and
bounds are read from BENCHMARK.json at the repo root — the one place they
are defined.  README.md explains every metric and workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from child import BUILD_LIB, HERE, PACKAGE_DIR, monotonic
from workloads import WORKLOADS

ROOT = HERE.parents[1]
STAMP = BUILD_LIB.parent / "stamp.json"
EXPECTED = HERE / "expected.json"
MIN_REPEATS = 3
CHILD_TIMEOUT_S = 150  # one invocation must end within 180 s
HOST_METRICS = ("setup_s", "wall_s", "cpu_s", "peak_rss_mb")
SIM_METRICS = ("sim_commit_p50_ms", "sim_commit_p99_ms", "sim_commit_rate")
SHARE_TOLERANCE = 0.03


class BenchError(Exception):
    """The benchmark could not run (missing source tree, failed build, dead child)."""


def load_spec() -> Dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Compiled kernel, built out of tree.
# ----------------------------------------------------------------------
def ensure_ext() -> float:
    """Build ``repro._ckernel`` under .build/ unless it is current.

    Returns the seconds the (possibly earlier) build took.  The build is
    keyed on the sha256 of the C source; a failed build is an error with
    the compiler's output, never a silent fallback to the python kernel.
    """
    sha = hashlib.sha256((PACKAGE_DIR / "_ckernel.c").read_bytes()).hexdigest()
    built = list(BUILD_LIB.glob("repro/_ckernel*.so"))
    if STAMP.exists() and built:
        stamp = json.loads(STAMP.read_text())
        if stamp["sha256"] == sha:
            return stamp["build_s"]
    for stale in built:  # a failed rebuild must not leave the old kernel in place
        stale.unlink()
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext",
         "--build-lib", str(BUILD_LIB), "--build-temp", str(BUILD_LIB.parent / "tmp")],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    build_s = time.perf_counter() - started
    # setup.py marks the extension optional, so a failed compile still
    # exits 0: the shared object is the evidence.
    if proc.returncode != 0 or not list(BUILD_LIB.glob("repro/_ckernel*.so")):
        raise BenchError("building repro._ckernel failed:\n" + proc.stdout + proc.stderr)
    STAMP.write_text(json.dumps({"sha256": sha, "build_s": build_s}))
    return build_s


# ----------------------------------------------------------------------
# Running children.
# ----------------------------------------------------------------------
def spawn(name: str, mode: str, seed: int, scale: float, out_dir: Path) -> Dict[str, Any]:
    cmd = [sys.executable, str(HERE / "child.py"), name, mode, str(seed), repr(scale),
           repr(monotonic()), str(out_dir / f"{name}.trace.json")]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name} ({mode}) did not finish within {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{name} ({mode}) exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


class Oracles:
    """Output checks of one workload; every failure feeds ``failed``."""

    def __init__(self, name: str, seed: int, scale: float, out_dir: Path) -> None:
        self.name, self.seed, self.scale, self.out_dir = name, seed, scale, out_dir
        self.problems: List[str] = []
        self.summary: Optional[Dict[str, Any]] = None

    def run(self, mode: str) -> Dict[str, Any]:
        run = spawn(self.name, mode, self.seed, self.scale, self.out_dir)
        if run["backend"] != WORKLOADS[self.name].backend:
            self.problems.append(f"{mode} run used the {run['backend']} kernel")
        if self.summary is None:
            self.summary = run["summary"]
            self._first_run_checks()
        elif run["summary"] != self.summary:
            self.problems.append(f"{mode} run's simulated results differ from the first run's")
        return run

    def _first_run_checks(self) -> None:
        if WORKLOADS[self.name].backend == "compiled":
            twin = spawn("mdcc_commit", "timed", self.seed, self.scale, self.out_dir)
            if twin["summary"]["digest"] != self.summary["digest"]:
                self.problems.append("compiled-kernel digest differs from the python kernel's")
        if EXPECTED.exists():
            recorded = json.loads(EXPECTED.read_text())
            digest = recorded["workloads"].get(self.name, {}).get("digest")
            if (recorded["seed"], recorded["scale"]) == (self.seed, self.scale) \
                    and digest != self.summary["digest"]:
                print(f"warning: {self.name} digest {self.summary['digest'][:12]} differs from "
                      f"the recorded {str(digest)[:12]} (a protocol change moves it, "
                      "a perf change must not)", file=sys.stderr)

    @property
    def attempted(self) -> int:
        return self.summary["attempted"]

    @property
    def failed(self) -> int:
        return self.summary["undecided"] + self.summary["violations"] + len(self.problems)


def measure(oracles: Oracles, seconds: float) -> Dict[str, Dict[str, Any]]:
    """End-to-end metrics: fresh-process repeats with obs off, medians."""
    started = time.perf_counter()
    runs: List[Dict[str, Any]] = []
    while len(runs) < MIN_REPEATS or time.perf_counter() - started < seconds:
        runs.append(oracles.run("timed"))
    values: Dict[str, Dict[str, Any]] = {}
    for metric in HOST_METRICS:
        samples = [run[metric] for run in runs]
        values[metric] = {"value": statistics.median(samples), "min": min(samples),
                          "max": max(samples), "n": len(samples)}
    values["tx_per_wall_s"] = {"value": oracles.attempted / values["wall_s"]["value"]}
    for metric in SIM_METRICS:
        values[metric] = {"value": oracles.summary[metric]}
    return values


def trace(oracles: Oracles, build_s: float, base_wall_s: Optional[float]) -> Dict[str, float]:
    """Per-layer metrics: one counts run and one cProfile run, same inputs."""
    if base_wall_s is None:
        base_wall_s = oracles.run("timed")["wall_s"]
    counted = oracles.run("counts")
    traced = oracles.run("traced")
    summary, counts, layers = oracles.summary, counted["counts"], traced["layers"]
    tx, events = summary["attempted"], counts["sim.events"]
    guesses = counts["core.guesses"]
    values = {
        "obs.history_ops": 0, "check.violations": 0, "scale.arrivals": 0,
        "scale.xshard_commits": 0, "scale.xshard_aborts": 0, "faults.schedules": 0,
    }
    values.update(layers)
    values.update(counts)
    values.update(summary["counts"])
    values.update({
        "sim.events_per_tx": events / tx,
        "sim.us_per_event": layers["sim.self_s"] / events * 1e6,
        "sim.events_per_wall_s": events / base_wall_s,
        "net.msgs_per_tx": counts["net.messages_sent"] / tx,
        "storage.wal_syncs_per_commit": counts["storage.wal_syncs"] / summary["committed"],
        "core.likelihood_evals_per_tx": layers["core.likelihood_evals"] / tx,
        "core.guess_useful_ratio": 1.0 - counts["core.apologies"] / guesses if guesses else 0.0,
        "obs.metrics_on_ratio": counted["wall_s"] / base_wall_s,
        "harness.trace_overhead_ratio": traced["wall_s"] / base_wall_s,
        "harness.ext_build_s": build_s,
        # The contract wants a number for every metric: 0 where speculation is off.
        "sim_guess_p50_ms": summary["sim_guess_p50_ms"] or 0.0,
        "sim_wrong_guess_rate": summary["sim_wrong_guess_rate"] or 0.0,
        "failed_share": oracles.failed / oracles.attempted,
    })
    return values


def with_units(values: Dict[str, Any], declared: List[Dict[str, str]]) -> Dict[str, Dict[str, Any]]:
    """Exactly the declared metrics, each with its unit; a missing one is a bug."""
    out = {}
    for metric in declared:
        value = values[metric["name"]]
        entry = dict(value) if isinstance(value, dict) else {"value": value}
        entry["unit"] = metric["unit"]
        out[metric["name"]] = entry
    return out


def run_workload(name: str, seed: int, seconds: float, scale: float, out_dir: Path,
                 spec: Dict[str, Any], modes: str) -> Dict[str, Any]:
    """Run one workload; ``modes`` is "0" (end to end), "1" (per layer) or "01"."""
    build_s = ensure_ext() if WORKLOADS[name].backend == "compiled" else 0.0
    oracles = Oracles(name, seed, scale, out_dir)
    result: Dict[str, Any] = {}
    base_wall_s = None
    if "0" in modes:
        end_to_end = measure(oracles, seconds)
        base_wall_s = end_to_end["wall_s"]["value"]
        result["end_to_end"] = with_units(end_to_end, spec["end_to_end"])
    if "1" in modes:
        result["per_layer"] = with_units(trace(oracles, build_s, base_wall_s), spec["per_layer"])
    result.update(
        correct=oracles.failed == 0, attempted=oracles.attempted, failed=oracles.failed,
        problems=oracles.problems, digest=oracles.summary["digest"],
        commit_samples=oracles.summary["commit_samples"], backend=WORKLOADS[name].backend,
    )
    return result


# ----------------------------------------------------------------------
# Reporting.
# ----------------------------------------------------------------------
def number(value: float) -> str:
    """Counts in full, measurements to six significant digits."""
    return str(int(value)) if value == int(value) else f"{value:.6g}"


def print_workload(name: str, result: Dict[str, Any]) -> None:
    print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} backend={result['backend']} "
          f"commit_samples={result['commit_samples']} digest={result['digest'][:16]}")
    for problem in result["problems"]:
        print(f"   ORACLE FAILED: {problem}")
    for section in ("end_to_end", "per_layer"):
        for metric, entry in result.get(section, {}).items():
            spread = (f"   min {entry['min']:.6g} max {entry['max']:.6g} n={entry['n']}"
                      if "n" in entry else "")
            print(f"   {metric:<32} {number(entry['value']):>14} {entry['unit']}{spread}")


def environment() -> Dict[str, Any]:
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        rev = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "git_rev": rev}


def run_all(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    document = {"schema": "repro-e2e-v1", "seed": args.seed, "scale": args.scale,
                "seconds": args.seconds, "env": environment(), "workloads": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        result = run_workload(name, args.seed, args.seconds, args.scale, args.out, spec, "01")
        print_workload(name, result)
        document["workloads"][name] = result
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "results.json").write_text(json.dumps(document, indent=1))
    print(f"results: {args.out / 'results.json'}")
    return 0 if all(r["correct"] for r in document["workloads"].values()) else 1


def run_one(args: argparse.Namespace, spec: Dict[str, Any]) -> int:
    """The driver's contract: one workload, one mode, one JSON line."""
    result = run_workload(args.workload, args.seed, args.seconds, args.scale, args.out,
                          spec, str(args.trace))
    for problem in result["problems"]:
        print(f"ORACLE FAILED: {problem}", file=sys.stderr)
    section = result["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m: {"value": e["value"], "unit": e["unit"]} for m, e in section.items()},
    }))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# agree: compare two result files.
# ----------------------------------------------------------------------
def verdict(metric: Dict[str, Any], a: Dict[str, Any], b: Dict[str, Any]) -> Optional[str]:
    """ok / regression / unresolved for one metric, None when it is not gated."""
    bound = metric.get("bound")
    if bound is not None:  # end to end
        spread = max((e["max"] - e["min"]) / e["value"] for e in (a, b)) if "n" in a else 0.0
        if spread > bound:
            return "unresolved"
        worse = (b["value"] - a["value"]) / a["value"]
        if metric["better"] == "higher":
            worse = -worse
        return "regression" if worse > bound else "ok"
    if metric["unit"] == "count":
        return "ok" if a["value"] == b["value"] else "regression"
    if metric["name"].endswith(".share"):
        return "ok" if abs(a["value"] - b["value"]) <= SHARE_TOLERANCE else "regression"
    return None


def agree(path_a: Path, path_b: Path, spec: Dict[str, Any]) -> int:
    a_doc, b_doc = json.loads(path_a.read_text()), json.loads(path_b.read_text())
    if (a_doc["seed"], a_doc["scale"]) != (b_doc["seed"], b_doc["scale"]):
        raise BenchError("the two files were run with different --seed or --scale")
    regressions = 0
    for name in a_doc["workloads"]:
        a_run, b_run = a_doc["workloads"][name], b_doc["workloads"][name]
        if a_run["digest"] != b_run["digest"]:
            print(f"{name:<16} {'digest':<32} {a_run['digest'][:12]:>14} "
                  f"{b_run['digest'][:12]:>14}  changed (warning)")
        if not b_run["correct"]:
            regressions += 1
            print(f"{name:<16} {'correct':<32} {a_run['correct']!s:>14} {'False':>14}  regression")
        for section in ("end_to_end", "per_layer"):
            for metric in spec[section]:
                a, b = a_run[section][metric["name"]], b_run[section][metric["name"]]
                status = verdict(metric, a, b)
                if status is None:
                    continue
                regressions += status == "regression"
                print(f"{name:<16} {metric['name']:<32} {number(a['value']):>14} "
                      f"{number(b['value']):>14}  {status}")
    return 1 if regressions else 0


def main(argv: List[str]) -> int:
    spec = load_spec()
    if argv[:1] == ["agree"]:
        parser = argparse.ArgumentParser(prog="run.py agree")
        parser.add_argument("a", type=Path)
        parser.add_argument("b", type=Path)
        args = parser.parse_args(argv[1:])
        return agree(args.a, args.b, spec)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every workload (self-tests only; results are not comparable)")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for results.json and <workload>.trace.json")
    args = parser.parse_args(argv)
    if not PACKAGE_DIR.is_dir():
        raise BenchError(f"no source tree at {PACKAGE_DIR}")
    return run_one(args, spec) if args.workload else run_all(args, spec)


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        sys.exit(2)
