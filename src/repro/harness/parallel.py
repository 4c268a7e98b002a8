"""The parallel sweep executor: grid points across worker processes.

Every PLANET figure is a sweep (threshold grids, RTT matrices, contention
ladders).  An :class:`~repro.harness.spec.ExperimentSpec` makes each grid
point a picklable, self-describing work unit; this module executes them —
inline for ``jobs=1``, across ``jobs`` worker processes otherwise — with
four guarantees:

* **Determinism** — each point's seed is derived from (root seed, point
  key) by :func:`~repro.harness.spec.derive_seed`, so results are
  independent of scheduling, placement, and completion order.  A
  ``--jobs 4`` run is byte-identical to a serial run: same
  :class:`~repro.harness.results.ResultSet` digest, same
  :mod:`repro.obs` recorder digest.
* **Caching** — rows are cached per point (:mod:`repro.harness.cache`),
  keyed by experiment, point, seed, scale, overrides, and a source-tree
  fingerprint; re-runs skip completed points.  The cache is bypassed while
  an obs capture is installed (a trace must reflect a real execution).
* **Bounded failure** — a per-point wall-clock timeout kills stuck workers
  and retries the point a bounded number of times before the sweep fails
  with :class:`SweepPointError`.
* **Observability** — workers capture their own obs records and forward
  them; the parent replays them *in grid order* through the installed
  capture, interleaved with deterministic ``sweep`` lifecycle events.
  Wall-clock progress and straggler reports go to the ``progress``
  category (excluded from default captures, so digests stay deterministic).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue as queue_module
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro import engine, obs
from repro.harness.cache import ResultCache, code_fingerprint, point_cache_key
from repro.harness.perf import PerfReport, PhaseClock
from repro.harness.results import ResultSet
from repro.harness.spec import (
    SPECS,
    ExperimentResult,
    ExperimentSpec,
    GridPoint,
    PointContext,
    active_overrides,
)
from repro.obs.metrics import current as current_metrics
from repro.obs.metrics import peak_rss_bytes


class SweepError(RuntimeError):
    """The sweep could not complete."""


class SweepPointError(SweepError):
    """One grid point failed (exception, or timeout after bounded retries)."""

    def __init__(self, experiment_id: str, point_key: str, attempts: int, detail: str) -> None:
        self.experiment_id = experiment_id
        self.point_key = point_key
        self.attempts = attempts
        self.detail = detail
        super().__init__(
            f"{experiment_id} point {point_key!r} failed after "
            f"{attempts} attempt(s): {detail}"
        )


@dataclass
class SweepOptions:
    """Executor knobs (CLI: ``--jobs``, ``--cache-dir``, ``--no-cache``, …)."""

    jobs: int = 1
    cache: Optional[ResultCache] = None
    point_timeout_s: Optional[float] = None   # wall-clock, parallel mode only
    retries: int = 1                          # re-attempts after timeout/crash
    straggler_factor: float = 3.0             # × median wall time → straggler
    straggler_min_s: float = 10.0             # floor below which nothing straggles
    progress: Optional[Callable[[str], None]] = None
    start_method: Optional[str] = None        # default: fork if available


@dataclass
class SweepRun:
    """Everything one sweep execution produced."""

    experiment_id: str
    seed: int
    scale: float
    result: ExperimentResult
    result_set: ResultSet
    jobs: int
    cache_hits: int = 0
    cache_misses: int = 0
    wall_s: float = 0.0
    point_wall_s: Dict[str, float] = field(default_factory=dict)
    perf: Optional[PerfReport] = None
    #: High-water RSS across the parent and every worker that ran a
    #: point (bytes; 0 when every point came from the cache).
    peak_rss_bytes: int = 0


def default_start_method() -> str:
    preferred = os.environ.get("REPRO_MP_START")
    if preferred:
        return preferred
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


# ----------------------------------------------------------------------
# Point execution (shared by the inline path and the workers).
# ----------------------------------------------------------------------
def _execute_point(
    spec: ExperimentSpec,
    point: GridPoint,
    seed: int,
    scale: float,
    overrides: Mapping[str, str],
    capture: Optional[Dict[str, Any]],
) -> Tuple[Dict[str, Any], Optional[List[Dict[str, Any]]], int]:
    """Run one point; returns (row, serialised obs records or None, and
    the executing process's peak RSS in bytes after the point ran)."""
    ctx = PointContext(seed=seed, scale=scale, overrides=overrides)
    # ``--set engine.backend=...`` selects the simulator kernel for the
    # point.  Wrapping here (not in run_sweep) covers serial and worker
    # execution with the same seam; absent/auto is a no-op.
    with engine.use(overrides.get("engine.backend")), active_overrides(overrides):
        if capture is not None:
            # Unbounded: every record is forwarded to the parent.
            collector = obs.FlightRecorder(capacity=sys.maxsize)
            categories = capture["categories"]
            with obs.session(
                collector,
                categories=frozenset(categories) if categories is not None else None,
            ):
                row = spec.run_point(dict(point.params), ctx)
            records = [obs.record_to_dict(record) for record in collector.records()]
        else:
            row = spec.run_point(dict(point.params), ctx)
            records = None
    return row, records, peak_rss_bytes()


def _check_row(spec_id: str, key: str, row: Any) -> Dict[str, Any]:
    if not isinstance(row, dict):
        raise SweepError(
            f"{spec_id} point {key!r}: run_point must return a dict row, "
            f"got {type(row).__name__}"
        )
    try:
        json.dumps(row, allow_nan=True)
    except (TypeError, ValueError) as exc:
        raise SweepError(
            f"{spec_id} point {key!r}: row is not JSON-safe ({exc}); "
            "return only plain scalars/lists/dicts from run_point"
        ) from exc
    return row


def _worker_main(task_queue, result_queue) -> None:  # pragma: no cover - subprocess
    """Worker loop: pull point tasks until the ``None`` sentinel."""
    import importlib

    # Under the fork start method the child inherits the parent's installed
    # capture; drop it — worker records reach the parent via the result
    # queue, not via a forked copy of the parent's sinks.
    if obs.capture_active():
        obs.uninstall()
    while True:
        task = task_queue.get()
        if task is None:
            break
        task_id = task["task_id"]
        result_queue.put(("started", task_id, os.getpid(), None))
        try:
            # Importing the driver module registers its spec.
            importlib.import_module(task["module"])
            row, records, rss = _execute_point(
                SPECS[task["experiment_id"]],
                GridPoint(task["point_key"], task["params"]),
                task["seed"],
                task["scale"],
                task["overrides"],
                task["capture"],
            )
            result_queue.put(("done", task_id, os.getpid(), (row, records, rss)))
        except BaseException:
            result_queue.put(("error", task_id, os.getpid(), traceback.format_exc()))


# ----------------------------------------------------------------------
# Obs plumbing on the parent side.
# ----------------------------------------------------------------------
def _emit_sweep(name: str, time_ms: float, **fields: Any) -> None:
    obs.emit_to_capture(obs.TraceEvent(time_ms, "sweep", name, fields))


def _emit_progress(name: str, **fields: Any) -> None:
    obs.emit_to_capture(obs.TraceEvent(0.0, "progress", name, fields))


def _replay_records(index: int, records: List[Dict[str, Any]]) -> None:
    """Replay one point's forwarded records through the installed capture.

    Pids restart at 1 with every capture, and a worker installs one per
    point, so replay remints them from the parent's counter
    (first-appearance order) — the digest ignores pids, but the profiler
    and Chrome export need distinct simulators kept apart.
    """
    pid_map: Dict[int, int] = {}
    for payload in records:
        record = obs.record_from_dict(payload)
        new_pid = pid_map.get(record.pid)
        if new_pid is None:
            new_pid = obs.next_pid()
            pid_map[record.pid] = new_pid
        record.pid = new_pid
        obs.emit_to_capture(record)


# ----------------------------------------------------------------------
# The executor.
# ----------------------------------------------------------------------
def run_sweep(
    spec: ExperimentSpec,
    seed: int = 0,
    scale: float = 1.0,
    overrides: Optional[Mapping[str, str]] = None,
    options: Optional[SweepOptions] = None,
) -> SweepRun:
    """Execute one experiment's full grid and reduce it to its result."""
    options = options if options is not None else SweepOptions()
    overrides = dict(overrides) if overrides else {}
    started = time.monotonic()
    clock = PhaseClock()
    metrics = current_metrics()

    with clock.phase("grid"):
        points = list(spec.grid(scale))
        if not points:
            raise SweepError(f"{spec.id}: empty grid")
        keys = [point.key for point in points]
        if len(set(keys)) != len(keys):
            raise SweepError(f"{spec.id}: duplicate grid point keys")
        seeds = [spec.seed_for(seed, point) for point in points]

        capture_installed = obs.capture_active()
        capture: Optional[Dict[str, Any]] = None
        if capture_installed:
            categories = obs.installed_categories()
            capture = {"categories": sorted(categories) if categories is not None else None}

        # A trace must reflect a real execution: captures bypass the cache.
        cache = options.cache if not capture_installed else None
        fingerprint = code_fingerprint() if cache is not None else None

        rows: List[Optional[Dict[str, Any]]] = [None] * len(points)
        records_by_index: Dict[int, List[Dict[str, Any]]] = {}
        point_wall_s: Dict[str, float] = {}
        cache_keys: List[Optional[str]] = [None] * len(points)
        hits = misses = 0

        pending: List[int] = []
        for index, point in enumerate(points):
            if cache is not None:
                cache_keys[index] = point_cache_key(
                    spec.id, point.key, point.params, seeds[index], scale,
                    overrides, fingerprint,
                )
                row = cache.get(spec.id, cache_keys[index])
                if row is not None:
                    rows[index] = row
                    hits += 1
                    point_wall_s[point.key] = 0.0
                    continue
                misses += 1
            pending.append(index)

    if metrics.enabled:
        metrics.inc("sweep.points", len(points), experiment=spec.id)
        metrics.inc("sweep.cache_hits", hits, experiment=spec.id)
        metrics.inc("sweep.cache_misses", misses, experiment=spec.id)

    jobs = max(1, int(options.jobs))
    parallel = jobs > 1 and len(pending) > 1
    peak_rss = 0

    def note(message: str) -> None:
        if options.progress is not None:
            options.progress(message)

    with clock.phase("points"):
        if parallel:
            outcomes = _run_parallel(
                spec, points, seeds, pending, scale, overrides, capture,
                jobs, options, note,
            )
            for index, (row, records, wall_s, rss) in outcomes.items():
                rows[index] = _check_row(spec.id, points[index].key, row)
                point_wall_s[points[index].key] = wall_s
                peak_rss = max(peak_rss, rss)
                if records is not None:
                    records_by_index[index] = records
                if cache is not None:
                    cache.put(
                        spec.id, cache_keys[index], rows[index],
                        meta={"experiment": spec.id, "point": points[index].key,
                              "seed": seeds[index], "scale": scale},
                    )
            # Deterministic replay pass, in grid order: lifecycle events
            # interleaved with each point's forwarded records — the same
            # sink-visible sequence the serial path produces live.
            for index, point in enumerate(points):
                _emit_sweep(
                    "point_start", float(index),
                    experiment=spec.id, key=point.key, index=index, seed=seeds[index],
                )
                if index in records_by_index:
                    _replay_records(index, records_by_index[index])
                _emit_sweep("point_done", float(index), experiment=spec.id,
                            key=point.key, index=index)
        else:
            for index, point in enumerate(points):
                _emit_sweep(
                    "point_start", float(index),
                    experiment=spec.id, key=point.key, index=index, seed=seeds[index],
                )
                if rows[index] is None:
                    point_started = time.monotonic()
                    # Inline: simulators bind the installed capture directly,
                    # so records flow live — no forwarding needed.
                    row, _, rss = _execute_point(
                        spec, point, seeds[index], scale, overrides, capture=None
                    )
                    rows[index] = _check_row(spec.id, point.key, row)
                    peak_rss = max(peak_rss, rss)
                    wall_s = time.monotonic() - point_started
                    point_wall_s[point.key] = wall_s
                    if cache is not None:
                        cache.put(
                            spec.id, cache_keys[index], rows[index],
                            meta={"experiment": spec.id, "point": point.key,
                                  "seed": seeds[index], "scale": scale},
                        )
                    _emit_progress("point_finished", experiment=spec.id,
                                   key=point.key, wall_s=wall_s, cached=False)
                    note(f"[{spec.id}] {point.key}: done in {wall_s:.1f}s "
                         f"({index + 1}/{len(points)})")
                else:
                    _emit_progress("point_finished", experiment=spec.id,
                                   key=point.key, wall_s=0.0, cached=True)
                    note(f"[{spec.id}] {point.key}: cached ({index + 1}/{len(points)})")
                _emit_sweep("point_done", float(index), experiment=spec.id,
                            key=point.key, index=index)

    if metrics.enabled:
        for wall_s in point_wall_s.values():
            if wall_s > 0:
                metrics.observe("sweep.point_wall_s", wall_s, experiment=spec.id)
        if peak_rss > 0:
            # High-water mark across this sweep's executing processes;
            # wall-clock-nondeterministic by nature (like worker
            # utilization), so it never feeds rows or digests.
            metrics.max_gauge("sweep.peak_rss_bytes", peak_rss, experiment=spec.id)

    with clock.phase("reduce"):
        result_set = ResultSet(
            experiment_id=spec.id,
            seed=seed,
            scale=scale,
            points=[(point.key, rows[index]) for index, point in enumerate(points)],
        )
        reduce_ctx = PointContext(seed=seed, scale=scale, overrides=overrides)
        with active_overrides(overrides):
            result = spec.reduce([dict(row) for row in result_set.rows()], reduce_ctx)
    perf = clock.report()
    perf.peak_rss_bytes = peak_rss
    return SweepRun(
        experiment_id=spec.id,
        seed=seed,
        scale=scale,
        result=result,
        result_set=result_set,
        jobs=jobs if parallel else 1,
        cache_hits=hits,
        cache_misses=misses,
        wall_s=time.monotonic() - started,
        point_wall_s=point_wall_s,
        perf=perf,
        peak_rss_bytes=peak_rss,
    )


# ----------------------------------------------------------------------
# The multiprocess scheduler.
# ----------------------------------------------------------------------
def _run_parallel(
    spec: ExperimentSpec,
    points: List[GridPoint],
    seeds: List[int],
    pending: List[int],
    scale: float,
    overrides: Mapping[str, str],
    capture: Optional[Dict[str, Any]],
    jobs: int,
    options: SweepOptions,
    note: Callable[[str], None],
) -> Dict[int, Tuple[Dict[str, Any], Optional[List[Dict[str, Any]]], float, int]]:
    """Fan ``pending`` point indices across worker processes.

    Returns {point index: (row, records, wall_s, worker peak RSS
    bytes)}.  Workers that exceed the
    per-point timeout (or die) are terminated and replaced; their point is
    requeued up to ``options.retries`` extra attempts.
    """
    mp_context = multiprocessing.get_context(
        options.start_method or default_start_method()
    )
    task_queue = mp_context.Queue()
    result_queue = mp_context.Queue()
    n_workers = min(jobs, len(pending))

    def make_task(index: int) -> Dict[str, Any]:
        return {
            "task_id": index,
            "experiment_id": spec.id,
            "module": spec.module,
            "point_key": points[index].key,
            "params": dict(points[index].params),
            "seed": seeds[index],
            "scale": scale,
            "overrides": dict(overrides),
            "capture": capture,
        }

    workers: Dict[int, Any] = {}   # os pid -> Process

    def spawn_worker() -> None:
        process = mp_context.Process(
            target=_worker_main, args=(task_queue, result_queue), daemon=True
        )
        process.start()
        workers[process.pid] = process

    attempts: Dict[int, int] = {index: 1 for index in pending}
    running: Dict[int, Tuple[float, Optional[int]]] = {}  # index -> (start, pid)
    flagged_stragglers: set = set()
    outcomes: Dict[int, Tuple[Dict[str, Any], Optional[List[Dict[str, Any]]], float, int]] = {}
    failure: Optional[SweepPointError] = None
    metrics = current_metrics()
    sched_started = time.monotonic()

    try:
        for index in pending:
            task_queue.put(make_task(index))
        for _ in range(n_workers):
            spawn_worker()

        def fail_or_retry(index: int, detail: str, *, retryable: bool) -> None:
            nonlocal failure
            if retryable and attempts[index] <= options.retries:
                attempts[index] += 1
                if metrics.enabled:
                    metrics.inc("sweep.retries", experiment=spec.id)
                note(f"[{spec.id}] {points[index].key}: {detail}; retrying "
                     f"(attempt {attempts[index]}/{options.retries + 1})")
                _emit_progress("point_retry", experiment=spec.id,
                               key=points[index].key, detail=detail)
                task_queue.put(make_task(index))
            else:
                failure = SweepPointError(
                    spec.id, points[index].key, attempts[index], detail
                )

        while len(outcomes) < len(pending) and failure is None:
            try:
                kind, task_id, worker_pid, payload = result_queue.get(timeout=0.2)
            except queue_module.Empty:
                kind = None
            if kind == "started":
                running[task_id] = (time.monotonic(), worker_pid)
            elif kind == "done":
                started_at, _ = running.pop(task_id, (time.monotonic(), None))
                wall_s = time.monotonic() - started_at
                row, records, rss = payload
                outcomes[task_id] = (row, records, wall_s, rss)
                _emit_progress(
                    "point_finished", experiment=spec.id,
                    key=points[task_id].key, wall_s=wall_s, cached=False,
                    worker=worker_pid, attempt=attempts[task_id],
                )
                note(f"[{spec.id}] {points[task_id].key}: done in {wall_s:.1f}s "
                     f"({len(outcomes)}/{len(pending)})")
            elif kind == "error":
                running.pop(task_id, None)
                # A Python exception in run_point is deterministic; retrying
                # would fail identically, so fail fast.
                fail_or_retry(task_id, f"exception in worker:\n{payload}",
                              retryable=False)

            now = time.monotonic()
            # Stuck workers: kill past the timeout, requeue the point.
            if options.point_timeout_s is not None:
                for index, (started_at, pid) in list(running.items()):
                    if now - started_at <= options.point_timeout_s:
                        continue
                    running.pop(index)
                    process = workers.pop(pid, None)
                    if process is not None:
                        process.terminate()
                        process.join(timeout=2.0)
                        if process.is_alive():  # pragma: no cover - stubborn child
                            process.kill()
                            process.join(timeout=2.0)
                        spawn_worker()
                    fail_or_retry(
                        index,
                        f"timed out after {options.point_timeout_s:.1f}s",
                        retryable=True,
                    )
            # Dead workers (crash/OOM): requeue whatever they were running.
            for pid, process in list(workers.items()):
                if process.is_alive():
                    continue
                workers.pop(pid)
                orphans = [i for i, (_, p) in running.items() if p == pid]
                for index in orphans:
                    running.pop(index)
                    fail_or_retry(
                        index,
                        f"worker died (exit code {process.exitcode})",
                        retryable=True,
                    )
                if len(outcomes) < len(pending) and failure is None:
                    spawn_worker()
            # Stragglers: report, never kill.
            finished_walls = sorted(wall for _, _, wall, _ in outcomes.values())
            if finished_walls:
                median = finished_walls[len(finished_walls) // 2]
                threshold = max(options.straggler_min_s, options.straggler_factor * median)
                for index, (started_at, _) in running.items():
                    elapsed = now - started_at
                    if elapsed > threshold and index not in flagged_stragglers:
                        flagged_stragglers.add(index)
                        if metrics.enabled:
                            metrics.inc("sweep.stragglers", experiment=spec.id)
                        _emit_progress(
                            "straggler", experiment=spec.id,
                            key=points[index].key, wall_s=elapsed,
                            median_s=median,
                        )
                        note(f"[{spec.id}] {points[index].key}: straggling "
                             f"({elapsed:.1f}s vs median {median:.1f}s)")
        if failure is not None:
            raise failure
        if metrics.enabled:
            # Busy time summed over completed points vs. the worker-pool
            # wall capacity: 1.0 = every worker busy the whole time.
            elapsed = time.monotonic() - sched_started
            busy = sum(wall for _, _, wall, _ in outcomes.values())
            if elapsed > 0 and n_workers > 0:
                metrics.set_gauge(
                    "sweep.worker_utilization",
                    min(1.0, busy / (elapsed * n_workers)),
                    experiment=spec.id,
                )
        return outcomes
    finally:
        for process in workers.values():
            if process.is_alive():
                task_queue.put(None)
        deadline = time.monotonic() + 5.0
        for process in workers.values():
            process.join(timeout=max(0.1, deadline - time.monotonic()))
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        task_queue.cancel_join_thread()
        result_queue.cancel_join_thread()
        task_queue.close()
        result_queue.close()
