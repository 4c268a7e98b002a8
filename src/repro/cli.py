"""Command-line interface: list, run, trace, and profile the experiments.

Usage::

    python -m repro list
    python -m repro run f6_commit_latency [--seed 3] [--scale 0.5]
    python -m repro run f9 --jobs 4           # shard the sweep across workers
    python -m repro run f9 --set admission_threshold=0.5
    python -m repro run f6 --profile          # where did the milliseconds go
    python -m repro run --all [--scale 0.3]
    python -m repro trace f6 --out f6.json    # Chrome trace_event capture
    python -m repro check campaign --schedules 50 --jobs 4
    python -m repro check replay plan.json    # re-run a saved fault plan
    python -m repro check predict history.json --expect-anomaly lost-update

Experiment ids accept unambiguous prefixes (``f6`` → ``f6_commit_latency``);
discovery and prefix matching live in :mod:`repro.experiments.registry`.
Every experiment prints the rows/series of the corresponding paper
figure/table plus its shape checks; the exit code is non-zero when any
shape check fails, so the CLI composes with scripts and CI.

``run`` executes each experiment's grid through the
:mod:`repro.harness.parallel` sweep executor: ``--jobs N`` shards points
across worker processes (deterministically — same digests as ``--jobs 1``),
completed points are cached under ``--cache-dir`` (default
``.repro_cache``, or ``$REPRO_CACHE_DIR``; disable with ``--no-cache``),
and ``--set key=value`` overrides any :class:`PlanetConfig` field for the
whole run (dotted keys reach nested configs, e.g.
``--set likelihood.use_deadline=false``).

``trace`` re-runs one experiment with the :mod:`repro.obs` flight recorder
installed and writes a Chrome ``trace_event`` file that opens directly in
``chrome://tracing`` or https://ui.perfetto.dev.  ``run --profile`` instead
aggregates spans into a per-category simulated-time breakdown per simulator.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional

from repro import obs
from repro.experiments import registry
from repro.harness.spec import ExperimentSpec

DEFAULT_CACHE_DIR = ".repro_cache"


def _resolve_spec(experiment_id: str) -> ExperimentSpec:
    try:
        return registry.get(experiment_id)
    except LookupError as exc:  # Unknown/Ambiguous → CLI-friendly exit
        raise SystemExit(str(exc)) from exc


def _parse_overrides(pairs: Optional[List[str]]) -> Dict[str, str]:
    from repro.config import ConfigOverrideError, parse_override_args, strip_reserved
    from repro.core.session import PlanetConfig

    try:
        overrides = parse_override_args(pairs or [])
        # Validate once, up front, against the config the drivers build —
        # a typo should die here, not minutes into a sweep point.  Keys in
        # RESERVED_NAMESPACES (check./scale./engine.) are consumed by a
        # driver's own knob parser or the harness, not PlanetConfig.
        PlanetConfig.from_overrides(strip_reserved(overrides))
    except ConfigOverrideError as exc:
        raise SystemExit(f"bad --set override: {exc}") from exc
    if "engine.backend" in overrides:
        from repro import engine

        try:
            # Fail now (with the build hint) rather than mid-sweep when
            # an explicit "compiled" has no extension behind it.
            with engine.use(overrides["engine.backend"]):
                pass
        except (ValueError, engine.BackendUnavailableError) as exc:
            raise SystemExit(f"bad --set override: {exc}") from exc
    return overrides


def cmd_list(_args: argparse.Namespace) -> int:
    specs = registry.all()
    width = max(len(spec.id) for spec in specs)
    for spec in specs:
        print(f"  {spec.id.ljust(width)}  {spec.title}")
    return 0


def _build_cache(args: argparse.Namespace):
    if getattr(args, "no_cache", False):
        return None
    from repro.harness.cache import ResultCache

    directory = args.cache_dir or os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR
    return ResultCache(directory)


def cmd_run(args: argparse.Namespace) -> int:
    from repro.harness.parallel import SweepOptions, run_sweep

    targets: List[str] = (
        registry.ids() if args.all else [_resolve_spec(e).id for e in args.experiments]
    )
    if not targets:
        raise SystemExit("nothing to run: name experiments or pass --all")
    overrides = _parse_overrides(args.set)
    json_dir = None
    if args.json is not None:
        import pathlib

        json_dir = pathlib.Path(args.json)
        json_dir.mkdir(parents=True, exist_ok=True)
    options = SweepOptions(
        jobs=args.jobs,
        cache=_build_cache(args),
        point_timeout_s=args.point_timeout,
        progress=lambda message: print(message, file=sys.stderr),
    )
    failures = 0
    for experiment_id in targets:
        spec = _resolve_spec(experiment_id)
        if args.profile:
            profiler = obs.SpanAggregator()
            with obs.session(profiler):
                sweep = run_sweep(
                    spec, seed=args.seed, scale=args.scale,
                    overrides=overrides, options=options,
                )
        else:
            profiler = None
            sweep = run_sweep(
                spec, seed=args.seed, scale=args.scale,
                overrides=overrides, options=options,
            )
        result = sweep.result
        result.print()
        summary = (
            f"[sweep] {spec.id}: {len(sweep.result_set.points)} point(s), "
            f"jobs={sweep.jobs}, {sweep.wall_s:.1f}s wall"
        )
        if options.cache is not None:
            summary += f", cache {sweep.cache_hits} hit / {sweep.cache_misses} miss"
        print(summary, file=sys.stderr)
        if sweep.perf is not None:
            print(f"[{spec.id}] {sweep.perf.summary_line()}", file=sys.stderr)
        if profiler is not None:
            for pid in profiler.pids():
                print(obs.render_profile(profiler.profile(pid), top=args.profile_top))
                print()
        if json_dir is not None:
            import json as json_module

            path = json_dir / f"{spec.id}.json"
            path.write_text(json_module.dumps(result.to_dict(), indent=2))
            print(f"wrote {path}")
        if not result.all_checks_pass:
            failures += 1
    if failures:
        print(f"{failures} experiment(s) had failing shape checks", file=sys.stderr)
        return 1
    return 0


def cmd_check_campaign(args: argparse.Namespace) -> int:
    from repro.check import campaign
    from repro.experiments import check_campaign
    from repro.harness.parallel import SweepOptions, run_sweep

    # Campaign knobs travel on the override channel under the ``check.``
    # prefix; they are campaign parameters, not PlanetConfig fields, so
    # they bypass _parse_overrides validation by construction.
    overrides = {
        "check.duration_ms": str(args.duration_ms),
        "check.intensity": str(args.intensity),
    }
    if args.broken:
        overrides["check.broken"] = "1"
    scale = args.scale
    if args.schedules is not None:
        if args.schedules < 1:
            raise SystemExit("--schedules must be >= 1")
        scale = args.schedules / check_campaign.BASE_SCHEDULES
    sweep = run_sweep(
        check_campaign.SPEC,
        seed=args.seed,
        scale=scale,
        overrides=overrides,
        options=SweepOptions(
            jobs=args.jobs,
            progress=lambda message: print(message, file=sys.stderr),
        ),
    )
    result = sweep.result
    result.print()
    print(
        f"[campaign] {len(sweep.result_set.points)} schedule(s), "
        f"jobs={sweep.jobs}, {sweep.wall_s:.1f}s wall",
        file=sys.stderr,
    )
    if not result.all_checks_pass and args.save_plan is not None:
        campaign.write_plan(args.save_plan, result.data["replay_plan"])
        print(
            f"wrote minimal failing plan (schedule s{result.data['min_failing_index']:04d}) "
            f"to {args.save_plan}; replay with: python -m repro check replay "
            f"{args.save_plan}"
        )
    return 0 if result.all_checks_pass else 1


def cmd_check_replay(args: argparse.Namespace) -> int:
    from repro.check import campaign

    try:
        payload = campaign.load_plan(args.plan)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"check replay: {exc}") from exc
    row = campaign.replay(payload)
    print(
        f"replayed plan: seed={row['seed']} "
        f"duration={payload['duration_ms']:.0f}ms "
        f"intensity={payload['intensity']:g} broken={row['broken']}"
    )
    print(f"faults: {row['plan_text']}")
    print(f"{row['txs']} transactions, {row['ops']} history ops")
    print(f"history digest: {row['digest']}")
    stable = row["digest_stable"]
    print(f"digest byte-stable across two runs: {stable}")
    violations = row["violations"]
    print(f"violations: {len(violations)}")
    for violation in violations:
        print(f"  [{violation['invariant']}] {violation['detail']}")
    return 0 if stable and not violations else 1


def cmd_check_predict(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.check import campaign
    from repro.check.history import HISTORY_FORMAT, History, check_history_file
    from repro.check.predict import predict_report

    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            payload = json_module.load(handle)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"check predict: {exc}") from exc

    fmt = payload.get("format") if isinstance(payload, dict) else None
    if fmt == HISTORY_FORMAT:
        # A stored history: predict it twice to prove the analysis itself
        # is deterministic (same witnesses, same order).
        try:
            check_history_file(payload, args.path)
        except ValueError as exc:
            raise SystemExit(f"check predict: {exc}") from exc
        history = History.from_dict(payload)
        first = predict_report(history)
        second = predict_report(history)
        digest = history.digest()
        stable = first == second
        source = f"history file ({len(history)} ops)"
    elif fmt == campaign.PLAN_FORMAT:
        # A replayable fault plan: re-execute it twice end to end; both the
        # history digest and the prediction must be byte-stable.
        try:
            campaign.check_plan(payload, args.path)
        except ValueError as exc:
            raise SystemExit(f"check predict: {exc}") from exc

        def once():
            row = campaign.run_plan(payload, with_history=True)
            history = History.from_dict(row["history"])
            return row["digest"], predict_report(history), len(history)

        first_digest, first, ops = once()
        second_digest, second, _ = once()
        digest = first_digest
        stable = first_digest == second_digest and first == second
        source = f"replayed plan seed={payload['seed']} ({ops} ops)"
    else:
        raise SystemExit(
            f"check predict: {args.path}: unrecognised format {fmt!r} "
            f"(expected {HISTORY_FORMAT!r} or {campaign.PLAN_FORMAT!r})"
        )

    print(f"predicted {first['total']} witness(es) from {source}")
    print(f"history digest: {digest}")
    print(f"prediction byte-stable across two passes: {stable}")
    for anomaly, count in sorted(first["counts"].items()):
        print(f"  {anomaly}: {count}")
    for witness in first["witnesses"][: args.max_print]:
        print(f"  {witness['description']}")
    expected = args.expect_anomaly or []
    missing = [name for name in expected if name not in first["counts"]]
    if missing:
        print(f"MISSING expected anomaly kind(s): {', '.join(missing)}")
    return 0 if stable and not missing else 1


def cmd_trace(args: argparse.Namespace) -> int:
    spec = _resolve_spec(args.experiment)
    overrides = _parse_overrides(args.set)
    if args.categories:
        categories = frozenset(args.categories.split(","))
        unknown = categories - frozenset(obs.CATEGORIES)
        if unknown:
            raise SystemExit(
                f"unknown categories: {', '.join(sorted(unknown))}; "
                f"known: {', '.join(obs.CATEGORIES)}"
            )
    else:
        categories = obs.DEFAULT_CATEGORIES
    recorder = obs.FlightRecorder(capacity=args.capacity)
    with obs.session(recorder, categories=categories):
        result = spec.run(seed=args.seed, scale=args.scale, overrides=overrides)
    document = obs.write_chrome_trace(args.out, recorder)
    if args.jsonl is not None:
        lines = obs.write_jsonl(args.jsonl, recorder.records())
        print(f"wrote {lines} records to {args.jsonl}")
    evicted = f" ({recorder.evicted} evicted)" if recorder.evicted else ""
    print(
        f"traced {spec.id}: {recorder.seen_events} events, "
        f"{recorder.seen_spans} spans{evicted}; categories: "
        f"{', '.join(recorder.categories())}"
    )
    print(
        f"wrote {len(document['traceEvents'])} trace events to {args.out} — "
        "open in chrome://tracing or https://ui.perfetto.dev"
    )
    return 0 if result.all_checks_pass else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="PLANET (SIGMOD 2014) reproduction experiments",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    list_parser = subparsers.add_parser("list", help="list available experiments")
    list_parser.set_defaults(func=cmd_list)

    run_parser = subparsers.add_parser("run", help="run one or more experiments")
    run_parser.add_argument("experiments", nargs="*", help="experiment ids")
    run_parser.add_argument("--all", action="store_true", help="run every experiment")
    run_parser.add_argument("--seed", type=int, default=0)
    run_parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="duration/sample scale factor (1.0 = full reproduction)",
    )
    run_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes to shard grid points across (default: 1, "
        "serial; results are identical at any value)",
    )
    run_parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        default=None,
        help="override a PlanetConfig field for the whole run (repeatable; "
        "dotted keys reach nested configs, e.g. likelihood.use_deadline=false)",
    )
    run_parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=f"per-point result cache directory (default: $REPRO_CACHE_DIR "
        f"or {DEFAULT_CACHE_DIR})",
    )
    run_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every point; do not read or write the cache",
    )
    run_parser.add_argument(
        "--point-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill and retry a grid point stuck longer than this "
        "(parallel mode only)",
    )
    run_parser.add_argument(
        "--json",
        metavar="DIR",
        default=None,
        help="also write each result as JSON into DIR",
    )
    run_parser.add_argument(
        "--profile",
        action="store_true",
        help="print a per-category simulated-time breakdown per simulator",
    )
    run_parser.add_argument(
        "--profile-top",
        type=int,
        default=None,
        metavar="N",
        help="with --profile, keep only the N largest categories per table "
        "and fold the rest into one row",
    )
    run_parser.set_defaults(func=cmd_run)

    check_parser = subparsers.add_parser(
        "check",
        help="history-based consistency checking: fault campaigns and plan "
        "replay (see docs/checking.md)",
    )
    check_sub = check_parser.add_subparsers(dest="check_command", required=True)
    campaign_parser = check_sub.add_parser(
        "campaign",
        help="run N seeded fault schedules, checking each run's history",
    )
    campaign_parser.add_argument("--seed", type=int, default=0)
    campaign_parser.add_argument(
        "--schedules",
        type=int,
        default=None,
        metavar="N",
        help="number of fault schedules (default: 50; overrides --scale)",
    )
    campaign_parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="schedule-count scale factor (1.0 = 50 schedules)",
    )
    campaign_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes to shard schedules across",
    )
    campaign_parser.add_argument(
        "--duration-ms",
        type=float,
        default=6_000.0,
        help="simulated workload duration per schedule (default: 6000)",
    )
    campaign_parser.add_argument(
        "--intensity",
        type=float,
        default=1.0,
        help="fault intensity multiplier (default: 1.0)",
    )
    campaign_parser.add_argument(
        "--broken",
        action="store_true",
        help="enable the seeded quorum-check mutation (checker validation: "
        "the campaign MUST fail)",
    )
    campaign_parser.add_argument(
        "--save-plan",
        metavar="PATH",
        default=None,
        help="on failure, write the minimal failing schedule's replayable "
        "plan JSON to PATH",
    )
    campaign_parser.set_defaults(func=cmd_check_campaign)
    replay_parser = check_sub.add_parser(
        "replay",
        help="re-execute a saved fault plan twice, re-check it, and verify "
        "the history digest is byte-stable",
    )
    replay_parser.add_argument("plan", help="path to a campaign plan JSON file")
    replay_parser.set_defaults(func=cmd_check_replay)
    predict_parser = check_sub.add_parser(
        "predict",
        help="predictive analysis: report anomalies the declared isolation "
        "levels permit on a stored history (or a replayed plan)",
    )
    predict_parser.add_argument(
        "path",
        help="a repro.check/history-v1 history file or a repro.check/plan-v1 "
        "campaign plan",
    )
    predict_parser.add_argument(
        "--expect-anomaly",
        action="append",
        metavar="KIND",
        default=None,
        help="fail unless this anomaly kind is predicted (repeatable; e.g. "
        "lost-update, write-skew, long-fork, non-monotonic-read)",
    )
    predict_parser.add_argument(
        "--max-print",
        type=int,
        default=10,
        help="witness descriptions to print (default: 10)",
    )
    predict_parser.set_defaults(func=cmd_check_predict)

    trace_parser = subparsers.add_parser(
        "trace",
        help="run one experiment with the flight recorder on and export a "
        "Chrome trace_event file (chrome://tracing, Perfetto)",
    )
    trace_parser.add_argument("experiment", help="experiment id (prefix ok)")
    trace_parser.add_argument(
        "--out", default="trace.json", help="output path (default: trace.json)"
    )
    trace_parser.add_argument("--seed", type=int, default=0)
    trace_parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="duration/sample scale factor (1.0 = full reproduction)",
    )
    trace_parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        default=None,
        help="override a PlanetConfig field for the traced run (repeatable)",
    )
    trace_parser.add_argument(
        "--capacity",
        type=int,
        default=1_000_000,
        help="flight-recorder ring size; oldest records evict beyond this",
    )
    trace_parser.add_argument(
        "--categories",
        default=None,
        metavar="CAT[,CAT…]",
        help=f"comma-separated categories to capture (default: all except "
        f"'sim' and 'progress'; known: {','.join(obs.CATEGORIES)})",
    )
    trace_parser.add_argument(
        "--jsonl",
        metavar="PATH",
        default=None,
        help="also write the raw record stream as JSON lines",
    )
    trace_parser.set_defaults(func=cmd_trace)
    return parser


def main(argv: List[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
