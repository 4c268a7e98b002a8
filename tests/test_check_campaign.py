"""End-to-end tests for the check_campaign experiment and replay files.

The quick tests run a handful of schedules; the acceptance-scale runs
(50 broken / 200 clean schedules, per the PR's acceptance criteria) carry
the ``slow`` marker and run in the benchmarks CI job, not tier-1.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.check import campaign
from repro.check.campaign import (
    load_plan,
    plan_payload,
    replay,
    run_schedule,
    write_plan,
)
from repro.cli import main
from repro.experiments import registry
from repro.experiments.check_campaign import SPEC
from repro.faults import FaultPlan
from repro.harness.parallel import SweepOptions, run_sweep

EXAMPLE_PLAN = Path(__file__).resolve().parents[1] / "examples" / "campaign_plan.json"


class TestRunSchedule:
    def test_clean_schedule_passes(self):
        row = run_schedule(12, duration_ms=3_000.0)
        assert row["violations"] == []
        assert row["ops"] > 0
        assert row["txs"] >= 10
        assert not row["broken"]
        FaultPlan.from_dict(row["plan"])  # plan is replay-ready

    def test_schedule_digest_is_stable(self):
        first = run_schedule(12, duration_ms=3_000.0)
        second = run_schedule(12, duration_ms=3_000.0)
        assert first["digest"] == second["digest"]

    def test_schedule_is_a_function_of_the_run_alone(self):
        # A fresh interpreter and this one after 20 other schedules observe
        # the same run: every id is minted per run, so the full metrics
        # snapshot (net.bytes_sent included) and the history digest match.
        measure = (
            "from repro import obs\n"
            "from repro.check.campaign import run_schedule\n"
            "with obs.session(metrics=True) as s:\n"
            "    row = run_schedule(3, duration_ms=2_000.0)\n"
            "result = [s.metrics.snapshot(), row['digest']]\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
        fresh = subprocess.run(
            [sys.executable, "-c", measure + "import json; print(json.dumps(result))"],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert fresh.returncode == 0, fresh.stderr
        for seed in range(100, 120):
            run_schedule(seed, duration_ms=2_000.0)
        namespace = {}
        exec(measure, namespace)
        snapshot, digest = json.loads(fresh.stdout)
        assert snapshot["counters"]["net.bytes_sent{kind=Phase2a}"] > 0
        assert json.loads(json.dumps(namespace["result"])) == [snapshot, digest]

    def test_broken_build_caught(self):
        # The seeded mutation commits on any single accept; a handful of
        # schedules is enough for the quorum/lost-update invariants to fire.
        violations = []
        for seed in (1, 2, 3):
            row = run_schedule(seed, duration_ms=3_000.0, broken=True)
            violations.extend(row["violations"])
        assert violations, "checker missed the unsafe_skip_quorum_check mutation"
        assert {v["invariant"] for v in violations} <= {
            "quorum", "duplicate-committed-version", "version-chain-gap",
            "read-validity", "monotonic-reads", "read-your-writes",
        }
        assert any(v["invariant"] == "quorum" for v in violations)


def _fresh_repro(*args, cwd):
    """``python -m repro ARGS`` in a new interpreter: nothing pre-imported."""
    env = {**os.environ, "PYTHONPATH": str(Path(repro.__file__).resolve().parents[1])}
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


class TestCampaignExperiment:
    def test_registered_and_discoverable(self):
        spec = registry.get("check_campaign")
        assert spec is SPEC
        assert spec.module == "repro.experiments.check_campaign"

    def test_fresh_process_lists_and_runs_it(self, tmp_path):
        listed = _fresh_repro("list", cwd=tmp_path)
        assert listed.returncode == 0, listed.stderr
        assert "check_campaign" in listed.stdout
        assert len(listed.stdout.splitlines()) == 22
        ran = _fresh_repro(
            "run", "check_campaign", "--scale", "0.04", "--no-cache", cwd=tmp_path
        )
        assert ran.returncode == 0, ran.stderr
        assert "[PASS] no_violations" in ran.stdout

    def test_small_campaign_clean_and_jobs_equivalent(self):
        overrides = {"check.duration_ms": "2000"}
        serial = run_sweep(
            SPEC, seed=0, scale=0.08, overrides=overrides,
            options=SweepOptions(jobs=1),
        )
        assert serial.result.all_checks_pass
        parallel = run_sweep(
            SPEC, seed=0, scale=0.08, overrides=overrides,
            options=SweepOptions(jobs=2),
        )
        assert serial.result_set.digest() == parallel.result_set.digest()

    def test_broken_campaign_reports_minimal_failing_seed(self):
        sweep = run_sweep(
            SPEC, seed=0, scale=0.06,
            overrides={"check.duration_ms": "2000", "check.broken": "1"},
            options=SweepOptions(jobs=1),
        )
        result = sweep.result
        assert not result.all_checks_pass
        assert result.data["failing_schedules"] >= 1
        assert result.data["total_violations"] >= 1
        payload = result.data["replay_plan"]
        assert payload["format"] == campaign.PLAN_FORMAT
        assert payload["seed"] == result.data["min_failing_seed"]
        assert payload["broken"] is True
        # The triage plan replays to the same failure.
        row = replay(payload)
        assert row["violations"]
        assert row["digest_stable"]


class TestReplayFiles:
    def test_write_load_round_trip(self, tmp_path):
        payload = plan_payload(
            seed=5, duration_ms=2_000.0, intensity=1.0, broken=False,
            plan_dict=FaultPlan().to_dict(),
        )
        path = tmp_path / "plan.json"
        write_plan(str(path), payload)
        assert load_plan(str(path)) == payload

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "not_a_plan.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not a campaign plan"):
            load_plan(str(path))

    def test_committed_example_plan_is_known_good(self):
        # The CI smoke contract: examples/campaign_plan.json must replay
        # with zero violations and a byte-stable digest.
        payload = load_plan(str(EXAMPLE_PLAN))
        row = replay(payload)
        assert row["violations"] == []
        assert row["digest_stable"]


def _example_payload():
    return json.loads(EXAMPLE_PLAN.read_text())


def _without(key):
    payload = _example_payload()
    del payload[key]
    return payload


def _with_plan(**changes):
    payload = _example_payload()
    payload["plan"].update(changes)
    return payload


def _typo_section():
    payload = _example_payload()
    payload["plan"]["loss_window"] = payload["plan"].pop("loss_windows")
    return payload


class TestBadPlanFiles:
    """A plan-v1 file that is not what write_plan produces fails to load
    with a message naming the problem, never a traceback or a replay of
    some other plan."""

    @pytest.mark.parametrize("payload, message", [
        (_without("duration_ms"), "has no duration_ms"),
        (_without("plan"), "has no plan"),
        ({**_example_payload(), "seed": "12"}, "seed must be a number"),
        ({**_example_payload(), "broken": "no"}, "broken must be true or false"),
        (_typo_section(), "unknown fault plan section.*'loss_window'"),
        (_with_plan(spikes=[{"start_ms": 1.0, "duration_ms": 2.0, "factor": 3}]),
         r"spikes\[0\]:.*'factor'"),
        (_with_plan(replica_crashes=[{"dc_name": "ireland"}]),
         r"replica_crashes\[0\]:.*at_ms"),
        (_with_plan(partitions=[["us_west", 1.0, 2.0]]),
         r"partitions\[0\]: expected an object"),
        (["not", "a", "plan"], "not a campaign plan"),
    ])
    def test_load_plan_names_the_problem(self, tmp_path, payload, message):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            load_plan(str(path))

    def test_cli_replay_reports_without_traceback(self, tmp_path):
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(_typo_section()))
        with pytest.raises(SystemExit) as exit_info:
            main(["check", "replay", str(path)])
        assert str(exit_info.value).startswith("check replay: ")
        assert "loss_window" in str(exit_info.value)

    def test_cli_predict_reports_without_traceback(self, tmp_path):
        path = tmp_path / "short.json"
        path.write_text(json.dumps(_without("duration_ms")))
        with pytest.raises(SystemExit, match="check predict: .*has no duration_ms"):
            main(["check", "predict", str(path)])
        path.write_text("[]")
        with pytest.raises(SystemExit, match="check predict: .*unrecognised format"):
            main(["check", "predict", str(path)])


@pytest.mark.slow
class TestAcceptanceScale:
    """The PR's acceptance criteria, verbatim scale (minutes, not seconds)."""

    def test_unmodified_build_passes_200_schedules(self):
        sweep = run_sweep(
            SPEC, seed=0, scale=4.0, options=SweepOptions(jobs=2)
        )
        assert sweep.result.all_checks_pass, sweep.result.data

    def test_broken_build_caught_within_50_schedules(self):
        sweep = run_sweep(
            SPEC, seed=0, scale=1.0, overrides={"check.broken": "1"},
            options=SweepOptions(jobs=2),
        )
        assert not sweep.result.all_checks_pass
        assert sweep.result.data["total_violations"] >= 1
