"""Tests for the parallel sweep executor: serial/parallel equivalence
(ResultSet and obs recorder digests), the per-point result cache, override
plumbing, and timeout/retry/fail-fast behaviour."""

from __future__ import annotations

import pytest

from repro import obs
from repro.experiments import registry
from repro.harness.cache import ResultCache, point_cache_key
from repro.harness.parallel import (
    SweepError,
    SweepOptions,
    SweepPointError,
    run_sweep,
)
from repro.harness.spec import ExperimentSpec, GridPoint, PointContext, derive_seed

from tests import sweep_fixture


def _sweep(jobs=1, seed=0, **kwargs):
    options = SweepOptions(jobs=jobs, **kwargs.pop("options", {}))
    return run_sweep(sweep_fixture.SPEC, seed=seed, options=options, **kwargs)


class TestSerialParallelEquivalence:
    def test_fixture_result_sets_identical(self):
        serial = _sweep(jobs=1)
        parallel = _sweep(jobs=2)
        assert serial.result_set.digest() == parallel.result_set.digest()
        assert serial.result_set.to_dict() == parallel.result_set.to_dict()
        assert serial.jobs == 1
        assert parallel.jobs == 2

    def test_fixture_recorder_digests_identical(self):
        def traced(jobs):
            recorder = obs.FlightRecorder()
            with obs.session(recorder):
                sweep = _sweep(jobs=jobs)
            return sweep.result_set.digest(), recorder.digest(), len(recorder.records())

        serial = traced(1)
        parallel = traced(2)
        assert serial == parallel
        assert serial[2] > 0

    def test_real_experiment_end_to_end(self):
        """f6 (two engines, full simulator stack) is byte-identical at any
        --jobs value: same ResultSet digest, same flight-recorder digest."""

        def traced(jobs):
            recorder = obs.FlightRecorder(capacity=2_000_000)
            with obs.session(recorder):
                sweep = run_sweep(
                    registry.get("f6_commit_latency"), seed=0, scale=0.05,
                    options=SweepOptions(jobs=jobs),
                )
            return sweep.result_set.digest(), recorder.digest(), len(recorder.records())

        serial = traced(1)
        parallel = traced(2)
        assert serial == parallel

    def test_f9_jobs4_matches_serial(self):
        """The acceptance criterion verbatim: f9 at --jobs 4 produces a
        ResultSet byte-identical to the serial run, and the obs recorder
        digests match too."""

        def traced(jobs):
            recorder = obs.FlightRecorder(capacity=2_000_000)
            with obs.session(recorder):
                sweep = run_sweep(
                    registry.get("f9_threshold_sweep"), seed=0, scale=0.05,
                    options=SweepOptions(jobs=jobs),
                )
            return sweep, recorder

        serial, serial_recorder = traced(1)
        parallel, parallel_recorder = traced(4)
        assert serial.result_set.to_dict() == parallel.result_set.to_dict()
        assert serial.result_set.digest() == parallel.result_set.digest()
        assert serial_recorder.digest() == parallel_recorder.digest()

    def test_seeds_derived_per_point(self):
        sweep = _sweep(jobs=2, seed=11)
        for key, row in sweep.result_set.points:
            assert row["seed"] == derive_seed(11, key)

    def test_rows_in_grid_order_regardless_of_completion_order(self):
        sweep = _sweep(jobs=4)
        assert [row["v"] for row in sweep.result_set.rows()] == list(
            sweep_fixture.VALUES
        )
        assert sweep.result.all_checks_pass


class TestSweepObservability:
    def test_lifecycle_events_bracket_each_point(self):
        recorder = obs.FlightRecorder()
        with obs.session(recorder):
            _sweep(jobs=1)
        sweep_events = [
            record for record in recorder.records()
            if getattr(record, "category", None) == "sweep"
        ]
        names = [event.name for event in sweep_events]
        assert names == ["point_start", "point_done"] * len(sweep_fixture.VALUES)
        keys = [event.fields["key"] for event in sweep_events[::2]]
        assert keys == [f"v={v}" for v in sweep_fixture.VALUES]

    def test_progress_category_not_captured_by_default(self):
        recorder = obs.FlightRecorder()
        with obs.session(recorder):
            _sweep(jobs=2)
        assert "progress" not in recorder.categories()

    def test_progress_callback_reports_every_point(self):
        lines = []
        _sweep(jobs=2, options={"progress": lines.append})
        assert len(lines) == len(sweep_fixture.VALUES)
        assert all("zz_sweep_fixture" in line for line in lines)

    def test_perf_report_covers_the_phases(self):
        sweep = _sweep(jobs=1)
        assert sweep.perf is not None
        assert [p.name for p in sweep.perf.phases] == ["grid", "points", "reduce"]
        assert sweep.perf.wall_s >= sweep.perf.phase_wall_s("points")
        assert sweep.perf.summary_line().startswith("perf:")

    def test_perf_kernel_throughput_with_collection(self):
        """With a metrics collection installed, the perf report carries the
        kernel totals: events/sec and the simulated/wall ratio."""
        with obs.session(metrics=True):
            sweep = run_sweep(
                registry.get("f6_commit_latency"), seed=0, scale=0.05,
                options=SweepOptions(jobs=1),
            )
        assert sweep.perf.kernel_events > 0
        assert sweep.perf.events_per_sec > 0
        assert sweep.perf.sim_wall_ratio > 0
        assert "events/s" in sweep.perf.summary_line()

    def test_worker_utilization_gauge_in_parallel_mode(self):
        with obs.session(metrics=True) as handle:
            _sweep(jobs=2)
        utilization = handle.metrics.gauge(
            "sweep.worker_utilization", experiment="zz_sweep_fixture"
        )
        assert utilization is not None
        assert 0.0 <= utilization <= 1.0

    def test_straggler_reported_via_progress_and_metrics(self, monkeypatch):
        """A lowered straggler floor lets a fast test exercise the report
        path: p=0 returns instantly, p=1 sleeps past the threshold."""
        monkeypatch.setenv(sweep_fixture.CHAOS_MODE_VAR, "slow")
        monkeypatch.setenv(sweep_fixture.SLOW_S_VAR, "1.5")
        recorder = obs.FlightRecorder()
        lines = []
        with obs.session(recorder, categories={"progress"}, metrics=True) as handle:
            sweep = run_sweep(
                sweep_fixture.CHAOS_SPEC, seed=0,
                options=SweepOptions(
                    jobs=2, straggler_factor=3.0, straggler_min_s=0.3,
                    progress=lines.append,
                ),
            )
        assert sweep.result.all_checks_pass
        stragglers = [e for e in recorder.events() if e.name == "straggler"]
        assert [e.fields["key"] for e in stragglers] == ["p=1"]
        assert stragglers[0].fields["wall_s"] > 0.3
        metrics = handle.metrics
        assert metrics.counter("sweep.stragglers", experiment="zz_sweep_chaos") == 1
        assert any("straggling" in line for line in lines)


class TestOverridePlumbing:
    def test_overrides_reach_points_and_change_digest(self):
        plain = _sweep(jobs=1)
        overridden = run_sweep(
            sweep_fixture.SPEC, seed=0,
            overrides={"admission_threshold": "0.5"},
            options=SweepOptions(jobs=2),
        )
        for row in overridden.result_set.rows():
            assert row["overrides"] == {"admission_threshold": "0.5"}
        assert plain.result_set.digest() != overridden.result_set.digest()

    def test_overrides_identical_serial_and_parallel(self):
        kwargs = dict(seed=0, overrides={"admission_threshold": "0.5"})
        serial = run_sweep(sweep_fixture.SPEC, options=SweepOptions(jobs=1), **kwargs)
        parallel = run_sweep(sweep_fixture.SPEC, options=SweepOptions(jobs=2), **kwargs)
        assert serial.result_set.digest() == parallel.result_set.digest()


class TestResultCache:
    def test_cold_then_warm(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = _sweep(jobs=1, options={"cache": cache})
        assert (cold.cache_hits, cold.cache_misses) == (0, len(sweep_fixture.VALUES))
        warm = _sweep(jobs=1, options={"cache": ResultCache(tmp_path)})
        assert (warm.cache_hits, warm.cache_misses) == (len(sweep_fixture.VALUES), 0)
        assert cold.result_set.digest() == warm.result_set.digest()
        entries = list((tmp_path / "zz_sweep_fixture").glob("*.json"))
        assert len(entries) == len(sweep_fixture.VALUES)

    def test_parallel_fill_serial_read(self, tmp_path):
        cold = _sweep(jobs=2, options={"cache": ResultCache(tmp_path)})
        warm = _sweep(jobs=2, options={"cache": ResultCache(tmp_path)})
        assert cold.cache_misses == len(sweep_fixture.VALUES)
        assert warm.cache_hits == len(sweep_fixture.VALUES)
        # All points cached -> nothing pending -> executes inline.
        assert warm.jobs == 1
        assert cold.result_set.digest() == warm.result_set.digest()

    def test_seed_change_invalidates(self, tmp_path):
        _sweep(jobs=1, seed=0, options={"cache": ResultCache(tmp_path)})
        other = _sweep(jobs=1, seed=1, options={"cache": ResultCache(tmp_path)})
        assert other.cache_hits == 0
        assert other.cache_misses == len(sweep_fixture.VALUES)

    def test_override_change_invalidates(self, tmp_path):
        _sweep(jobs=1, options={"cache": ResultCache(tmp_path)})
        other = run_sweep(
            sweep_fixture.SPEC, seed=0,
            overrides={"admission_threshold": "0.5"},
            options=SweepOptions(jobs=1, cache=ResultCache(tmp_path)),
        )
        assert other.cache_hits == 0

    def test_key_varies_with_every_input(self):
        base = dict(
            experiment_id="e", point_key="p", params={"v": 1},
            seed=1, scale=0.5, overrides={}, fingerprint="f",
        )
        key = point_cache_key(**base)
        assert key == point_cache_key(**base)  # stable
        for change in (
            {"point_key": "q"},
            {"params": {"v": 2}},
            {"seed": 2},
            {"scale": 0.6},
            {"overrides": {"a": "1"}},
            {"fingerprint": "g"},  # i.e. any source edit invalidates
        ):
            assert point_cache_key(**{**base, **change}) != key

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        _sweep(jobs=1, options={"cache": ResultCache(tmp_path)})
        for entry in (tmp_path / "zz_sweep_fixture").glob("*.json"):
            entry.write_text("not json")
        redone = _sweep(jobs=1, options={"cache": ResultCache(tmp_path)})
        assert redone.cache_hits == 0
        assert redone.result.all_checks_pass

    @pytest.mark.parametrize("text", ["[1]", "1", "null", '{"row": 5}'])
    def test_well_formed_json_that_is_not_an_entry_is_a_miss(self, tmp_path, text):
        _sweep(jobs=1, options={"cache": ResultCache(tmp_path)})
        entries = sorted((tmp_path / "zz_sweep_fixture").glob("*.json"))
        entries[0].write_text(text)
        redone = _sweep(jobs=1, options={"cache": ResultCache(tmp_path)})
        assert (redone.cache_hits, redone.cache_misses) == (len(entries) - 1, 1)
        assert redone.result.all_checks_pass

    def test_capture_bypasses_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        recorder = obs.FlightRecorder()
        with obs.session(recorder):
            traced = _sweep(jobs=1, options={"cache": cache})
        assert cache.lookups == 0
        assert (traced.cache_hits, traced.cache_misses) == (0, 0)
        assert not list(tmp_path.glob("**/*.json"))  # nothing written either


class TestFailureHandling:
    def test_timeout_then_retry_succeeds(self, tmp_path, monkeypatch):
        monkeypatch.setenv(sweep_fixture.CHAOS_MODE_VAR, "sleep-once")
        monkeypatch.setenv(sweep_fixture.CHAOS_FLAG_DIR_VAR, str(tmp_path))
        sweep = run_sweep(
            sweep_fixture.CHAOS_SPEC, seed=0,
            options=SweepOptions(jobs=2, point_timeout_s=0.75, retries=1),
        )
        assert sweep.result.all_checks_pass
        # Both points slept (and were killed) once before succeeding.
        assert sorted(p.name for p in tmp_path.iterdir()) == ["slept-p0", "slept-p1"]

    def test_timeout_exhausts_retries(self, monkeypatch):
        monkeypatch.setenv(sweep_fixture.CHAOS_MODE_VAR, "sleep-always")
        with pytest.raises(SweepPointError) as excinfo:
            run_sweep(
                sweep_fixture.CHAOS_SPEC, seed=0,
                options=SweepOptions(jobs=2, point_timeout_s=0.5, retries=0),
            )
        assert excinfo.value.point_key == "p=1"
        assert excinfo.value.attempts == 1
        assert "timed out" in excinfo.value.detail

    def test_worker_exception_fails_fast(self, monkeypatch):
        monkeypatch.setenv(sweep_fixture.CHAOS_MODE_VAR, "raise")
        with pytest.raises(SweepPointError) as excinfo:
            run_sweep(
                sweep_fixture.CHAOS_SPEC, seed=0,
                options=SweepOptions(jobs=2, retries=3),
            )
        # Deterministic Python exceptions are not retried.
        assert excinfo.value.attempts == 1
        assert "chaos fixture boom" in str(excinfo.value)

    def test_serial_exception_propagates(self, monkeypatch):
        monkeypatch.setenv(sweep_fixture.CHAOS_MODE_VAR, "raise")
        with pytest.raises(ValueError, match="chaos fixture boom"):
            run_sweep(sweep_fixture.CHAOS_SPEC, seed=0, options=SweepOptions(jobs=1))


def _adhoc_spec(**kwargs):
    defaults = dict(
        id="adhoc",
        figure="TEST",
        title="adhoc",
        module="tests.test_parallel_sweep",
        grid=lambda scale: [GridPoint(key="k", params={})],
        run_point=lambda params, ctx: {"ok": True},
        reduce=lambda rows, ctx: sweep_fixture._reduce(rows, ctx),
    )
    defaults.update(kwargs)
    return ExperimentSpec(**defaults)


class TestSpecValidation:
    def test_empty_grid_rejected(self):
        spec = _adhoc_spec(grid=lambda scale: [])
        with pytest.raises(SweepError, match="empty grid"):
            run_sweep(spec)

    def test_duplicate_point_keys_rejected(self):
        spec = _adhoc_spec(
            grid=lambda scale: [GridPoint(key="k", params={}) for _ in range(2)]
        )
        with pytest.raises(SweepError, match="duplicate grid point keys"):
            run_sweep(spec)

    def test_non_dict_row_rejected(self):
        spec = _adhoc_spec(run_point=lambda params, ctx: [1, 2])
        with pytest.raises(SweepError, match="must return a dict row"):
            run_sweep(spec)

    def test_non_json_row_rejected(self):
        spec = _adhoc_spec(run_point=lambda params, ctx: {"bad": object()})
        with pytest.raises(SweepError, match="not JSON-safe"):
            run_sweep(spec)

    def test_reduce_context_carries_root_seed(self):
        seen = {}

        def reduce(rows, ctx):
            seen["ctx"] = ctx
            return sweep_fixture._reduce(
                [{"v": v, "total": 0} for v in sweep_fixture.VALUES], ctx
            )

        spec = _adhoc_spec(reduce=reduce)
        run_sweep(spec, seed=9, scale=0.5, overrides={"admission_threshold": "0.4"})
        ctx = seen["ctx"]
        assert isinstance(ctx, PointContext)
        assert ctx.seed == 9  # root seed, not a derived one
        assert ctx.scale == 0.5
        assert ctx.overrides == {"admission_threshold": "0.4"}


class TestPeakRssGauge:
    """The executor's memory high-water mark: collected, surfaced, never
    allowed anywhere near rows or digests (RSS is nondeterministic)."""

    def test_peak_rss_bytes_reads_positive_here(self):
        from repro.obs.metrics import peak_rss_bytes

        rss = peak_rss_bytes()
        assert isinstance(rss, int)
        assert rss > 1024 * 1024  # a CPython process is bigger than 1MB

    def test_sweep_surfaces_peak_rss(self):
        from repro.obs import metrics as obs_metrics
        from repro.obs.metrics import MetricsRegistry

        registry = obs_metrics.install(MetricsRegistry())
        try:
            sweep = _sweep(jobs=1)
            assert sweep.peak_rss_bytes > 0
            assert sweep.perf.peak_rss_bytes == sweep.peak_rss_bytes
            gauge = registry.gauge(
                "sweep.peak_rss_bytes", experiment="zz_sweep_fixture"
            )
            assert gauge == sweep.peak_rss_bytes
        finally:
            obs_metrics.uninstall()
        assert "peak rss" in sweep.perf.summary_line()

    def test_parallel_run_collects_worker_rss(self):
        sweep = _sweep(jobs=2)
        assert sweep.peak_rss_bytes > 1024 * 1024

    def test_rss_not_in_rows_or_result(self):
        sweep = _sweep(jobs=1)
        payload = sweep.result_set.to_dict()
        assert "rss" not in str(payload)
