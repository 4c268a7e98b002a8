"""Tests for the experiment harness: config, runner, results, report."""

from __future__ import annotations

import math

import pytest

from repro.cluster import ClusterConfig
from repro.core.session import PlanetConfig
from repro.harness.config import RunConfig, WorkloadConfig
from repro.harness.report import Table, format_float
from repro.harness.runner import run_experiment
from repro.workload.keys import UniformChooser
from repro.workload.microbench import MicrobenchSpec, build_microbench_tx


def make_workload(**overrides):
    spec = MicrobenchSpec(
        chooser=UniformChooser(500), n_reads=1, n_writes=1,
        timeout_ms=2_000.0, guess_threshold=0.9,
    )
    defaults = dict(
        tx_factory=lambda session, rng: build_microbench_tx(session, spec, rng),
        arrival="open",
        rate_tps=5.0,
        clients_per_dc=1,
    )
    defaults.update(overrides)
    return WorkloadConfig(**defaults)


def small_config(**overrides):
    defaults = dict(
        cluster=ClusterConfig(seed=1),
        planet=PlanetConfig(),
        workload=make_workload(),
        duration_ms=6_000.0,
        warmup_ms=1_000.0,
    )
    defaults.update(overrides)
    return RunConfig(**defaults)


class TestConfigValidation:
    def test_workload_required(self):
        with pytest.raises(ValueError):
            RunConfig(workload=None)

    def test_warmup_must_precede_duration(self):
        with pytest.raises(ValueError):
            small_config(duration_ms=100.0, warmup_ms=200.0)

    def test_arrival_model_validated(self):
        with pytest.raises(ValueError):
            make_workload(arrival="bursty")

    def test_clients_per_dc_validated(self):
        with pytest.raises(ValueError):
            make_workload(clients_per_dc=0)


class TestRunner:
    def test_end_to_end_run_produces_transactions(self):
        result = run_experiment(small_config())
        assert len(result.transactions) > 50
        assert result.measured_window_ms == 5_000.0
        assert all(tx.decision is not None for tx in result.transactions)

    def test_warmup_excluded_from_measured_window(self):
        result = run_experiment(small_config())
        assert all(
            tx.submitted_at is None or tx.submitted_at >= 1_000.0
            for tx in result.transactions
        )
        assert len(result.all_transactions) > len(result.transactions)

    def test_client_dc_restriction(self):
        config = small_config(workload=make_workload(client_dcs=["tokyo"]))
        result = run_experiment(config)
        assert len(result.sessions) == 1
        assert result.sessions[0].dc_name == "tokyo"

    def test_closed_loop_runs(self):
        config = small_config(workload=make_workload(arrival="closed", think_time_ms=50.0))
        result = run_experiment(config)
        assert result.transactions

    def test_initial_data_loaded(self):
        config = small_config(initial_data={"seeded": 42})
        result = run_experiment(config)
        for node in result.cluster.storage_nodes.values():
            assert node.store.get("seeded").value == 42

    def test_same_seed_same_results(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config())
        assert a.summary() == b.summary()

    def test_different_seed_different_results(self):
        a = run_experiment(small_config())
        b = run_experiment(small_config(cluster=ClusterConfig(seed=2)))
        assert a.summary() != b.summary()


class TestRunResult:
    @pytest.fixture(scope="class")
    def result(self):
        return run_experiment(small_config())

    def test_partition_commit_abort(self, result):
        assert len(result.committed()) + len(result.aborted()) == len(result.transactions)

    def test_rates_consistent(self, result):
        window_s = result.measured_window_ms / 1000.0
        assert result.throughput_tps() == pytest.approx(len(result.transactions) / window_s)
        assert result.goodput_tps() <= result.throughput_tps()

    def test_latency_cdfs(self, result):
        commit_cdf = result.commit_latency_cdf()
        assert commit_cdf.count == len(result.committed())
        assert commit_cdf.percentile(50) > 100.0  # wide-area commit

    def test_guess_accounting(self, result):
        guessed = result.guessed()
        assert math.isclose(
            result.guessed_fraction(), len(guessed) / len(result.transactions)
        )
        assert all(tx.was_guessed for tx in guessed)
        assert set(result.wrong_guesses()) <= set(guessed)

    def test_calibration_export(self, result):
        bins = result.calibration(at="first_vote")
        assert bins.total > 0
        with pytest.raises(ValueError):
            result.calibration(at="nonsense")

    def test_summary_keys(self, result):
        summary = result.summary()
        for key in (
            "transactions", "throughput_tps", "goodput_tps", "abort_rate",
            "commit_p50_ms", "commit_p99_ms", "guessed_fraction", "wrong_guess_rate",
        ):
            assert key in summary

    def test_abort_reason_counts(self, result):
        counts = result.abort_reason_counts()
        assert sum(counts.values()) == len(result.aborted())


class TestReport:
    def test_table_renders_aligned(self):
        table = Table("Demo", ["name", "value"])
        table.add_row("a", 1.234)
        table.add_row("long-name", 22.0)
        rendered = table.render()
        assert "Demo" in rendered
        assert "1.23" in rendered
        assert "long-name" in rendered

    def test_row_arity_checked(self):
        table = Table("T", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("only-one")

    def test_format_float_nan(self):
        assert format_float(float("nan")) == "-"
        assert format_float(None) == "-"
        assert format_float(1.5, 1) == "1.5"
