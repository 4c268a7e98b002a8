"""Tests for the experiment registry: discovery, prefix matching, seed
derivation, and single-point adaptation."""

from __future__ import annotations

import importlib

import pytest

from repro.experiments import ALL_EXPERIMENTS, registry
from repro.experiments.registry import AmbiguousExperimentError, UnknownExperimentError
from repro.harness.spec import ExperimentResult, ExperimentSpec, GridPoint, derive_seed

import tests.sweep_fixture as fixture


class TestDiscovery:
    def test_every_experiment_is_registered(self):
        ids = registry.ids()
        for experiment_id in ALL_EXPERIMENTS:
            assert experiment_id in ids

    def test_suite_order_preserved(self):
        """Canonical ids come first, in ALL_EXPERIMENTS order; extras after."""
        ids = registry.ids()
        assert ids[: len(ALL_EXPERIMENTS)] == list(ALL_EXPERIMENTS)
        extras = ids[len(ALL_EXPERIMENTS):]
        assert extras == sorted(extras)
        assert "zz_sweep_fixture" in extras

    def test_all_returns_specs_in_ids_order(self):
        specs = registry.all()
        assert [spec.id for spec in specs] == registry.ids()
        assert all(isinstance(spec, ExperimentSpec) for spec in specs)

    def test_get_exact(self):
        spec = registry.get("f6_commit_latency")
        assert spec.id == "f6_commit_latency"
        assert spec.figure == "F6"
        assert spec.title

    def test_get_unique_prefix(self):
        assert registry.get("f6").id == "f6_commit_latency"
        assert registry.get("f9").id == "f9_threshold_sweep"

    def test_get_unknown(self):
        with pytest.raises(UnknownExperimentError, match="no_such"):
            registry.get("no_such_experiment")

    def test_ambiguous_prefix_lists_sorted_candidates(self):
        with pytest.raises(AmbiguousExperimentError) as excinfo:
            registry.get("f1")
        error = excinfo.value
        assert error.prefix == "f1"
        assert error.candidates == sorted(error.candidates)
        assert error.candidates == [
            "f10_contention",
            "f11_admission",
            "f12_spikes",
            "f13_coordinator_failure",
        ]
        # The message spells out every candidate, in sorted order.
        message = str(error)
        positions = [message.index(candidate) for candidate in error.candidates]
        assert positions == sorted(positions)

    def test_ambiguous_is_a_lookup_error(self):
        with pytest.raises(LookupError):
            registry.get("f1")


class TestSeedDerivation:
    def test_stable_across_calls(self):
        assert derive_seed(0, "threshold=0.9") == derive_seed(0, "threshold=0.9")

    def test_varies_with_root_and_key(self):
        assert derive_seed(0, "a") != derive_seed(1, "a")
        assert derive_seed(0, "a") != derive_seed(0, "b")

    def test_non_negative_63_bit(self):
        for root in range(5):
            seed = derive_seed(root, f"k{root}")
            assert 0 <= seed < 2 ** 63

    def test_spec_seed_for_respects_derive_seeds_flag(self):
        point = GridPoint(key="v=1", params={"v": 1})
        derived = fixture.SPEC.seed_for(7, point)
        assert derived == derive_seed(7, "v=1")
        legacy = registry.get("t1_rtt_matrix")
        assert not legacy.derive_seeds
        assert legacy.seed_for(7, point) == 7


class TestSinglePointAdaptation:
    def test_whole_run_drivers_are_single_point(self):
        for experiment_id in ("t1_rtt_matrix", "a3_admission_policy", "t3_tpcw_mix"):
            spec = registry.get(experiment_id)
            assert not spec.derive_seeds
            assert [point.key for point in spec.grid(1.0)] == ["all"]

    def test_grid_specs_derive_seeds(self):
        for experiment_id in ("f6_commit_latency", "f9_threshold_sweep"):
            spec = registry.get(experiment_id)
            assert spec.derive_seeds
            assert len(spec.grid(1.0)) > 1

    def test_single_point_spec_runs_whole_driver(self):
        spec = registry.get("t1_rtt_matrix")
        result = spec.run(seed=3, scale=0.1)
        assert isinstance(result, ExperimentResult)
        assert result.all_checks_pass

    @pytest.mark.parametrize("experiment_id", ALL_EXPERIMENTS)
    def test_every_module_exposes_spec_and_main(self, experiment_id):
        module = importlib.import_module(f"repro.experiments.{experiment_id}")
        assert module.SPEC.id == experiment_id
        assert module.SPEC is registry.get(experiment_id)
