"""Tests for the uniform config API: to_dict / from_overrides /
with_overrides, the --set parser, and the driver-side override plumbing."""

from __future__ import annotations

import json
import sys

import pytest

from repro.cluster import ClusterConfig
from repro.config import ConfigOverrideError, parse_override_args
from repro.core import session as session_module
from repro.core.admission import AdmissionPolicy
from repro.core.likelihood import LikelihoodConfig
from repro.core.session import PlanetConfig
from repro.experiments import registry
from repro.experiments.common import planet_with_overrides
from repro.harness.spec import PointContext, active_overrides, current_overrides


class TestParseOverrideArgs:
    def test_parses_pairs(self):
        assert parse_override_args(["a=1", "b.c = x "]) == {"a": "1", "b.c": "x"}

    def test_last_value_wins(self):
        assert parse_override_args(["a=1", "a=2"]) == {"a": "2"}

    def test_empty_input(self):
        assert parse_override_args(None) == {}
        assert parse_override_args([]) == {}

    @pytest.mark.parametrize("bad", ["novalue", "=5"])
    def test_malformed_pair_rejected(self, bad):
        with pytest.raises(ConfigOverrideError, match="key=value"):
            parse_override_args([bad])


class TestToDict:
    def test_planet_config_round_trips_through_json(self):
        snapshot = PlanetConfig().to_dict()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert snapshot["admission_policy"] == "none"
        assert snapshot["likelihood"]["use_deadline"] is True

    def test_every_field_appears(self):
        snapshot = PlanetConfig().to_dict()
        for name in ("admission_threshold", "read_your_writes", "likelihood"):
            assert name in snapshot

    def test_cluster_and_likelihood_configs_share_the_api(self):
        assert ClusterConfig().to_dict()["engine"] == "mdcc"
        assert "static_conflict_rate" in LikelihoodConfig().to_dict()


class TestFromOverrides:
    def test_scalar_coercions(self):
        config = PlanetConfig.from_overrides(
            {
                "admission_threshold": "0.55",
                "admission_max_delays": "5",
                "read_your_writes": "true",
            }
        )
        assert config.admission_threshold == 0.55
        assert config.admission_max_delays == 5
        assert config.read_your_writes is True

    def test_enum_by_value_and_by_name(self):
        by_value = PlanetConfig.from_overrides({"admission_policy": "likelihood"})
        by_name = PlanetConfig.from_overrides({"admission_policy": "LIKELIHOOD"})
        assert by_value.admission_policy is AdmissionPolicy.LIKELIHOOD
        assert by_name.admission_policy is AdmissionPolicy.LIKELIHOOD

    def test_optional_none_spellings(self):
        config = PlanetConfig.from_overrides({"default_guess_threshold": "none"})
        assert config.default_guess_threshold is None
        config = PlanetConfig.from_overrides({"default_timeout_ms": "250"})
        assert config.default_timeout_ms == 250.0

    def test_dotted_key_reaches_nested_config(self):
        config = PlanetConfig.from_overrides(
            {"likelihood.use_deadline": "false", "likelihood.static_conflict_rate": "0.2"}
        )
        assert config.likelihood.use_deadline is False
        assert config.likelihood.static_conflict_rate == 0.2
        # Untouched nested fields keep their defaults.
        assert config.likelihood.use_per_record_rates is True

    def test_base_instance_not_mutated(self):
        base = PlanetConfig()
        changed = base.with_overrides({"admission_threshold": "0.9"})
        assert changed.admission_threshold == 0.9
        assert base.admission_threshold == PlanetConfig().admission_threshold

    def test_unknown_field_lists_valid_names(self):
        with pytest.raises(ConfigOverrideError, match="valid fields:.*admission_threshold"):
            PlanetConfig.from_overrides({"no_such_field": "1"})

    def test_setting_nested_config_directly_rejected(self):
        with pytest.raises(ConfigOverrideError, match="nested config"):
            PlanetConfig.from_overrides({"likelihood": "x"})

    def test_dotting_into_scalar_rejected(self):
        with pytest.raises(ConfigOverrideError, match="not a nested config"):
            PlanetConfig.from_overrides({"admission_threshold.x": "1"})

    def test_bad_boolean_rejected(self):
        with pytest.raises(ConfigOverrideError, match="not a boolean"):
            PlanetConfig.from_overrides({"read_your_writes": "maybe"})

    def test_bad_number_rejected(self):
        with pytest.raises(ConfigOverrideError, match="cannot parse"):
            PlanetConfig.from_overrides({"admission_threshold": "fast"})

    def test_bad_enum_lists_choices(self):
        with pytest.raises(ConfigOverrideError, match="none, likelihood, random, delay"):
            PlanetConfig.from_overrides({"admission_policy": "strict"})

    @pytest.mark.parametrize(
        "field, raw, value",
        [
            ("admission_threshold", "-2", -2.0),
            ("admission_threshold", "1.5", 1.5),
            ("random_reject_rate", "1.0", 1.0),
            ("random_reject_rate", "-0.1", -0.1),
            ("admission_delay_ms", "0", 0.0),
            ("admission_max_delays", "0", 0),
            ("isolation", "bogus", "bogus"),
            ("default_guess_threshold", "1.5", 1.5),
            ("default_guess_threshold", "0", 0.0),
            ("default_timeout_ms", "-5", -5.0),
        ],
    )
    def test_out_of_range_value_rejected(self, field, raw, value):
        with pytest.raises(ConfigOverrideError, match=field):
            PlanetConfig.from_overrides({field: raw})
        with pytest.raises(ValueError, match=field):
            PlanetConfig(**{field: value})

    def test_empty_overrides_return_base(self):
        base = PlanetConfig()
        assert PlanetConfig.from_overrides({}, base=base) is base


class TestDriverPlumbing:
    """active_overrides() is how run_sweep hands --set values to drivers."""

    def test_planet_with_overrides_picks_up_context(self):
        assert planet_with_overrides(None).admission_threshold == (
            PlanetConfig().admission_threshold
        )
        with active_overrides({"admission_threshold": "0.71"}):
            assert current_overrides() == {"admission_threshold": "0.71"}
            assert planet_with_overrides(None).admission_threshold == 0.71
        assert current_overrides() is None

    def test_context_applies_over_driver_base_config(self):
        base = PlanetConfig(read_your_writes=True)
        with active_overrides({"admission_threshold": "0.71"}):
            config = planet_with_overrides(base)
        assert config.admission_threshold == 0.71
        assert config.read_your_writes is True

    def test_context_nesting_restores_outer(self):
        with active_overrides({"admission_threshold": "0.5"}):
            with active_overrides({"admission_threshold": "0.9"}):
                assert planet_with_overrides(None).admission_threshold == 0.9
            assert planet_with_overrides(None).admission_threshold == 0.5


class _SessionBuilt(Exception):
    """Raised by the PlanetSession spy: the config was seen, stop the run."""


@pytest.mark.parametrize("experiment_id", [
    "s1_scaleout", "s3_message_loss", "f13_coordinator_failure", "iso_matrix",
])
def test_drivers_building_their_own_sessions_apply_set(experiment_id, monkeypatch):
    """`--set` reaches drivers that construct PlanetSession themselves
    rather than through microbench_run/run_experiment."""
    seen = []

    def spy(cluster, dc_name, config=None, **kwargs):
        seen.append(config)
        raise _SessionBuilt

    spec = registry.get(experiment_id)
    monkeypatch.setattr(session_module, "PlanetSession", spy)
    monkeypatch.setattr(sys.modules[spec.module], "PlanetSession", spy, raising=False)
    point = spec.grid(0.05)[0]
    overrides = {"admission_threshold": "0.37"}
    with active_overrides(overrides), pytest.raises(_SessionBuilt):
        spec.run_point(point.params, PointContext(seed=0, scale=0.05, overrides=overrides))
    assert seen[0] is not None and seen[0].admission_threshold == 0.37
