"""Tests for the CLI, the synthetic topology generator, and the experiment
driver contract (every driver produces tables, checks, and data at any
scale)."""

from __future__ import annotations

import importlib

import pytest

from repro.cli import build_parser, main
from repro.experiments import ALL_EXPERIMENTS
from repro.harness.spec import ExperimentResult
from repro.net.topology import make_synthetic_topology
from repro.paxos.ballot import fast_quorum


class TestSyntheticTopology:
    def test_deterministic(self):
        a = make_synthetic_topology(7, seed=3)
        b = make_synthetic_topology(7, seed=3)
        for i in a:
            for j in a:
                assert a.rtt_ms(i, j) == b.rtt_ms(i, j)

    def test_valid_topology_invariants(self):
        topology = make_synthetic_topology(9, seed=1)
        assert len(topology) == 9
        for i in topology:
            for j in topology:
                assert topology.rtt_ms(i, j) == topology.rtt_ms(j, i)
                if i.index != j.index:
                    assert topology.rtt_ms(i, j) > 0

    def test_expansion_grows_quorum_floor(self):
        """The point of the generator: larger deployments have farther quorums."""
        floors = []
        for n in (3, 5, 7, 9):
            topology = make_synthetic_topology(n, seed=0)
            origin = topology.datacenters[0]
            floors.append(topology.quorum_rtt_ms(origin, fast_quorum(n)))
        assert floors == sorted(floors)
        assert floors[-1] > floors[0]

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            make_synthetic_topology(0)


class TestCli:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ALL_EXPERIMENTS:
            assert name in out

    def test_run_single_experiment(self, capsys):
        assert main(["run", "t1_rtt_matrix", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "T1" in out
        assert "[PASS]" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "no_such_experiment"])

    def test_run_requires_targets(self):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_parser_defaults(self):
        args = build_parser().parse_args(["run", "--all"])
        assert args.all
        assert args.seed == 0
        assert args.scale == 1.0

    def test_retired_bench_command_is_an_invalid_choice(self, capsys):
        # benchmarks/e2e/run.py is the one benchmark; no shim is kept.
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--quick"])
        assert exit_info.value.code != 0
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestPublicSurface:
    def test_every_exported_name_resolves(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None, name


class TestExperimentContract:
    """Every registered driver imports and exposes the SPEC contract."""

    @pytest.mark.parametrize("experiment_id", ALL_EXPERIMENTS)
    def test_driver_module_contract(self, experiment_id):
        module = importlib.import_module(f"repro.experiments.{experiment_id}")
        assert module.SPEC.id == experiment_id

    def test_cheapest_driver_returns_result_structure(self):
        from repro.experiments import registry

        result = registry.get("t1_rtt_matrix").run(seed=1, scale=0.1)
        assert isinstance(result, ExperimentResult)
        assert result.tables
        assert result.checks
        assert result.experiment_id == "T1"
        assert result.all_checks_pass

    def test_seed_changes_results(self):
        from repro.experiments import registry

        spec = registry.get("t1_rtt_matrix")
        a = spec.run(seed=1, scale=0.1)
        b = spec.run(seed=2, scale=0.1)
        assert a.data["worst_relative_error"] != b.data["worst_relative_error"]


class TestJsonExport:
    def test_run_with_json_writes_files(self, tmp_path, capsys):
        assert main(["run", "t1_rtt_matrix", "--scale", "0.1", "--json", str(tmp_path)]) == 0
        import json

        payload = json.loads((tmp_path / "t1_rtt_matrix.json").read_text())
        assert payload["experiment_id"] == "T1"
        assert payload["all_checks_pass"] is True
        assert payload["tables"][0]["headers"]
        assert payload["checks"][0]["name"]

    def test_to_dict_is_json_encodable(self):
        import json

        from repro.experiments import registry

        result = registry.get("t1_rtt_matrix").run(seed=0, scale=0.1)
        json.dumps(result.to_dict())  # must not raise


class TestRegistryPrefixes:
    """Prefix resolution now that scaleout_1m shares letters with s1_*.

    Complements the exact-candidate-list test in ``tests/test_registry.py``:
    a unique match ending on an underscore boundary wins; prefixes that
    genuinely straddle several experiments stay ambiguous, candidates
    sorted.
    """

    def test_boundary_match_wins_over_longer_ids(self):
        from repro.experiments import registry

        assert registry.get("scaleout").id == "scaleout_1m"
        assert registry.get("s1").id == "s1_scaleout"
        assert registry.get("scaleout_1m").id == "scaleout_1m"

    def test_bare_s_is_ambiguous_with_sorted_candidates(self):
        from repro.experiments import registry

        with pytest.raises(registry.AmbiguousExperimentError) as excinfo:
            registry.get("s")
        candidates = excinfo.value.candidates
        assert candidates == sorted(candidates)
        assert "s1_scaleout" in candidates
        assert "scaleout_1m" in candidates

    def test_non_boundary_prefix_stays_ambiguous(self):
        from repro.experiments import registry

        # f10..f13 all continue "f1" without an underscore: no winner.
        with pytest.raises(registry.AmbiguousExperimentError):
            registry.get("f1")

    def test_cli_reports_ambiguity(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "s"])


class TestOverrideNamespaces:
    """Experiment-local `--set` namespaces (check., scale.) must pass the
    CLI's up-front PlanetConfig validation; typos must still die there."""

    def test_scale_namespace_reaches_driver(self, capsys):
        code = main([
            "run", "scaleout_1m", "--scale", "0.05", "--no-cache",
            "--set", "scale.traffic=spike",
            "--set", "scale.users=2000000",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "2,000,000 users" in out

    def test_config_typo_still_dies_up_front(self):
        with pytest.raises(SystemExit, match="bad --set override"):
            main([
                "run", "scaleout_1m", "--no-cache",
                "--set", "default_guess_thresholdd=0.9",
            ])

    def test_out_of_range_value_dies_up_front(self):
        with pytest.raises(SystemExit, match="bad --set override: random_reject_rate"):
            main(["run", "s3", "--no-cache", "--set", "random_reject_rate=1.0"])

    def test_removed_cluster_option_is_an_unknown_key(self):
        with pytest.raises(SystemExit, match="bad --set override"):
            main([
                "run", "t1_rtt_matrix", "--no-cache",
                "--set", "cluster.delivery_batching=true",
            ])
