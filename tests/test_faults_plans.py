"""Unit tests for the repro.faults package: plan types and generators."""

from __future__ import annotations

import json

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.faults import (
    CoordinatorCrash,
    FaultPlan,
    MessageLossWindow,
    Partition,
    ReplicaCrash,
    campaign_plan,
    chaos_plan,
)
from repro.net.partitions import LossWindow, PartitionWindow
from repro.workload.spikes import Spike


def full_plan():
    return FaultPlan(
        spikes=[Spike(100.0, 50.0, multiplier=3.0)],
        partitions=[Partition(200.0, 300.0, dc_name="tokyo")],
        loss_windows=[
            MessageLossWindow(250.0, 400.0, rate=0.3, dc_name="ireland"),
            MessageLossWindow(500.0, 600.0, rate=0.2),
        ],
        coordinator_crashes=[CoordinatorCrash("us_east", 400.0)],
        replica_crashes=[ReplicaCrash("singapore", 450.0)],
    )


class TestAliases:
    def test_campaign_names_are_network_mechanisms(self):
        # The package re-exports the network layer's types under
        # fault-centric names; isinstance and equality must agree.
        assert Partition is PartitionWindow
        assert MessageLossWindow is LossWindow


class TestSerialisation:
    def test_round_trip_all_fault_types(self):
        plan = full_plan()
        restored = FaultPlan.from_dict(plan.to_dict())
        assert restored == plan

    def test_round_trip_through_json(self):
        # to_dict must be JSON-safe — that is the replay file contract.
        plan = full_plan()
        payload = json.loads(json.dumps(plan.to_dict()))
        assert FaultPlan.from_dict(payload) == plan

    def test_from_dict_tolerates_missing_sections(self):
        assert FaultPlan.from_dict({}) == FaultPlan()
        assert FaultPlan.from_dict({}).is_empty

    def test_describe_mentions_new_fault_types(self):
        text = full_plan().describe()
        assert "loss 30% ireland" in text
        assert "loss 20% all" in text
        assert "crash replica singapore" in text


class TestFromDictRejectsBadInput:
    """A stored plan that to_dict could not have written is an error that
    names the section and entry, not a different (often empty) plan."""

    def test_typo_section_is_not_silently_dropped(self):
        payload = full_plan().to_dict()
        payload["loss_window"] = payload.pop("loss_windows")
        with pytest.raises(ValueError, match="unknown .* section.*'loss_window'"):
            FaultPlan.from_dict(payload)

    @pytest.mark.parametrize("section, entry, message", [
        ("spikes", {"start_ms": 1.0, "duration_ms": 2.0, "factor": 3.0}, "'factor'"),
        ("coordinator_crashes", {"dc_name": "tokyo"}, "at_ms"),
        ("loss_windows", {"start_ms": 0.0, "end_ms": 1.0, "rate": "high"},
         r"\.rate: bad value 'high'"),
        ("partitions", {"start_ms": 0.0, "end_ms": 1.0, "dc_name": None},
         r"\.dc_name: bad value None"),
        ("replica_crashes", ["singapore", 450.0], "expected an object"),
    ])
    def test_bad_entry_names_section_and_index(self, section, entry, message):
        payload = full_plan().to_dict()
        payload[section] = payload[section] + [entry]
        index = len(payload[section]) - 1
        with pytest.raises(ValueError, match=rf"{section}\[{index}\].*{message}"):
            FaultPlan.from_dict(payload)

    @pytest.mark.parametrize("payload", [[], {"spikes": {}}, {"spikes": None}])
    def test_wrong_shapes_rejected(self, payload):
        with pytest.raises(ValueError):
            FaultPlan.from_dict(payload)


class TestChaosPlanBackCompat:
    # The chaos_plan draw sequence is frozen (documented in plans.py);
    # these pins would catch an accidental reordering of its rng draws.
    def test_never_draws_new_fault_types(self):
        for seed in range(20):
            plan = chaos_plan(["a", "b", "c"], 5_000.0, seed=seed, intensity=1.5)
            assert plan.loss_windows == []
            assert plan.replica_crashes == []

    def test_pinned_draw_for_seed_7(self):
        plan = chaos_plan(["a", "b", "c"], 1_000.0, seed=7)
        assert plan.describe() == (
            "spike x2.19315 @ 764ms for 52ms; spike x4.33115 @ 675ms for 28ms; "
            "partition b @ 250-275ms; partition b @ 149-174ms; "
            "crash c @ 262ms"
        )


class TestCampaignPlan:
    def test_deterministic(self):
        dcs = ["a", "b", "c"]
        assert campaign_plan(dcs, 5_000.0, seed=11) == campaign_plan(
            dcs, 5_000.0, seed=11
        )

    def test_at_most_one_crash_coordinator_xor_replica(self):
        for seed in range(200):
            plan = campaign_plan(["a", "b", "c"], 5_000.0, seed=seed)
            crashes = len(plan.coordinator_crashes) + len(plan.replica_crashes)
            assert crashes <= 1, f"seed {seed}: {plan.describe()}"

    def test_draws_every_fault_type_somewhere(self):
        plans = [
            campaign_plan(["a", "b"], 5_000.0, seed=seed) for seed in range(100)
        ]
        assert any(plan.loss_windows for plan in plans)
        assert any(plan.replica_crashes for plan in plans)
        assert any(plan.coordinator_crashes for plan in plans)

    def test_faults_fall_inside_the_run(self):
        duration = 5_000.0
        for seed in range(50):
            plan = campaign_plan(["a", "b"], duration, seed=seed)
            for window in plan.loss_windows:
                assert 0.0 < window.start_ms < window.end_ms < duration
                assert 0.1 <= window.rate <= 0.5
            for crash in plan.coordinator_crashes + plan.replica_crashes:
                assert 0.0 < crash.at_ms < duration

    def test_pinned_draw_for_seed_3(self):
        # Stored campaign plans, the chaos battery and the benchmark's
        # faults_checked workload all replay this draw sequence; the pin
        # catches an accidental reordering of its rng draws.
        plan = campaign_plan(["a", "b", "c"], 1_000.0, seed=3)
        assert plan.describe() == (
            "spike x5.66378 @ 515ms for 30ms; partition a @ 538-562ms; "
            "loss 50% b @ 282-333ms; crash replica b @ 475ms"
        )

    def test_intensity_zero_never_crashes(self):
        for seed in range(50):
            plan = campaign_plan(["a"], 1_000.0, seed=seed, intensity=0.0)
            assert not plan.coordinator_crashes and not plan.replica_crashes

    def test_validation(self):
        with pytest.raises(ValueError):
            campaign_plan(["a"], 0.0)
        with pytest.raises(ValueError):
            campaign_plan(["a"], 100.0, intensity=-1.0)


class TestApply:
    def test_apply_installs_loss_windows_and_replica_crash(self):
        cluster = Cluster(ClusterConfig(seed=1, jitter_sigma=0.0))
        plan = FaultPlan(
            loss_windows=[MessageLossWindow(5.0, 50.0, rate=0.4)],
            replica_crashes=[ReplicaCrash("us_west", 10.0)],
        )
        plan.apply(cluster)
        assert cluster.network._loss_windows == plan.loss_windows
        assert not cluster.storage_nodes["us_west"].crashed
        cluster.run(until=20.0)
        assert cluster.storage_nodes["us_west"].crashed
        assert not cluster.storage_nodes["us_east"].crashed


class TestLossWindow:
    class _DC:
        def __init__(self, name):
            self.name = name

    def test_applies_inter_dc_inside_window_only(self):
        window = LossWindow(100.0, 200.0, rate=0.5)
        a, b = self._DC("a"), self._DC("b")
        assert window.applies(150.0, a, b)
        assert not window.applies(50.0, a, b)
        assert not window.applies(250.0, a, b)

    def test_never_applies_intra_dc(self):
        window = LossWindow(100.0, 200.0, rate=0.5)
        a = self._DC("a")
        assert not window.applies(150.0, a, self._DC("a"))
        assert not window.applies(150.0, a, a)

    def test_dc_scoped_window_touches_either_endpoint(self):
        window = LossWindow(100.0, 200.0, rate=0.5, dc_name="a")
        a, b, c = self._DC("a"), self._DC("b"), self._DC("c")
        assert window.applies(150.0, a, b)
        assert window.applies(150.0, b, a)
        assert not window.applies(150.0, b, c)
