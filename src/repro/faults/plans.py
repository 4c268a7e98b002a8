"""Declarative fault injection: one plan object for every failure mode.

The network layer exposes latency spikes, partitions and message loss; the
cluster exposes coordinator and replica crashes.  A :class:`FaultPlan`
bundles a schedule of all of them so an experiment (or a chaos test, or a
checker campaign) can declare its failure scenario in one place and apply
it to any cluster::

    plan = FaultPlan(
        spikes=[Spike(1_000, 500, multiplier=4.0)],
        partitions=[Partition(2_000, 2_400, dc_name="ireland")],
        loss_windows=[MessageLossWindow(2_500, 3_000, rate=0.3)],
        coordinator_crashes=[CoordinatorCrash("tokyo", at_ms=3_000)],
    )
    plan.apply(cluster)

Plans round-trip through :meth:`FaultPlan.to_dict` /
:meth:`FaultPlan.from_dict`, which is what makes a failing campaign
schedule *replayable*: the triage report carries the exact plan, and
``python -m repro check replay`` re-runs it bit-for-bit.

:func:`chaos_plan` draws a random-but-seeded plan for robustness testing —
the simulated equivalent of a Jepsen nemesis.  :func:`campaign_plan` is
its checker-campaign sibling: it additionally draws loss windows and
replica crashes, but schedules *at most one* crash (coordinator XOR
replica) so a fast quorum stays reachable and the checker's invariants
stay decidable.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass, field
from random import Random
from typing import Any, Dict, List, Optional

from repro.net.partitions import LossWindow, PartitionWindow
from repro.workload.spikes import Spike, apply_spikes

#: Campaign-facing aliases: a fault plan names the *fault*, the network
#: layer names the *mechanism*.
Partition = PartitionWindow
MessageLossWindow = LossWindow


@dataclass(frozen=True)
class CoordinatorCrash:
    dc_name: str
    at_ms: float


@dataclass(frozen=True)
class ReplicaCrash:
    dc_name: str
    at_ms: float


@dataclass
class FaultPlan:
    spikes: List[Spike] = field(default_factory=list)
    partitions: List[PartitionWindow] = field(default_factory=list)
    loss_windows: List[LossWindow] = field(default_factory=list)
    coordinator_crashes: List[CoordinatorCrash] = field(default_factory=list)
    replica_crashes: List[ReplicaCrash] = field(default_factory=list)

    def apply(self, cluster) -> None:
        """Install every scheduled fault on the cluster (idempotent-unsafe:
        apply a plan to a cluster exactly once)."""
        apply_spikes(cluster.latency, self.spikes)
        for window in self.partitions:
            cluster.network.partitions.add_window(window)
        for window in self.loss_windows:
            cluster.network.add_loss_window(window)
        for crash in self.coordinator_crashes:
            cluster.sim.schedule(crash.at_ms, cluster.crash_coordinator, crash.dc_name)
        for crash in self.replica_crashes:
            cluster.sim.schedule(crash.at_ms, cluster.crash_replica, crash.dc_name)

    @property
    def is_empty(self) -> bool:
        return not any(getattr(self, section) for section in _SECTIONS)

    def describe(self) -> str:
        parts = []
        for spike in self.spikes:
            parts.append(
                f"spike x{spike.multiplier:g} @ {spike.start_ms:.0f}ms "
                f"for {spike.duration_ms:.0f}ms"
            )
        for window in self.partitions:
            parts.append(
                f"partition {window.dc_name} @ {window.start_ms:.0f}-{window.end_ms:.0f}ms"
            )
        for window in self.loss_windows:
            scope = window.dc_name if window.dc_name is not None else "all"
            parts.append(
                f"loss {window.rate:.0%} {scope} @ "
                f"{window.start_ms:.0f}-{window.end_ms:.0f}ms"
            )
        for crash in self.coordinator_crashes:
            parts.append(f"crash {crash.dc_name} @ {crash.at_ms:.0f}ms")
        for crash in self.replica_crashes:
            parts.append(f"crash replica {crash.dc_name} @ {crash.at_ms:.0f}ms")
        return "; ".join(parts) if parts else "(no faults)"

    # -- serialisation (replayable campaign plans) ----------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            section: [dataclasses.asdict(entry) for entry in getattr(self, section)]
            for section in _SECTIONS
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultPlan":
        """Inverse of :meth:`to_dict`; absent sections are empty.

        A stored plan is input, so anything :meth:`to_dict` could not have
        written — an unknown section, an entry with an unknown, missing or
        mistyped field — raises :class:`ValueError` naming the section and
        entry index instead of replaying a different plan.
        """
        if not isinstance(payload, dict):
            raise ValueError(f"a fault plan is an object, got {payload!r}")
        unknown = sorted(set(payload) - set(_SECTIONS))
        if unknown:
            raise ValueError(
                f"unknown fault plan section(s) {', '.join(map(repr, unknown))}; "
                f"valid sections: {', '.join(_SECTIONS)}"
            )
        sections = {}
        for section, kind in _SECTIONS.items():
            entries = payload.get(section, [])
            if not isinstance(entries, list):
                raise ValueError(f"{section}: expected a list, got {entries!r}")
            sections[section] = [
                _entry_from_dict(kind, f"{section}[{index}]", entry)
                for index, entry in enumerate(entries)
            ]
        return cls(**sections)


#: Plan section -> entry type, in serialisation order.
_SECTIONS = {
    "spikes": Spike,
    "partitions": PartitionWindow,
    "loss_windows": LossWindow,
    "coordinator_crashes": CoordinatorCrash,
    "replica_crashes": ReplicaCrash,
}

#: Field type -> JSON value types a stored plan may give it.
_ACCEPTS = {float: (int, float), str: (str,), Optional[str]: (str, type(None))}


def _entry_from_dict(kind, where: str, entry: Any):
    if not isinstance(entry, dict):
        raise ValueError(f"{where}: expected an object, got {entry!r}")
    try:
        value = kind(**entry)
    except TypeError as exc:  # unknown or missing field
        raise ValueError(f"{where}: {exc}") from None
    for name, hint in typing.get_type_hints(kind).items():
        field_value = getattr(value, name)
        if isinstance(field_value, bool) or not isinstance(field_value, _ACCEPTS[hint]):
            raise ValueError(f"{where}.{name}: bad value {field_value!r}")
    return value


def chaos_plan(
    dc_names: List[str],
    duration_ms: float,
    seed: int = 0,
    intensity: float = 1.0,
    allow_crashes: bool = True,
) -> FaultPlan:
    """A seeded random fault schedule — the nemesis for chaos tests.

    ``intensity`` scales how many faults are drawn.  Partitions are kept
    short (below typical recovery TTLs) and never cover a majority of data
    centers at once, so liveness — not just safety — remains testable.

    The draw sequence is frozen: a given ``(seed, intensity, dc_names,
    duration_ms)`` has produced the same plan since this function first
    shipped, and chaos-test baselines depend on that.  New fault types go
    in :func:`campaign_plan`, not here.
    """
    if duration_ms <= 0:
        raise ValueError("duration_ms must be positive")
    if intensity < 0:
        raise ValueError("intensity must be >= 0")
    rng = Random(seed)
    plan = FaultPlan()

    n_spikes = rng.randint(0, max(1, int(3 * intensity)))
    for _ in range(n_spikes):
        start = rng.uniform(0.1, 0.8) * duration_ms
        plan.spikes.append(
            Spike(
                start_ms=start,
                duration_ms=rng.uniform(0.02, 0.10) * duration_ms,
                multiplier=rng.uniform(2.0, 6.0),
            )
        )

    n_partitions = rng.randint(0, max(1, int(2 * intensity)))
    for _ in range(n_partitions):
        start = rng.uniform(0.1, 0.8) * duration_ms
        plan.partitions.append(
            PartitionWindow(
                start_ms=start,
                end_ms=start + rng.uniform(0.02, 0.08) * duration_ms,
                dc_name=rng.choice(dc_names),
            )
        )

    if allow_crashes and rng.random() < min(0.7 * intensity, 0.9):
        plan.coordinator_crashes.append(
            CoordinatorCrash(
                dc_name=rng.choice(dc_names),
                at_ms=rng.uniform(0.2, 0.7) * duration_ms,
            )
        )
    return plan


def campaign_plan(
    dc_names: List[str],
    duration_ms: float,
    seed: int = 0,
    intensity: float = 1.0,
) -> FaultPlan:
    """A seeded random fault schedule for consistency-checker campaigns.

    Differences from :func:`chaos_plan`, all in service of keeping the
    offline checker's invariants decidable:

    * draws message-loss windows and replica crashes in addition to
      spikes, partitions and coordinator crashes;
    * schedules **at most one crash per plan** — coordinator XOR replica —
      so the surviving cluster can still reach a fast quorum (5 DCs, fast
      quorum 4) and a crashed replica never combines with a crashed
      coordinator to make orphan recovery ambiguous;
    * loss windows are inter-DC only (see
      :class:`~repro.net.partitions.LossWindow`), so a coordinator's local
      replica always learns its decisions.
    """
    if duration_ms <= 0:
        raise ValueError("duration_ms must be positive")
    if intensity < 0:
        raise ValueError("intensity must be >= 0")
    rng = Random(seed)
    plan = FaultPlan()

    n_spikes = rng.randint(0, max(1, int(3 * intensity)))
    for _ in range(n_spikes):
        start = rng.uniform(0.1, 0.8) * duration_ms
        plan.spikes.append(
            Spike(
                start_ms=start,
                duration_ms=rng.uniform(0.02, 0.10) * duration_ms,
                multiplier=rng.uniform(2.0, 6.0),
            )
        )

    n_partitions = rng.randint(0, max(1, int(2 * intensity)))
    for _ in range(n_partitions):
        start = rng.uniform(0.1, 0.8) * duration_ms
        plan.partitions.append(
            PartitionWindow(
                start_ms=start,
                end_ms=start + rng.uniform(0.02, 0.08) * duration_ms,
                dc_name=rng.choice(dc_names),
            )
        )

    n_loss = rng.randint(0, max(1, int(2 * intensity)))
    for _ in range(n_loss):
        start = rng.uniform(0.1, 0.8) * duration_ms
        plan.loss_windows.append(
            LossWindow(
                start_ms=start,
                end_ms=start + rng.uniform(0.03, 0.12) * duration_ms,
                rate=rng.uniform(0.1, 0.5),
                dc_name=rng.choice(dc_names),
            )
        )

    if rng.random() < min(0.6 * intensity, 0.9):
        at_ms = rng.uniform(0.2, 0.7) * duration_ms
        dc_name = rng.choice(dc_names)
        if rng.random() < 0.5:
            plan.coordinator_crashes.append(CoordinatorCrash(dc_name, at_ms))
        else:
            plan.replica_crashes.append(ReplicaCrash(dc_name, at_ms))
    return plan
