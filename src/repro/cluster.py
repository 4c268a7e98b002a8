"""Cluster assembly: simulator + network + replicas + coordinators.

A :class:`Cluster` is the simulated equivalent of the paper's deployment:
one storage replica per data center (every record fully replicated), and one
transaction coordinator (app server) per data center that local clients talk
to.  The ``engine`` selects the commit protocol every coordinator runs:

* ``"mdcc"`` — the optimistic Paxos-per-record engine PLANET is built on;
* ``"twopc"`` — the lock-based two-phase-commit baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.baselines.replica import TwoPcReplica
from repro.baselines.twopc import TwoPcConfig, TwoPcCoordinator
from repro.config import Config
from repro.engine import build_simulator
from repro.mdcc.coordinator import MdccConfig, MdccCoordinator
from repro.mdcc.replica import MdccReplica
from repro.net.latency import LatencyModel
from repro.net.network import Network
from repro.net.topology import EC2_FIVE_DC, Topology
from repro.storage.node import StorageNode


@dataclass
class ClusterConfig(Config):
    topology: Topology = field(default_factory=lambda: EC2_FIVE_DC)
    seed: int = 0
    engine: str = "mdcc"
    # Simulator kernel implementation: "auto" (compiled when built, else
    # python), "compiled", or "python" — see repro.engine.
    backend: str = "auto"
    jitter_sigma: float = 0.2
    loss_probability: float = 0.0
    wal_sync_delay_ms: float = 0.5
    wal_batch_window_ms: float = 0.0
    default_value: object = 0
    # MDCC knobs
    use_fast_path: bool = True
    # Abort on the first rejecting vote instead of quorum-impossible
    # (the Jepsen et al. protocol variant; see MdccConfig).
    optimistic_abort: bool = False
    # Test-only seeded fault for checker validation (see MdccConfig).
    unsafe_skip_quorum_check: bool = False
    # 2PC knobs
    lock_wait_timeout_ms: float = 1000.0
    # Engine-level default transaction deadline (None = no deadline)
    default_deadline_ms: Optional[float] = None
    # Replica-side orphan recovery: accepted options still pending after this
    # long trigger the status-round termination protocol (None = disabled).
    option_ttl_ms: Optional[float] = None
    # Replica-side anti-entropy: periodic digest exchange repairing decision
    # broadcasts lost to partitions/loss (None = disabled).
    anti_entropy_interval_ms: Optional[float] = None


class Cluster:
    def __init__(self, config: Optional[ClusterConfig] = None) -> None:
        self.config = config if config is not None else ClusterConfig()
        if self.config.engine not in ("mdcc", "twopc"):
            raise ValueError(f"unknown engine {self.config.engine!r}")
        self.sim = build_simulator(
            seed=self.config.seed, backend=self.config.backend
        )
        self.topology = self.config.topology
        self.latency = LatencyModel(self.topology, jitter_sigma=self.config.jitter_sigma)
        self.network = Network(
            self.sim,
            self.topology,
            latency=self.latency,
            loss_probability=self.config.loss_probability,
        )
        self.storage_nodes: Dict[str, StorageNode] = {}
        self.coordinators: Dict[str, object] = {}
        self._session_counters: Dict[str, int] = {}
        self._txids = 0
        self._build()

    # ------------------------------------------------------------------
    def _build(self) -> None:
        replica_ids: List[str] = []
        for dc in self.topology:
            node = StorageNode(
                node_id=f"store:{dc.name}",
                datacenter=dc,
                sim=self.sim,
                default_value=self.config.default_value,
                wal_sync_delay_ms=self.config.wal_sync_delay_ms,
                wal_batch_window_ms=self.config.wal_batch_window_ms,
            )
            self.network.register(node)
            self.storage_nodes[dc.name] = node
            replica_ids.append(node.node_id)
        self.replica_ids = replica_ids

        self.replicas = {}
        if self.config.engine == "mdcc":
            for dc in self.topology:
                self.replicas[dc.name] = MdccReplica(
                    self.storage_nodes[dc.name],
                    option_ttl_ms=self.config.option_ttl_ms,
                    peer_ids=replica_ids,
                    anti_entropy_interval_ms=self.config.anti_entropy_interval_ms,
                )
            engine_config = MdccConfig(
                use_fast_path=self.config.use_fast_path,
                default_deadline_ms=self.config.default_deadline_ms,
                optimistic_abort=self.config.optimistic_abort,
                unsafe_skip_quorum_check=self.config.unsafe_skip_quorum_check,
            )
            for dc in self.topology:
                self.coordinators[dc.name] = MdccCoordinator(
                    node_id=f"coord:{dc.name}",
                    datacenter=dc,
                    sim=self.sim,
                    network=self.network,
                    replica_ids=replica_ids,
                    config=engine_config,
                )
        else:
            for dc in self.topology:
                TwoPcReplica(
                    self.storage_nodes[dc.name],
                    replica_ids,
                    lock_wait_timeout_ms=self.config.lock_wait_timeout_ms,
                )
            twopc_config = TwoPcConfig(default_deadline_ms=self.config.default_deadline_ms)
            for dc in self.topology:
                self.coordinators[dc.name] = TwoPcCoordinator(
                    node_id=f"coord:{dc.name}",
                    datacenter=dc,
                    sim=self.sim,
                    network=self.network,
                    replica_ids=replica_ids,
                    config=twopc_config,
                )

    # ------------------------------------------------------------------
    def coordinator(self, dc_name: str):
        return self.coordinators[dc_name]

    def crash_coordinator(self, dc_name: str) -> None:
        """Fail-stop the coordinator in one data center (MDCC engine)."""
        coordinator = self.coordinators[dc_name]
        if not hasattr(coordinator, "crash"):
            raise RuntimeError(f"engine {self.config.engine!r} has no crash support")
        coordinator.crash()

    def crash_replica(self, dc_name: str) -> None:
        """Fail-stop the storage replica in one data center.

        The node neither receives nor sends from now on; the surviving
        replicas continue as an n-1 cluster (fast quorum of 5 is 4, so one
        replica crash leaves commits reachable)."""
        self.storage_nodes[dc_name].crash()

    def next_session_id(self, dc_name: str) -> str:
        """Mint a cluster-unique session id, stable across runs.

        Per-DC counters rather than a global one so the id stream of one
        DC's sessions does not depend on the construction order of other
        DCs' sessions."""
        n = self._session_counters.get(dc_name, 0)
        self._session_counters[dc_name] = n + 1
        return f"{dc_name}/s{n}"

    def mint_txid(self, prefix: str = "tx") -> str:
        """Mint a cluster-unique id, ``<prefix>-<n>``, counting from 1.

        One counter shared by every prefix, so a run's ids are a function of
        the run alone.  Their order is behaviour: relaxed-write slot
        contests rank claimants by ``(len(txid), txid)``."""
        self._txids += 1
        return f"{prefix}-{self._txids}"

    def storage_node(self, dc_name: str) -> StorageNode:
        return self.storage_nodes[dc_name]

    def load(self, items: Dict[str, object]) -> None:
        """Install initial values at every replica (a consistent load phase)."""
        for node in self.storage_nodes.values():
            node.store.load(dict(items))

    def run(self, until: Optional[float] = None) -> None:
        self.sim.run(until=until)

    def settle(self, duration_ms: float = 2_000.0) -> None:
        """Run background daemons (anti-entropy) for ``duration_ms`` more.

        ``run()`` drains foreground work only; after fault-heavy runs, call
        ``settle`` to give the repair daemons time to converge the replicas,
        then assert on state."""
        self.sim.run(until=self.sim.now + duration_ms)
        self.sim.run()

    @property
    def datacenter_names(self) -> List[str]:
        return [dc.name for dc in self.topology]
