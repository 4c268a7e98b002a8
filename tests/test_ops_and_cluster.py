"""Unit tests for the shared ops types and cluster assembly."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.net.topology import make_synthetic_topology
from repro.ops import (
    AbortReason,
    Decision,
    DeltaOp,
    Outcome,
    TxRequest,
    WriteOp,
)


class TestOps:
    def test_tx_request_write_keys(self):
        request = TxRequest(
            txid="t", writes=[WriteOp("a", 1), DeltaOp("b", -1)]
        )
        assert request.write_keys == ["a", "b"]
        assert not request.is_read_only()

    def test_read_only_detection(self):
        assert TxRequest(txid="t", reads=["a"]).is_read_only()

    def test_decision_committed_property(self):
        assert Decision("t", Outcome.COMMITTED).committed
        assert not Decision("t", Outcome.ABORTED, AbortReason.CONFLICT).committed

    def test_abort_reason_values_unique(self):
        values = [reason.value for reason in AbortReason]
        assert len(values) == len(set(values))


class TestClusterAssembly:
    def test_default_cluster_shape(self):
        cluster = Cluster()
        assert len(cluster.storage_nodes) == 5
        assert len(cluster.coordinators) == 5
        assert cluster.datacenter_names == [
            "us_west", "us_east", "ireland", "singapore", "tokyo",
        ]

    def test_mint_txid_counts_per_cluster_across_prefixes(self):
        cluster = Cluster()
        assert [cluster.mint_txid(), cluster.mint_txid("pay"), cluster.mint_txid()] == [
            "tx-1", "pay-2", "tx-3",
        ]
        assert Cluster().mint_txid() == "tx-1"  # a new run starts over

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            Cluster(ClusterConfig(engine="spanner"))

    def test_removed_delivery_batching_option_rejected(self):
        with pytest.raises(TypeError):
            ClusterConfig(delivery_batching=True)

    def test_custom_topology(self):
        topology = make_synthetic_topology(3, seed=1)
        cluster = Cluster(ClusterConfig(topology=topology))
        assert len(cluster.storage_nodes) == 3
        assert len(cluster.replica_ids) == 3

    def test_load_reaches_every_replica(self):
        cluster = Cluster()
        cluster.load({"a": 1, "b": 2})
        for node in cluster.storage_nodes.values():
            assert node.store.get("a").value == 1
            assert node.store.get("b").value == 2

    def test_coordinator_lookup(self):
        cluster = Cluster()
        coordinator = cluster.coordinator("tokyo")
        assert coordinator.datacenter.name == "tokyo"
        assert coordinator.local_replica_id == "store:tokyo"

    def test_run_until(self):
        cluster = Cluster()
        cluster.run(until=100.0)
        assert cluster.sim.now == 100.0

    def test_mdcc_replicas_registered(self):
        cluster = Cluster(ClusterConfig(option_ttl_ms=1_000.0))
        assert set(cluster.replicas) == set(cluster.datacenter_names)
        for replica in cluster.replicas.values():
            assert replica.option_ttl_ms == 1_000.0
            assert len(replica.peer_ids) == 5

    def test_twopc_cluster_has_no_mdcc_replicas(self):
        cluster = Cluster(ClusterConfig(engine="twopc"))
        assert cluster.replicas == {}
