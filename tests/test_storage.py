"""Unit tests for records, the store, the WAL and the storage node."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro import obs
from repro.net.messages import Message
from repro.net.network import Network
from repro.net.topology import EC2_FIVE_DC
from repro.sim.kernel import Simulator
from repro.storage.node import StorageNode
from repro.storage.record import VersionedRecord
from repro.storage.store import KVStore
from repro.storage.wal import WriteAheadLog


class TestVersionedRecord:
    def test_starts_at_version_zero(self):
        record = VersionedRecord("k", initial_value=5)
        assert record.committed_version == 0
        assert record.latest.value == 5

    def test_install_appends_versions(self):
        record = VersionedRecord("k", 0)
        record.install(1, "tx1", now=10.0)
        record.install(2, "tx2", now=20.0)
        assert record.committed_version == 2
        assert record.latest.value == 2
        assert record.latest.txid == "tx2"
        assert record.latest.committed_at == 20.0

    def test_version_at(self):
        record = VersionedRecord("k", 0)
        record.install("a", "tx1", 1.0)
        record.install("b", "tx2", 2.0)
        assert record.version_at(1).value == "a"
        assert record.version_at(2).value == "b"
        assert record.version_at(99) is None

    def test_old_versions_truncated(self):
        record = VersionedRecord("k", 0, max_versions=3)
        for i in range(10):
            record.install(i, f"tx{i}", float(i))
        assert len(record.versions) == 3
        assert record.committed_version == 10
        assert record.version_at(1) is None

    def test_repr(self):
        assert "'k'" in repr(VersionedRecord("k"))


class TestKVStore:
    def test_lazy_record_creation_with_default(self):
        store = KVStore(default_value=7)
        assert store.get("new").value == 7
        assert "new" in store

    def test_record_identity_stable(self):
        store = KVStore()
        assert store.record("a") is store.record("a")

    def test_load_bulk(self):
        store = KVStore()
        store.load({"a": 1, "b": 2})
        assert store.get("a").value == 1
        assert store.get("a").version == 0
        assert len(store) == 2

    def test_snapshot(self):
        store = KVStore()
        store.load({"a": 1})
        store.record("a").install(5, "tx", 1.0)
        assert store.snapshot() == {"a": 5}

    def test_keys(self):
        store = KVStore()
        store.load({"a": 1, "b": 2})
        assert sorted(store.keys()) == ["a", "b"]


class TestWriteAheadLog:
    def test_append_returns_sync_delay(self):
        wal = WriteAheadLog(sync_delay_ms=0.7)
        assert wal.append("prepare", "tx1", now=5.0) == pytest.approx(0.7)
        assert wal.sync_count == 1

    def test_group_commit_shares_one_sync(self):
        wal = WriteAheadLog(sync_delay_ms=1.0, batch_window_ms=5.0)
        first = wal.append("a", "t1", now=0.0)
        second = wal.append("b", "t2", now=2.0)
        third = wal.append("c", "t3", now=4.0)
        # All three become durable at the same flush instant: 0 + 5 + 1 = 6.
        assert first == pytest.approx(6.0)
        assert second == pytest.approx(4.0)
        assert third == pytest.approx(2.0)
        assert wal.sync_count == 1
        assert {0.0 + first, 2.0 + second, 4.0 + third} == {6.0}
        assert wal.appends == 3

    def test_group_commit_opens_new_batch_after_flush(self):
        wal = WriteAheadLog(sync_delay_ms=1.0, batch_window_ms=5.0)
        wal.append("a", "t1", now=0.0)       # batch 1 flushes at 6
        delay = wal.append("b", "t2", now=7.0)  # after flush: batch 2
        assert delay == pytest.approx(6.0)
        assert wal.sync_count == 2

    def test_batching_reduces_sync_count_under_load(self):
        plain = WriteAheadLog(sync_delay_ms=0.5, batch_window_ms=0.0)
        batched = WriteAheadLog(sync_delay_ms=0.5, batch_window_ms=5.0)
        for i in range(100):
            plain.append("w", f"t{i}", now=i * 0.5)
            batched.append("w", f"t{i}", now=i * 0.5)
        assert plain.sync_count == 100
        assert batched.sync_count < 15

    def test_invalid_batch_window(self):
        with pytest.raises(ValueError):
            WriteAheadLog(batch_window_ms=-1.0)

    def test_entries_recorded_with_lsn(self):
        recorder = obs.FlightRecorder()
        with obs.session(recorder):
            wal = WriteAheadLog(tracer=obs.new_tracer())
            wal.append("a", "tx1", 1.0)
            wal.append("b", "tx2", 2.0)
        spans = [span for span in recorder.spans() if span.category == "wal"]
        assert [span.fields["lsn"] for span in spans] == [0, 1]
        assert spans[1].fields["kind"] == "b"
        assert wal.appends == 2

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            WriteAheadLog(sync_delay_ms=-1.0)


@dataclass
class Poke(Message):
    value: int = 0


class TestStorageNode:
    def _make(self):
        from repro.net.latency import LatencyModel

        sim = Simulator(seed=0)
        network = Network(sim, EC2_FIVE_DC, latency=LatencyModel(EC2_FIVE_DC, jitter_sigma=0.0))
        node = StorageNode("s1", EC2_FIVE_DC.datacenter("us_west"), sim)
        network.register(node)
        return sim, network, node

    def test_dispatch_to_registered_handler(self):
        sim, network, node = self._make()
        seen = []
        node.register_handler(Poke, lambda msg: seen.append(msg.value))
        node.receive(Poke(value=3))
        assert seen == [3]

    def test_unknown_message_raises(self):
        _, _, node = self._make()
        with pytest.raises(RuntimeError):
            node.receive(Poke())

    def test_duplicate_handler_rejected(self):
        _, _, node = self._make()
        node.register_handler(Poke, lambda msg: None)
        with pytest.raises(ValueError):
            node.register_handler(Poke, lambda msg: None)

    def test_reply_after_sync_delays_send(self):
        sim, network, node = self._make()
        other = StorageNode("s2", EC2_FIVE_DC.datacenter("us_west"), sim)
        seen = []
        other.register_handler(Poke, lambda msg: seen.append(sim.now))
        network.register(other)
        node.reply_after_sync(2.0, "s2", Poke())
        sim.run()
        # 2 ms durability + 0.5 ms intra-DC one-way
        assert seen == [2.5]
