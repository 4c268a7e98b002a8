"""Replica-side logic of the 2PC baseline (primary and backup roles).

Every storage node can act as primary for the keys hash-placed on its data
center and as backup for everyone else's.  A prepare at the primary acquires
the record lock, forces the write to the local WAL, then synchronously
replicates to the other replicas and votes yes once a majority of them (self
included) is durable.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.baselines import protocol
from repro.baselines.locks import LockTable
from repro.ops import DeltaOp, WriteLike, WriteOp
from repro.paxos.ballot import classic_quorum
from repro.storage.node import StorageNode


def primary_index(key: str, n_datacenters: int) -> int:
    """Stable hash placement of a key's primary replica."""
    return zlib.crc32(key.encode("utf-8")) % n_datacenters


@dataclass
class _PreparedWrite:
    txid: str
    key: str
    op: WriteLike
    coordinator_id: str
    backup_acks: Set[str] = field(default_factory=set)
    voted: bool = False


class TwoPcReplica:
    def __init__(
        self,
        node: StorageNode,
        replica_ids: Sequence[str],
        lock_wait_timeout_ms: float = 1000.0,
    ) -> None:
        self.node = node
        self.replica_ids = list(replica_ids)
        self.locks = LockTable(node.sim, wait_timeout_ms=lock_wait_timeout_ms)
        self._prepared: Dict[tuple, _PreparedWrite] = {}
        # key -> {version: (txid, op)} decisions waiting for their predecessor.
        self._backup_buffer: Dict[str, Dict[int, tuple]] = {}
        node.register_handler(protocol.PrimaryReadRequest, self._on_read)
        node.register_handler(protocol.PrepareRequest, self._on_prepare)
        node.register_handler(protocol.BackupPrepare, self._on_backup_prepare)
        node.register_handler(protocol.BackupAck, self._on_backup_ack)
        node.register_handler(protocol.DecisionRequest, self._on_decision)
        node.register_handler(protocol.BackupDecision, self._on_backup_decision)

    @property
    def _majority(self) -> int:
        return classic_quorum(len(self.replica_ids))

    # ------------------------------------------------------------------
    def _on_read(self, msg: protocol.PrimaryReadRequest) -> None:
        results = {}
        for key in msg.keys:
            version = self.node.store.get(key)
            results[key] = (version.version, version.value)
        self.node.send(msg.sender, protocol.PrimaryReadReply(txid=msg.txid, results=results))

    # ------------------------------------------------------------------
    # Primary role
    # ------------------------------------------------------------------
    def _on_prepare(self, msg: protocol.PrepareRequest) -> None:
        state_key = (msg.txid, msg.key)
        prepared = _PreparedWrite(
            txid=msg.txid, key=msg.key, op=msg.op, coordinator_id=msg.sender
        )
        self._prepared[state_key] = prepared
        self.locks.acquire(
            msg.key,
            msg.txid,
            on_grant=lambda: self._lock_granted(prepared),
            on_timeout=lambda: self._lock_timed_out(prepared),
        )

    def _lock_granted(self, prepared: _PreparedWrite) -> None:
        state_key = (prepared.txid, prepared.key)
        if state_key not in self._prepared:
            # The transaction was aborted while we waited for the lock.
            self.locks.release(prepared.key, prepared.txid)
            return
        delay = self.node.wal.append("prepare", prepared.txid, self.node.sim.now)
        self.node.sim.schedule(delay, self._replicate_prepare, prepared)

    def _replicate_prepare(self, prepared: _PreparedWrite) -> None:
        if (prepared.txid, prepared.key) not in self._prepared:
            return
        prepared.backup_acks.add(self.node.node_id)  # self is durable
        for replica_id in self.replica_ids:
            if replica_id != self.node.node_id:
                self.node.send(
                    replica_id,
                    protocol.BackupPrepare(txid=prepared.txid, key=prepared.key, op=prepared.op),
                )
        self._maybe_vote(prepared)

    def _on_backup_ack(self, msg: protocol.BackupAck) -> None:
        prepared = self._prepared.get((msg.txid, msg.key))
        if prepared is None:
            return
        prepared.backup_acks.add(msg.sender)
        self._maybe_vote(prepared)

    def _maybe_vote(self, prepared: _PreparedWrite) -> None:
        if prepared.voted or len(prepared.backup_acks) < self._majority:
            return
        prepared.voted = True
        self.node.send(
            prepared.coordinator_id,
            protocol.PrepareReply(txid=prepared.txid, key=prepared.key, prepared=True),
        )

    def _lock_timed_out(self, prepared: _PreparedWrite) -> None:
        self._prepared.pop((prepared.txid, prepared.key), None)
        self.node.send(
            prepared.coordinator_id,
            protocol.PrepareReply(
                txid=prepared.txid, key=prepared.key, prepared=False, reason="lock timeout"
            ),
        )

    def _on_decision(self, msg: protocol.DecisionRequest) -> None:
        prepared = self._prepared.pop((msg.txid, msg.key), None)
        if prepared is None:
            # Abort for a transaction still waiting on (or never granted)
            # the lock: drop it from the queue / release if held.
            self.locks.release(msg.key, msg.txid)
            return
        version = 0
        if msg.commit:
            self._apply(msg.key, msg.txid, prepared.op)
            version = self.node.store.record(msg.key).committed_version
        self.locks.release(msg.key, msg.txid)
        if msg.commit:
            for replica_id in self.replica_ids:
                if replica_id != self.node.node_id:
                    self.node.send(
                        replica_id,
                        protocol.BackupDecision(
                            txid=msg.txid, key=msg.key, commit=True,
                            op=prepared.op, version=version,
                        ),
                    )

    # ------------------------------------------------------------------
    # Backup role
    # ------------------------------------------------------------------
    def _on_backup_prepare(self, msg: protocol.BackupPrepare) -> None:
        delay = self.node.wal.append("backup-prepare", msg.txid, self.node.sim.now)
        self.node.reply_after_sync(
            delay, msg.sender, protocol.BackupAck(txid=msg.txid, key=msg.key)
        )

    def _on_backup_decision(self, msg: protocol.BackupDecision) -> None:
        if not msg.commit:
            return
        record = self.node.store.record(msg.key)
        if msg.version <= record.committed_version:
            return  # duplicate / already superseded
        if msg.version == record.committed_version + 1:
            self._apply(msg.key, msg.txid, msg.op)
            self._flush_backup_buffer(msg.key)
        else:
            # A gap: an earlier decision is still in flight.  Buffer until
            # the chain catches up so replicas never apply out of order.
            self._backup_buffer.setdefault(msg.key, {})[msg.version] = (msg.txid, msg.op)

    def _flush_backup_buffer(self, key: str) -> None:
        buffered = self._backup_buffer.get(key)
        if not buffered:
            return
        record = self.node.store.record(key)
        while True:
            entry = buffered.pop(record.committed_version + 1, None)
            if entry is None:
                break
            txid, op = entry
            self._apply(key, txid, op)
        if not buffered:
            self._backup_buffer.pop(key, None)

    # ------------------------------------------------------------------
    def _apply(self, key: str, txid: str, op: WriteLike) -> None:
        record = self.node.store.record(key)
        if isinstance(op, WriteOp):
            record.install(op.value, txid, self.node.sim.now)
        elif isinstance(op, DeltaOp):
            record.install(record.latest.value + op.delta, txid, self.node.sim.now)
        else:
            raise TypeError(f"unsupported op {op!r}")
