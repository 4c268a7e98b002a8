"""Never acknowledge before durable: the WAL's delay gates every reply.

The WAL models durability as latency only, so the contract it exists for —
a replica acknowledges (or applies) a protocol write only once the append
backing it is durable — is checked here on the messages themselves: an
audit records each handler's receipt time, each append's durable instant
and each send, in simulated time, on a jitter-free cluster with and
without group commit.  Every transaction writes one key, so a (node,
append kind, txid) triple names exactly one append.
"""

from __future__ import annotations

import pytest

from repro.baselines import protocol as twopc
from repro.cluster import Cluster, ClusterConfig
from repro.mdcc import protocol as mdcc
from repro.mdcc.replica import MdccReplica
from repro.ops import TxRequest, WriteOp
from repro.storage.node import StorageNode
from repro.storage.wal import WriteAheadLog

SYNC_DELAY_MS = 4.0
DCS = ("us_west", "us_east", "ireland", "singapore", "tokyo")
#: Messages whose handler appends to the WAL.
LOGGED = (mdcc.Phase2a, mdcc.DecisionMessage, twopc.BackupPrepare)


class DurabilityAudit:
    def __init__(self, monkeypatch) -> None:
        self.received = {}  # (node id, LOGGED type, txid) -> receipt time
        self.durable = {}   # (node id, append kind, txid) -> (appended at, durable at)
        self.sent = []      # (node id, message, send time)
        self.applied = []   # (node id, txid, apply time) of MDCC decisions
        audit = self
        receive, send = StorageNode.receive, StorageNode.send
        append, apply_decision = WriteAheadLog.append, MdccReplica._apply_decision

        def audited_receive(node, message):
            if isinstance(message, LOGGED):
                key = (node.node_id, type(message), message.txid)
                audit._once(audit.received, key, node.sim.now)
            receive(node, message)

        def audited_send(node, recipient_id, message):
            audit.sent.append((node.node_id, message, node.sim.now))
            send(node, recipient_id, message)

        def audited_append(wal, kind, txid, now):
            delay = append(wal, kind, txid, now)
            audit._once(audit.durable, (wal.label, kind, txid), (now, now + delay))
            return delay

        def audited_apply(replica, msg):
            audit.applied.append((replica.node.node_id, msg.txid, replica.node.sim.now))
            apply_decision(replica, msg)

        monkeypatch.setattr(StorageNode, "receive", audited_receive)
        monkeypatch.setattr(StorageNode, "send", audited_send)
        monkeypatch.setattr(WriteAheadLog, "append", audited_append)
        monkeypatch.setattr(MdccReplica, "_apply_decision", audited_apply)

    @staticmethod
    def _once(table, key, value):
        assert key not in table, f"{key} seen twice"
        table[key] = value

    def sends(self, message_type):
        return [(node, msg, at) for node, msg, at in self.sent if isinstance(msg, message_type)]


def contended_run(monkeypatch, engine, batch_window_ms):
    """Five DCs race single-key writes over three keys; returns the audit."""
    audit = DurabilityAudit(monkeypatch)
    cluster = Cluster(ClusterConfig(
        seed=11, engine=engine, jitter_sigma=0.0,
        wal_sync_delay_ms=SYNC_DELAY_MS, wal_batch_window_ms=batch_window_ms,
    ))
    for i in range(30):
        dc = DCS[i % len(DCS)]
        request = TxRequest(txid=f"{dc}-{i}", writes=[WriteOp(f"k{i % 3}", i)])
        cluster.sim.schedule(7.0 * i, cluster.coordinator(dc).execute, request)
    cluster.run()
    return audit


@pytest.mark.parametrize("batch_window_ms", [0.0, 3.0])
def test_mdcc_votes_and_decisions_wait_for_durability(monkeypatch, batch_window_ms):
    audit = contended_run(monkeypatch, "mdcc", batch_window_ms)
    accepts = rejects = 0
    for node, vote, sent_at in audit.sends(mdcc.Phase2b):
        received_at = audit.received[(node, mdcc.Phase2a, vote.txid)]
        if any(accepted for _key, accepted in vote.votes):
            accepts += 1
            appended_at, durable_at = audit.durable[(node, "option", vote.txid)]
            assert appended_at == received_at
            assert durable_at >= received_at + SYNC_DELAY_MS
            assert sent_at >= durable_at, (node, vote)
        else:
            rejects += 1
            assert sent_at == received_at, (node, vote)
    assert accepts > 0 and rejects > 0

    assert audit.applied
    for node, txid, applied_at in audit.applied:
        kinds = [k for k in ("commit", "abort") if (node, k, txid) in audit.durable]
        assert len(kinds) == 1
        appended_at, durable_at = audit.durable[(node, kinds[0], txid)]
        assert appended_at == audit.received[(node, mdcc.DecisionMessage, txid)]
        assert applied_at >= durable_at, (node, txid)


@pytest.mark.parametrize("batch_window_ms", [0.0, 3.0])
def test_twopc_replicates_and_acks_only_durable_prepares(monkeypatch, batch_window_ms):
    audit = contended_run(monkeypatch, "twopc", batch_window_ms)
    replications = audit.sends(twopc.BackupPrepare)
    assert replications
    for primary, msg, sent_at in replications:
        _, durable_at = audit.durable[(primary, "prepare", msg.txid)]
        assert sent_at >= durable_at, (primary, msg)

    acks = audit.sends(twopc.BackupAck)
    assert acks
    for backup, ack, sent_at in acks:
        appended_at, durable_at = audit.durable[(backup, "backup-prepare", ack.txid)]
        assert appended_at == audit.received[(backup, twopc.BackupPrepare, ack.txid)]
        assert durable_at >= appended_at + SYNC_DELAY_MS
        assert sent_at >= durable_at, (backup, ack)
