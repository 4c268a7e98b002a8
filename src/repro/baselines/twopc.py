"""Coordinator of the two-phase-commit baseline."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set

from repro.baselines import protocol
from repro.baselines.replica import primary_index
from repro.net.messages import Message
from repro.net.network import Network, NetworkNode
from repro.net.topology import Datacenter
from repro.ops import AbortReason, Decision, Outcome, TxEvents, TxRequest
from repro.sim.kernel import Simulator


@dataclass
class TwoPcConfig:
    default_deadline_ms: Optional[float] = None


class _InflightTx:
    __slots__ = ("request", "events", "votes", "failed", "decided", "timeout_event", "phase")

    def __init__(self, request: TxRequest, events: TxEvents) -> None:
        self.request = request
        self.events = events
        self.votes: Dict[str, Optional[bool]] = {}
        self.failed = False
        self.decided = False
        self.timeout_event = None
        self.phase = "read"


class TwoPcCoordinator(NetworkNode):
    """Runs reads against primaries, then the two commit phases.

    The client is answered at decision time (after every primary voted);
    phase two (apply + lock release) remains on the critical path of *other*
    transactions through the locks, which is precisely the baseline's
    contention pathology.
    """

    def __init__(
        self,
        node_id: str,
        datacenter: Datacenter,
        sim: Simulator,
        network: Network,
        replica_ids: Sequence[str],
        config: Optional[TwoPcConfig] = None,
    ) -> None:
        super().__init__(node_id, datacenter)
        self.sim = sim
        self.config = config if config is not None else TwoPcConfig()
        self.replica_ids = list(replica_ids)
        self._inflight: Dict[str, _InflightTx] = {}
        self._pending_reads: Dict[str, Set[str]] = {}
        network.register(self)

    def primary_id(self, key: str) -> str:
        return self.replica_ids[primary_index(key, len(self.replica_ids))]

    # ------------------------------------------------------------------
    def execute(self, request: TxRequest, events: Optional[TxEvents] = None) -> None:
        if request.txid in self._inflight:
            raise ValueError(f"transaction {request.txid} already in flight")
        events = events if events is not None else TxEvents()
        request.submitted_at = self.sim.now
        if request.deadline_ms is None:
            request.deadline_ms = self.config.default_deadline_ms
        tx = _InflightTx(request, events)
        self._inflight[request.txid] = tx
        if request.deadline_ms is not None:
            tx.timeout_event = self.sim.schedule(
                request.deadline_ms, self._on_timeout, request.txid
            )
        self._start_reads(tx)

    def abort(self, txid: str) -> bool:
        """Application-initiated abort (mirrors the MDCC coordinator's)."""
        tx = self._inflight.get(txid)
        if tx is None or tx.decided:
            return False
        self._decide(tx, Outcome.ABORTED, AbortReason.CLIENT)
        return True

    # ------------------------------------------------------------------
    def _start_reads(self, tx: _InflightTx) -> None:
        keys = set(tx.request.reads)
        if not keys:
            self._start_prepare(tx)
            return
        # Group read keys by primary; one round trip per involved primary.
        by_primary: Dict[str, List[str]] = {}
        for key in sorted(keys):
            by_primary.setdefault(self.primary_id(key), []).append(key)
        tx.phase = "read"
        self._pending_reads[tx.request.txid] = set(by_primary)
        for primary_id, primary_keys in by_primary.items():
            self.send(
                primary_id,
                protocol.PrimaryReadRequest(txid=tx.request.txid, keys=tuple(primary_keys)),
            )

    def _on_read_reply(self, msg: protocol.PrimaryReadReply) -> None:
        tx = self._inflight.get(msg.txid)
        if tx is None or tx.decided or tx.phase != "read":
            return
        for key, (_version, value) in msg.results.items():
            tx.request.read_results[key] = value
        pending = self._pending_reads.get(msg.txid)
        if pending is None:
            return
        pending.discard(msg.sender)
        if not pending:
            del self._pending_reads[msg.txid]
            tx.events.on_reads_complete(tx.request, self.sim.now)
            self._start_prepare(tx)

    # ------------------------------------------------------------------
    def _start_prepare(self, tx: _InflightTx) -> None:
        request = tx.request
        if request.is_read_only():
            self._decide(tx, Outcome.COMMITTED, AbortReason.NONE)
            return
        tx.phase = "prepare"
        tx.votes = {op.key: None for op in request.writes}
        for op in request.writes:
            self.send(
                self.primary_id(op.key),
                protocol.PrepareRequest(txid=request.txid, key=op.key, op=op),
            )
        tx.events.on_commit_started(request, self.sim.now)

    def _on_prepare_reply(self, msg: protocol.PrepareReply) -> None:
        tx = self._inflight.get(msg.txid)
        if tx is None or tx.decided or tx.phase != "prepare":
            return
        if tx.votes.get(msg.key) is not None:
            return
        tx.votes[msg.key] = msg.prepared
        tx.events.on_votes(tx.request, ((msg.key, msg.prepared),), self.sim.now)
        if tx.decided:
            return  # the hook aborted the transaction (``abort``)
        if not msg.prepared:
            self._decide(tx, Outcome.ABORTED, AbortReason.LOCK_TIMEOUT)
        elif all(vote for vote in tx.votes.values()):
            self._decide(tx, Outcome.COMMITTED, AbortReason.NONE)

    # ------------------------------------------------------------------
    def _on_timeout(self, txid: str) -> None:
        tx = self._inflight.get(txid)
        if tx is None or tx.decided:
            return
        tx.timeout_event = None
        self._decide(tx, Outcome.ABORTED, AbortReason.TIMEOUT)

    def _decide(self, tx: _InflightTx, outcome: Outcome, reason: AbortReason) -> None:
        tx.decided = True
        tx.phase = "decided"
        if tx.timeout_event is not None:
            tx.timeout_event.cancel()
            tx.timeout_event = None
        del self._inflight[tx.request.txid]
        self._pending_reads.pop(tx.request.txid, None)
        commit = outcome is Outcome.COMMITTED
        for op in tx.request.writes:
            self.send(
                self.primary_id(op.key),
                protocol.DecisionRequest(txid=tx.request.txid, key=op.key, commit=commit),
            )
        decision = Decision(
            txid=tx.request.txid, outcome=outcome, reason=reason, decided_at=self.sim.now
        )
        tx.events.on_decided(tx.request, decision)

    # ------------------------------------------------------------------
    def receive(self, message: Message) -> None:
        if isinstance(message, protocol.PrepareReply):
            self._on_prepare_reply(message)
        elif isinstance(message, protocol.PrimaryReadReply):
            self._on_read_reply(message)
        else:
            raise RuntimeError(f"2PC coordinator got unexpected {message.kind}")
