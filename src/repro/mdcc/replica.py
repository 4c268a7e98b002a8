"""Replica-side MDCC logic, attached to a protocol-agnostic storage node.

One :class:`MdccReplica` wraps each storage node.  It owns a per-record
:class:`~repro.paxos.acceptor.OptionAcceptor`, validates options against the
local record state, forces a proposal's accepted options to the WAL with one
append before its single vote message leaves, and applies/discards pending
options when the coordinator's decision arrives.

Two message races require care (both were caught by the replica-convergence
invariant tests):

* a ``Phase2a`` can be delivered *after* the transaction's decision (the
  decision only needs a quorum; the straggler replica's proposal is still in
  flight).  Accepting it would orphan a pending option that blocks the
  record forever, so replicas remember recently decided transactions and
  refuse their late proposals;
* decisions for two sequential writes of the same record can arrive out of
  order.  Exclusive options therefore apply in version order — an option
  whose ``read_version`` is ahead of the replica's committed version waits
  in a buffer until its predecessor lands.  Commutative deltas apply
  immediately (order is immaterial by construction).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict

from repro.mdcc import protocol
from repro.mdcc.options import DeltaOption, WriteOption, apply_option, validate_option
from repro.paxos.acceptor import OptionAcceptor
from repro.paxos.ballot import fast_quorum
from repro.storage.node import StorageNode

#: How many decided transaction ids each replica remembers for duplicate /
#: late-proposal suppression.  Far larger than the in-flight window of any
#: experiment; a real system would garbage-collect by watermark instead.
DECIDED_MEMORY = 100_000


class MdccReplica:
    def __init__(
        self,
        node: StorageNode,
        option_ttl_ms: float = None,
        peer_ids=None,
        anti_entropy_interval_ms: float = None,
    ) -> None:
        """``option_ttl_ms`` arms the orphan-recovery protocol: an accepted
        option still pending after that long triggers a status query round
        among the replicas (``peer_ids``) that safely terminates transactions
        whose coordinator died.  ``anti_entropy_interval_ms`` arms periodic
        digest exchange with rotating peers, which repairs decision
        broadcasts lost to partitions or message loss.  Both default to
        disabled for experiments that inject no faults."""
        self.node = node
        self.option_ttl_ms = option_ttl_ms
        self.anti_entropy_interval_ms = anti_entropy_interval_ms
        self.peer_ids = list(peer_ids) if peer_ids is not None else []
        self._acceptors: Dict[str, OptionAcceptor] = {}
        self._decided: "OrderedDict[str, bool]" = OrderedDict()
        # key -> {read_version: WriteOption} waiting for their predecessor.
        self._apply_buffer: Dict[str, Dict[int, WriteOption]] = {}
        # Recovery state -------------------------------------------------
        self._blocked: set = set()          # txids this replica will never accept
        self._orphan_timers: Dict[str, object] = {}
        self._recovery_votes: Dict[str, Dict[str, "protocol.TxStatusReply"]] = {}
        self.recovered_aborts = 0
        # Anti-entropy state ----------------------------------------------
        self._ae_peer_index = 0
        self._ae_scheduled = False
        self._last_activity = 0.0
        self.ae_repairs = 0
        node.register_handler(protocol.ReadRequest, self._on_read)
        node.register_handler(protocol.Phase1a, self._on_phase1a)
        node.register_handler(protocol.Phase2a, self._on_phase2a)
        node.register_handler(protocol.DecisionMessage, self._on_decision)
        node.register_handler(protocol.TxStatusQuery, self._on_status_query)
        node.register_handler(protocol.TxStatusReply, self._on_status_reply)
        node.register_handler(protocol.SyncDigest, self._on_sync_digest)
        node.register_handler(protocol.SyncUpdates, self._on_sync_updates)
        if self.anti_entropy_interval_ms is not None:
            self._schedule_ae_tick()

    def acceptor(self, key: str) -> OptionAcceptor:
        acceptor = self._acceptors.get(key)
        if acceptor is None:
            acceptor = OptionAcceptor(key)
            self._acceptors[key] = acceptor
        return acceptor

    def _remember_decided(self, txid: str, commit: bool) -> None:
        self._decided[txid] = commit
        while len(self._decided) > DECIDED_MEMORY:
            self._decided.popitem(last=False)

    # ------------------------------------------------------------------
    # Handlers
    # ------------------------------------------------------------------
    def _on_read(self, msg: protocol.ReadRequest) -> None:
        results = {}
        for key in msg.keys:
            version = self.node.store.get(key)
            results[key] = (version.version, version.value)
        self.node.send(msg.sender, protocol.ReadReply(txid=msg.txid, results=results))

    def _on_phase1a(self, msg: protocol.Phase1a) -> None:
        promises = tuple(
            (key, self.acceptor(key).handle_prepare(msg.ballot)[0]) for key in msg.keys
        )
        self.node.send(
            msg.sender,
            protocol.Phase1b(txid=msg.txid, ballot=msg.ballot, promises=promises),
        )

    def _on_phase2a(self, msg: protocol.Phase2a) -> None:
        txid = msg.txid
        if txid in self._blocked or txid in self._decided:
            # Blocked by recovery, or already decided without our vote:
            # accepting now would orphan a pending option.  Refuse every
            # option of the (possibly already gone) coordinator.
            self.node.send(
                msg.sender,
                protocol.Phase2b(
                    txid=txid, ballot=msg.ballot,
                    votes=tuple((option.key, False) for option in msg.options),
                ),
            )
            return
        store = self.node.store
        votes = []
        first_accepted = None
        for option in msg.options:
            key = option.key
            record = store.record(key)
            result = self.acceptor(key).handle_accept(
                msg.ballot,
                txid,
                option,
                validate=lambda option, record=record: validate_option(option, record),
            )
            votes.append((key, result.accepted))
            if result.accepted:
                record.pending[txid] = option
                if first_accepted is None:
                    first_accepted = key
        vote = protocol.Phase2b(txid=txid, ballot=msg.ballot, votes=tuple(votes))
        if first_accepted is None:
            self.node.send(msg.sender, vote)
            return
        # One append makes every accepted option of the message durable;
        # the vote leaves only once it is.
        delay = self.node.wal.append("option", txid, self.node.sim.now)
        self.node.reply_after_sync(delay, msg.sender, vote)
        self._arm_orphan_timer(txid, first_accepted)

    def _on_decision(self, msg: protocol.DecisionMessage) -> None:
        if msg.txid in self._decided:
            return  # duplicate delivery
        self._remember_decided(msg.txid, msg.commit)
        self._disarm_orphan_timer(msg.txid)
        self._note_activity()
        delay = self.node.wal.append(
            "commit" if msg.commit else "abort", msg.txid, self.node.sim.now
        )
        # Applying after the WAL force keeps the version chain consistent
        # with what a recovery would replay.
        self.node.sim.schedule(delay, self._apply_decision, msg)

    def _apply_decision(self, msg: protocol.DecisionMessage) -> None:
        for option in msg.options:
            record = self.node.store.record(option.key)
            record.pending.pop(msg.txid, None)
            self.acceptor(option.key).clear(msg.txid)
        if not msg.commit:
            return
        for option in msg.options:
            self._apply_in_order(option)

    # ------------------------------------------------------------------
    # Version-ordered application
    # ------------------------------------------------------------------
    @staticmethod
    def _claim_rank(relaxed: bool, txid: str):
        """Deterministic total order on committed claimants of one slot.

        Strict writes outrank relaxed ones (a relaxed writer that raced a
        validated first-committer loses — that loss *is* the permitted lost
        update); among equals the highest transaction id wins.  The order
        depends only on the claimants, never on decision arrival order, so
        every replica that sees the same committed set converges on the
        same winner.
        """
        return (not relaxed, (len(txid), txid))

    def _apply_in_order(self, option) -> None:
        record = self.node.store.record(option.key)
        if isinstance(option, DeltaOption):
            apply_option(option, record, self.node.sim.now)
            self._flush_buffer(option.key)
            return
        assert isinstance(option, WriteOption)
        if record.committed_version == option.read_version:
            apply_option(option, record, self.node.sim.now)
            self._flush_buffer(option.key)
        elif record.committed_version < option.read_version:
            self._buffer_option(option)
        else:
            self._contest_slot(option, record)

    def _buffer_option(self, option: WriteOption) -> None:
        """Park an option until its predecessor version lands.

        Two committed claimants of the same future slot (possible only when
        at least one is relaxed) collide here; keep the contest winner so
        the eventual flush installs the same value on every replica.
        """
        buffered = self._apply_buffer.setdefault(option.key, {})
        existing = buffered.get(option.read_version)
        if existing is None or existing.txid == option.txid:
            buffered[option.read_version] = option
            return
        if self._claim_rank(option.relaxed, option.txid) > self._claim_rank(
            existing.relaxed, existing.txid
        ):
            buffered[option.read_version] = option

    def _contest_slot(self, option: WriteOption, record) -> None:
        """An option arrived for an already-filled slot.

        For strict options this is a duplicate of an applied (or
        superseded) version — dropped, exactly as before relaxed isolation
        existed.  A relaxed claimant (either side) triggers the
        last-writer-wins contest: the winner's value overwrites the slot
        in place, without minting a new version number.
        """
        target = option.read_version + 1
        occupant = record.version_at(target)
        if occupant is None or occupant.txid == option.txid:
            return  # truncated away, or a duplicate delivery
        if not option.relaxed and not occupant.relaxed:
            return  # strict duplicate/superseded: historical behaviour
        if self._claim_rank(option.relaxed, option.txid) > self._claim_rank(
            occupant.relaxed, occupant.txid
        ):
            record.replace_at(
                target, option.new_value, option.txid, self.node.sim.now,
                relaxed=option.relaxed,
            )

    def _flush_buffer(self, key: str) -> None:
        buffered = self._apply_buffer.get(key)
        if not buffered:
            return
        record = self.node.store.record(key)
        while True:
            option = buffered.pop(record.committed_version, None)
            if option is None:
                break
            apply_option(option, record, self.node.sim.now)
        if not buffered:
            self._apply_buffer.pop(key, None)

    # ------------------------------------------------------------------
    # Orphan recovery: terminating transactions whose coordinator died
    # ------------------------------------------------------------------
    # The protocol runs two status rounds among the replicas:
    #
    # Round 1 (at option TTL): query every peer.  A peer that knows the
    # decision reports it (adopted immediately).  A peer that does not know
    # it *blocks* the transaction — it will reject any future accept — and
    # reports whether it had accepted the queried record's option.  If
    # enough never-accepted blockers exist that a commit quorum is provably
    # impossible, the initiator broadcasts an abort decision (safe under
    # any timing: a commit needed a quorum of accepts that cannot exist).
    #
    # Round 2 (one TTL later, everyone blocked, accepts frozen): re-query.
    # If still nobody knows a decision, the initiator *completes* the
    # transaction the way a takeover coordinator would: commit iff every
    # key in the transaction's write set reached a quorum of accepts
    # (reconstructed from the accepted options the peers return), abort
    # otherwise, and broadcast the decision.
    #
    # Safety rests on fail-stop coordinators with atomic decide+broadcast,
    # reliable delivery, and a partial-synchrony bound: a decision message
    # in flight when round 1 blocks lands before round 2 completes (one TTL
    # later — orders of magnitude above any message delay in the model).
    # These are the standard assumptions under which failure detection is
    # possible at all; the full MDCC recovery runs classic Paxos per record
    # to avoid even that bound.

    #: Rounds are one option-TTL apart; a high cap lets recovery outlast
    #: transient partitions while still bounding the event count when a
    #: replica is permanently cut off.
    MAX_RECOVERY_ROUNDS = 200

    def _arm_orphan_timer(self, txid: str, key: str) -> None:
        if self.option_ttl_ms is None or txid in self._orphan_timers:
            return
        self._orphan_timers[txid] = self.node.sim.schedule(
            self.option_ttl_ms, self._orphan_check, txid, key
        )

    def _disarm_orphan_timer(self, txid: str) -> None:
        timer = self._orphan_timers.pop(txid, None)
        if timer is not None:
            timer.cancel()
        self._recovery_votes.pop(txid, None)

    def _orphan_check(self, txid: str, key: str) -> None:
        self._orphan_timers.pop(txid, None)
        if txid in self._decided:
            return
        if txid not in self.node.store.record(key).pending:
            return
        state = self._recovery_votes.get(txid)
        round_number = 1 if state is None else state["round"] + 1
        if round_number > self.MAX_RECOVERY_ROUNDS:
            return  # give up (permanently partitioned / heavy message loss)
        self._recovery_votes[txid] = {"round": round_number, "key": key, "replies": {}}
        self._blocked.add(txid)  # freeze our own accept state too
        for peer_id in self.peer_ids:
            if peer_id != self.node.node_id:
                self.node.send(peer_id, protocol.TxStatusQuery(txid=txid, key=key))
        # Re-arm: the next firing starts the next round if still unresolved.
        self._orphan_timers[txid] = self.node.sim.schedule(
            self.option_ttl_ms, self._orphan_check, txid, key
        )

    def _own_accepted_options(self, txid: str):
        options = []
        for key, acceptor in self._acceptors.items():
            accepted = acceptor.accepted.get(txid)
            if accepted is not None:
                options.append(accepted.option)
        return options

    def _on_status_query(self, msg: protocol.TxStatusQuery) -> None:
        if msg.txid in self._decided:
            status = "committed" if self._decided[msg.txid] else "aborted"
            had_accepted = True  # irrelevant once decided
            accepted_options = ()
        else:
            status = "unknown"
            # Block the transaction: this replica will reject any future
            # accept for it, freezing the transaction's vote state.
            self._blocked.add(msg.txid)
            had_accepted = msg.txid in self.acceptor(msg.key).accepted
            accepted_options = tuple(self._own_accepted_options(msg.txid))
        self.node.send(
            msg.sender,
            protocol.TxStatusReply(
                txid=msg.txid,
                key=msg.key,
                status=status,
                had_accepted=had_accepted,
                accepted_options=accepted_options,
            ),
        )

    def _on_status_reply(self, msg: protocol.TxStatusReply) -> None:
        state = self._recovery_votes.get(msg.txid)
        if state is None or msg.txid in self._decided:
            return
        state["replies"][msg.sender] = msg

        if msg.status in ("committed", "aborted"):
            # Someone saw the real decision; adopt and propagate it.
            self._broadcast_recovered_decision(
                msg.txid, commit=msg.status == "committed"
            )
            return

        n = len(self.peer_ids)
        quorum = fast_quorum(n)
        replies = state["replies"]
        never_accepted = sum(
            1 for reply in replies.values()
            if reply.status == "unknown" and not reply.had_accepted
        )
        if never_accepted > n - quorum:
            # A commit quorum on the queried record provably never existed.
            self._broadcast_recovered_decision(msg.txid, commit=False)
            self.recovered_aborts += 1
            return

        if len(replies) < len(self.peer_ids) - 1:
            return  # round incomplete
        if state["round"] < 2:
            return  # wait for the quiescent second round (timer re-arms it)

        # Round >= 2 complete, nobody knows a decision, everyone is blocked:
        # complete the transaction as a takeover coordinator.
        accept_counts: Dict[str, int] = {}
        options_by_key: Dict[str, object] = {}
        all_options = list(self._own_accepted_options(msg.txid))
        for reply in replies.values():
            all_options.extend(reply.accepted_options)
        # Each (replica, key) acceptance appears once per reply source;
        # count distinct sources per key.
        sources_by_key: Dict[str, set] = {}
        for option in self._own_accepted_options(msg.txid):
            sources_by_key.setdefault(option.key, set()).add(self.node.node_id)
            options_by_key[option.key] = option
        for sender, reply in replies.items():
            for option in reply.accepted_options:
                sources_by_key.setdefault(option.key, set()).add(sender)
                options_by_key[option.key] = option
        tx_keys = ()
        for option in options_by_key.values():
            if option.tx_keys:
                tx_keys = option.tx_keys
                break
        if not tx_keys:
            tx_keys = tuple(sorted(options_by_key))
        commit = bool(tx_keys) and all(
            len(sources_by_key.get(key, ())) >= quorum for key in tx_keys
        )
        self._broadcast_recovered_decision(
            msg.txid, commit=commit, options=tuple(options_by_key.values())
        )
        self.recovered_aborts += 0 if commit else 1

    def _broadcast_recovered_decision(self, txid: str, commit: bool, options=None) -> None:
        """Converge every replica on the recovered decision.

        The initiator handles its own copy directly and sends the decision
        to every peer; the normal decision path (duplicate suppression,
        version-ordered apply) does the rest.
        """
        if options is None:
            options = tuple(self._own_accepted_options(txid))
        message = protocol.DecisionMessage(txid=txid, commit=commit, options=tuple(options))
        self._on_decision(message)
        for peer_id in self.peer_ids:
            if peer_id != self.node.node_id:
                self.node.send(
                    peer_id,
                    protocol.DecisionMessage(
                        txid=txid, commit=commit, options=tuple(options)
                    ),
                )

    # ------------------------------------------------------------------
    # Anti-entropy: repairing decision broadcasts lost to partitions/loss
    # ------------------------------------------------------------------
    # Every interval, the replica sends its committed-version digest to the
    # next peer (round-robin); the peer replies with the versions the sender
    # is missing — or its latest snapshot when the gap reaches past what its
    # truncated chain retains.  Ticks are *daemon* events: they run while
    # foreground work exists (and through any explicit ``run(until=...)`` /
    # ``Cluster.settle`` horizon) but never keep the simulation alive on
    # their own.

    def _note_activity(self) -> None:
        self._last_activity = self.node.sim.now

    def _schedule_ae_tick(self) -> None:
        self._ae_scheduled = True
        self.node.sim.schedule_daemon(self.anti_entropy_interval_ms, self._ae_tick)

    def _ae_tick(self) -> None:
        peers = [p for p in self.peer_ids if p != self.node.node_id]
        if peers:
            peer = peers[self._ae_peer_index % len(peers)]
            self._ae_peer_index += 1
            digest = {
                key: record.versions[-1].version
                for key, record in self.node.store.items()
            }
            self.node.send(peer, protocol.SyncDigest(versions=digest))
        self._schedule_ae_tick()

    def _on_sync_digest(self, msg: protocol.SyncDigest) -> None:
        updates = {}
        theirs_by_key = msg.versions
        for key, record in self.node.store.items():
            theirs = theirs_by_key.get(key, 0)
            versions = record.versions
            if versions[-1].version <= theirs:
                continue
            # Non-empty: at least the latest version is past ``theirs``.
            updates[key] = tuple(
                (v.version, v.value, v.txid) for v in versions if v.version > theirs
            )
        if updates:
            self.node.send(msg.sender, protocol.SyncUpdates(updates=updates))

    def _on_sync_updates(self, msg: protocol.SyncUpdates) -> None:
        for key, triples in msg.updates.items():
            record = self.node.store.record(key)
            for version, value, txid in sorted(triples):
                if version <= record.committed_version:
                    continue
                if version == record.committed_version + 1:
                    record.install(value, txid, self.node.sim.now)
                else:
                    # Gap past what the peer retains: snapshot catch-up.
                    record.reset_to(version, value, txid, self.node.sim.now)
                self.ae_repairs += 1
            self._drop_stale_buffered(key)
            self._flush_buffer(key)

    def _drop_stale_buffered(self, key: str) -> None:
        buffered = self._apply_buffer.get(key)
        if not buffered:
            return
        committed = self.node.store.record(key).committed_version
        for read_version in [v for v in buffered if v < committed]:
            del buffered[read_version]
        if not buffered:
            self._apply_buffer.pop(key, None)
