"""Wire messages of the MDCC engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.mdcc.options import Option
from repro.net.messages import Message
from repro.paxos.ballot import Ballot


@dataclass(slots=True)
class ReadRequest(Message):
    """Batch read of committed versions, served by the local replica."""

    txid: str = ""
    keys: Tuple[str, ...] = ()


@dataclass(slots=True)
class ReadReply(Message):
    txid: str = ""
    # key -> (version, value)
    results: Dict[str, Tuple[int, Any]] = field(default_factory=dict)


@dataclass(slots=True)
class Phase1a(Message):
    """Classic-path prepare for every record a transaction writes."""

    txid: str = ""
    keys: Tuple[str, ...] = ()
    ballot: Ballot = None  # type: ignore[assignment]


@dataclass(slots=True)
class Phase1b(Message):
    """A replica's promises on a ``Phase1a``: one ``(key, promised)`` pair
    per record, in the order the prepare named them."""

    txid: str = ""
    ballot: Ballot = None  # type: ignore[assignment]
    promises: Tuple[Tuple[str, bool], ...] = ()


@dataclass(slots=True)
class Phase2a(Message):
    """Propose every option of a transaction to one replica (the fast path
    sends this directly)."""

    txid: str = ""
    ballot: Ballot = None  # type: ignore[assignment]
    options: Tuple[Option, ...] = ()


@dataclass(slots=True)
class Phase2b(Message):
    """A replica's votes on a ``Phase2a``: one ``(key, accepted)`` pair per
    option, in the order the proposal carried them."""

    txid: str = ""
    ballot: Ballot = None  # type: ignore[assignment]
    votes: Tuple[Tuple[str, bool], ...] = ()


@dataclass(slots=True)
class DecisionMessage(Message):
    """Coordinator -> all replicas: commit or abort; apply/discard options."""

    txid: str = ""
    commit: bool = False
    options: Tuple[Option, ...] = ()


@dataclass(slots=True)
class SyncDigest(Message):
    """Anti-entropy: sender's committed version per key it knows."""

    versions: Dict[str, int] = field(default_factory=dict)


@dataclass(slots=True)
class SyncUpdates(Message):
    """Anti-entropy reply: per key, the (version, value, txid) triples the
    digest sender is missing (or only the latest snapshot if the responder's
    chain is truncated past the gap — signalled by a non-consecutive jump).
    """

    updates: Dict[str, Tuple[Tuple[int, Any, str], ...]] = field(default_factory=dict)


@dataclass(slots=True)
class TxStatusQuery(Message):
    """Replica -> replicas: orphan recovery — what happened to this tx?"""

    txid: str = ""
    key: str = ""


@dataclass(slots=True)
class TxStatusReply(Message):
    """Answer to a status query.

    ``status`` is "committed" / "aborted" / "unknown".  On an "unknown"
    reply the responder *blocks* the transaction (refuses any future accept
    for it) and reports whether it had itself accepted the queried record's
    option — the initiator aborts only once enough never-accepted blockers
    exist that a commit quorum can be proven impossible.
    """

    txid: str = ""
    key: str = ""
    status: str = "unknown"
    had_accepted: bool = False
    # The responder's accepted (still-pending) options for this transaction,
    # across all keys — the raw material a recovery completion needs.
    accepted_options: Tuple[Option, ...] = ()
