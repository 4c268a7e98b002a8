"""Versioned records.

MDCC-style optimistic commit needs multi-versioned records: a transaction
reads a committed version, proposes an *option* against that version, and the
option only becomes a new committed version once the transaction commits.
Readers always see committed state (read-committed / atomic visibility).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional


@dataclass(frozen=True)
class RecordVersion:
    """One committed version of a record.

    ``relaxed`` marks versions installed by a relaxed-isolation write
    (read-committed / monotonic-session): such a slot may still be
    *contested* — overwritten in place by a concurrent committed writer of
    the same slot under the deterministic last-writer-wins order (strict
    beats relaxed, then highest transaction id).
    """

    version: int
    value: Any
    txid: str
    committed_at: float
    relaxed: bool = False

    def __repr__(self) -> str:
        return f"<v{self.version}={self.value!r} tx={self.txid}>"


class VersionedRecord:
    """A record replica: committed version chain plus protocol scratch state.

    ``pending`` holds commit-protocol state keyed by transaction id (MDCC
    options that were accepted but whose transaction has not yet decided).
    Keeping it here rather than in a side table keeps replica handlers O(1)
    and mirrors how a real engine attaches intents to records.  The 2PC
    baseline's record locks live in :class:`repro.baselines.locks.LockTable`.
    """

    __slots__ = ("key", "versions", "pending", "max_versions")

    def __init__(self, key: str, initial_value: Any = None, max_versions: int = 8) -> None:
        self.key = key
        self.versions: List[RecordVersion] = [
            RecordVersion(version=0, value=initial_value, txid="__init__", committed_at=0.0)
        ]
        self.pending: Dict[str, Any] = {}
        self.max_versions = max_versions

    # ------------------------------------------------------------------
    @property
    def latest(self) -> RecordVersion:
        return self.versions[-1]

    @property
    def committed_version(self) -> int:
        return self.versions[-1].version

    def version_at(self, version: int) -> Optional[RecordVersion]:
        """Look up a specific committed version (None if truncated or future)."""
        for record_version in reversed(self.versions):
            if record_version.version == version:
                return record_version
            if record_version.version < version:
                break
        return None

    def install(self, value: Any, txid: str, now: float, relaxed: bool = False) -> RecordVersion:
        """Append a new committed version and truncate old ones."""
        new_version = RecordVersion(
            version=self.committed_version + 1, value=value, txid=txid,
            committed_at=now, relaxed=relaxed,
        )
        self.versions.append(new_version)
        if len(self.versions) > self.max_versions:
            del self.versions[: len(self.versions) - self.max_versions]
        return new_version

    def replace_at(
        self, version: int, value: Any, txid: str, now: float, relaxed: bool = False
    ) -> Optional[RecordVersion]:
        """Overwrite an already-committed slot in place (LWW slot contest).

        Used when a relaxed-isolation write committed against a slot some
        other transaction also claimed: the deterministic contest winner's
        value replaces the occupant's without minting a new version number.
        Returns the new :class:`RecordVersion`, or None when the slot has
        been truncated away.
        """
        for index in range(len(self.versions) - 1, -1, -1):
            if self.versions[index].version == version:
                new_version = RecordVersion(
                    version=version, value=value, txid=txid,
                    committed_at=now, relaxed=relaxed,
                )
                self.versions[index] = new_version
                return new_version
            if self.versions[index].version < version:
                break
        return None

    def reset_to(self, version: int, value: Any, txid: str, now: float) -> RecordVersion:
        """Snapshot catch-up: jump the chain to ``version`` directly.

        Used by anti-entropy when a lagging replica's gap reaches past what
        peers still retain; the peer ships its latest committed snapshot
        instead of the individual versions.  Never moves backwards.
        """
        if version <= self.committed_version:
            raise ValueError(
                f"reset_to {version} would move {self.key!r} backwards "
                f"from v{self.committed_version}"
            )
        new_version = RecordVersion(version=version, value=value, txid=txid, committed_at=now)
        self.versions = [new_version]
        return new_version

    def __repr__(self) -> str:
        return (
            f"<Record {self.key!r} v{self.committed_version} "
            f"pending={len(self.pending)}>"
        )
