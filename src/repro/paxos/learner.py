"""Vote counting: when is an option chosen, when is it doomed?"""

from __future__ import annotations

from typing import Dict, Optional, Set


class QuorumTracker:
    """Counts accept/reject votes for one option from ``n`` acceptors.

    The option is *chosen* once ``quorum`` distinct acceptors accepted it.
    It is *doomed* once so many rejected that a quorum can no longer form
    (``rejects > n - quorum``).  A vote from the same acceptor twice is
    idempotent (retransmissions must not double-count).

    The tracker is also the data source for PLANET's commit-likelihood
    prediction: :attr:`accepts`, :attr:`rejects` and :meth:`outstanding`
    describe exactly how far along the record's acceptance is.
    """

    def __init__(self, n: int, quorum: int) -> None:
        if not 1 <= quorum <= n:
            raise ValueError(f"quorum {quorum} out of range 1..{n}")
        self.n = n
        self.quorum = quorum
        self._accepted_by: Set[str] = set()
        self._rejected_by: Set[str] = set()

    # ------------------------------------------------------------------
    def has_voted(self, acceptor_id: str) -> bool:
        return acceptor_id in self._accepted_by or acceptor_id in self._rejected_by

    def add_vote(self, acceptor_id: str, accepted: bool) -> None:
        if self.has_voted(acceptor_id):
            return
        if accepted:
            self._accepted_by.add(acceptor_id)
        else:
            self._rejected_by.add(acceptor_id)

    # ------------------------------------------------------------------
    @property
    def accepts(self) -> int:
        return len(self._accepted_by)

    @property
    def rejects(self) -> int:
        return len(self._rejected_by)

    def outstanding(self) -> int:
        return self.n - self.accepts - self.rejects

    def outstanding_ids(self, all_ids: Set[str]) -> Set[str]:
        return all_ids - self._accepted_by - self._rejected_by

    @property
    def chosen(self) -> bool:
        return self.accepts >= self.quorum

    @property
    def doomed(self) -> bool:
        return self.rejects > self.n - self.quorum

    @property
    def decided(self) -> bool:
        return self.chosen or self.doomed

    def needed(self) -> int:
        """Accepts still required to choose the option."""
        return max(self.quorum - self.accepts, 0)

    def __repr__(self) -> str:
        return (
            f"<QuorumTracker {self.accepts}+/{self.rejects}- of {self.n} "
            f"(quorum {self.quorum})>"
        )
