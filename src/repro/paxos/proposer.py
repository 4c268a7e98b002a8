"""Coordinator-side ballot minting."""

from __future__ import annotations

from typing import Callable, Optional

from repro.obs.events import NULL_TRACER, Tracer
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.paxos.ballot import Ballot

#: The distinguished counter every coordinator may use for fast rounds
#: without coordination (fast ballots are pre-agreed in Fast Paxos).
FAST_BALLOT_COUNTER = 0


class BallotGenerator:
    """Mints ballots for one proposer (coordinator).

    The fast ballot is shared and constant; classic ballots are monotonically
    increasing per proposer and globally ordered by (counter, proposer_id).

    When a ``tracer`` and ``clock`` are supplied, every mint emits a
    ``paxos``/``ballot`` event — classic-ballot mints in particular mark
    where the engine fell off the fast path.
    """

    def __init__(
        self,
        proposer_id: str,
        tracer: Optional[Tracer] = None,
        clock: Optional[Callable[[], float]] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.proposer_id = proposer_id
        self._counter = FAST_BALLOT_COUNTER
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._metrics = metrics if metrics is not None else NULL_METRICS

    def fast_ballot(self) -> Ballot:
        metrics = self._metrics
        if metrics.enabled:
            metrics.inc("paxos.ballots", kind="fast")
        tracer = self._tracer
        if "paxos" in tracer.live:
            tracer.emit(
                self._clock(), "paxos", "ballot",
                proposer=self.proposer_id, fast=True, counter=FAST_BALLOT_COUNTER,
            )
        return Ballot(FAST_BALLOT_COUNTER, "", fast=True)

    def next_classic(self) -> Ballot:
        self._counter += 1
        metrics = self._metrics
        if metrics.enabled:
            metrics.inc("paxos.ballots", kind="classic")
        tracer = self._tracer
        if "paxos" in tracer.live:
            tracer.emit(
                self._clock(), "paxos", "ballot",
                proposer=self.proposer_id, fast=False, counter=self._counter,
            )
        return Ballot(self._counter, self.proposer_id, fast=False)
