"""Run results: everything the figures are computed from.

All headline numbers are derived from the list of transactions that fall in
the *measured window* (submitted after warmup, before the end of the run),
never from raw counters — warmup effects (cold conflict statistics, empty
stores) would otherwise leak into the figures.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.stages import TxStage
from repro.core.transaction import PlanetTransaction
from repro.ops import AbortReason
from repro.stats.calibration import CalibrationBins
from repro.stats.histogram import LatencyCdf


@dataclass
class ResultSet:
    """One sweep's raw rows, in grid order, with a determinism digest.

    This is the executor-level result: every grid point's JSON-safe row
    keyed by its point key, before the experiment's ``reduce`` turns them
    into tables and shape checks.  :meth:`digest` is the parallel/serial
    equivalence oracle — a serial run and a ``--jobs N`` run of the same
    (experiment, seed, scale, overrides) must produce byte-identical
    digests.
    """

    experiment_id: str
    seed: int
    scale: float
    points: List[Tuple[str, Dict[str, object]]] = field(default_factory=list)

    def rows(self) -> List[Dict[str, object]]:
        return [row for _, row in self.points]

    def to_dict(self) -> Dict[str, object]:
        return {
            "experiment_id": self.experiment_id,
            "seed": self.seed,
            "scale": self.scale,
            "points": [[key, row] for key, row in self.points],
        }

    def digest(self) -> str:
        """SHA-256 of the canonical JSON serialisation of the whole set."""
        canonical = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":"), allow_nan=True
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class RunResult:
    transactions: List[PlanetTransaction]      # measured window only
    all_transactions: List[PlanetTransaction]  # including warmup
    duration_ms: float
    warmup_ms: float
    cluster: object
    sessions: List[object]

    # ------------------------------------------------------------------
    @property
    def measured_window_ms(self) -> float:
        return self.duration_ms - self.warmup_ms

    def committed(self) -> List[PlanetTransaction]:
        return [tx for tx in self.transactions if tx.committed]

    def aborted(self) -> List[PlanetTransaction]:
        return [
            tx
            for tx in self.transactions
            if tx.stage in (TxStage.ABORTED, TxStage.REJECTED)
        ]

    def abort_rate(self) -> float:
        total = len(self.transactions)
        return len(self.aborted()) / total if total else math.nan

    def abort_reason_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for tx in self.aborted():
            reason = tx.abort_reason.value
            counts[reason] = counts.get(reason, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Rates
    # ------------------------------------------------------------------
    def throughput_tps(self) -> float:
        """Measured-window submissions per second."""
        return len(self.transactions) / (self.measured_window_ms / 1000.0)

    def goodput_tps(self) -> float:
        """Measured-window *commits* per second — the admission-control metric."""
        return len(self.committed()) / (self.measured_window_ms / 1000.0)

    # ------------------------------------------------------------------
    # Latency
    # ------------------------------------------------------------------
    def commit_latency_cdf(self) -> LatencyCdf:
        cdf = LatencyCdf()
        for tx in self.committed():
            latency = tx.commit_latency_ms()
            if latency is not None:
                cdf.update(latency)
        return cdf

    def guess_latency_cdf(self) -> LatencyCdf:
        cdf = LatencyCdf()
        for tx in self.transactions:
            latency = tx.guess_latency_ms()
            if latency is not None:
                cdf.update(latency)
        return cdf

    # ------------------------------------------------------------------
    # Speculation quality
    # ------------------------------------------------------------------
    def guessed(self) -> List[PlanetTransaction]:
        return [tx for tx in self.transactions if tx.was_guessed]

    def guessed_fraction(self) -> float:
        total = len(self.transactions)
        return len(self.guessed()) / total if total else math.nan

    def wrong_guesses(self) -> List[PlanetTransaction]:
        return [tx for tx in self.guessed() if not tx.committed]

    def wrong_guess_rate(self) -> float:
        """Wrong guesses as a fraction of all guesses made."""
        guessed = self.guessed()
        if not guessed:
            return math.nan
        return len(self.wrong_guesses()) / len(guessed)

    def mean_time_saved_by_guessing_ms(self) -> float:
        """Mean (decision - guess) gap over correctly guessed transactions."""
        gaps = [
            tx.commit_latency_ms() - tx.guess_latency_ms()
            for tx in self.guessed()
            if tx.committed and tx.commit_latency_ms() is not None
        ]
        return sum(gaps) / len(gaps) if gaps else math.nan

    # ------------------------------------------------------------------
    # Prediction calibration
    # ------------------------------------------------------------------
    def calibration(self, at: str = "first_vote", n_bins: int = 10) -> CalibrationBins:
        bins = CalibrationBins(n_bins)
        for tx in self.transactions:
            if at == "first_vote":
                predicted = tx.predicted_at_first_vote
            elif at == "guess":
                predicted = tx.predicted_at_guess
            else:
                raise ValueError(f"unknown calibration point {at!r}")
            if predicted is not None and tx.decision is not None:
                bins.update(min(predicted, 1.0), tx.committed)
        return bins

    # ------------------------------------------------------------------
    def summary(self) -> Dict[str, float]:
        commit_cdf = self.commit_latency_cdf()
        return {
            "transactions": len(self.transactions),
            "throughput_tps": self.throughput_tps(),
            "goodput_tps": self.goodput_tps(),
            "abort_rate": self.abort_rate(),
            "commit_p50_ms": commit_cdf.percentile(50),
            "commit_p99_ms": commit_cdf.percentile(99),
            "guessed_fraction": self.guessed_fraction(),
            "wrong_guess_rate": self.wrong_guess_rate(),
        }
