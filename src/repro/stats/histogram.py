"""The exact-sample latency distribution behind every percentile we report."""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

from repro.stats.quantiles import interpolated_quantile


class LatencyCdf:
    """Keeps every sample and answers exact, interpolated percentiles.

    Runs here are tens of thousands of transactions, so keeping every
    sample is affordable and removes one source of reproduction noise.  The
    figures' CDF curves, the run summaries and the metrics registry's
    histograms are all this one type; :meth:`summary` is the JSON-safe shape
    a registry snapshot carries.
    """

    __slots__ = ("_samples",)

    def __init__(self) -> None:
        self._samples: List[float] = []

    def update(self, sample_ms: float) -> None:
        self._samples.append(sample_ms)

    def extend(self, samples: Sequence[float]) -> None:
        self._samples.extend(samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    def percentile(self, p: float) -> float:
        """Linear-interpolated percentile (numpy 'linear'), p in [0, 100]."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p!r}")
        return interpolated_quantile(sorted(self._samples), p / 100.0)

    def mean(self) -> float:
        if not self._samples:
            return math.nan
        return sum(self._samples) / len(self._samples)

    def max(self) -> float:
        return max(self._samples) if self._samples else math.nan

    def summary(self) -> Dict[str, float]:
        """JSON-safe digest of the distribution (the snapshot shape)."""
        return {
            "count": self.count,
            "mean": self.mean(),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.max(),
        }
