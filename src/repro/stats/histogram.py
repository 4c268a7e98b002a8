"""Histograms and latency CDFs for reporting."""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from repro.stats.quantiles import interpolated_quantile


class Histogram:
    """Fixed-width-bin histogram over ``[low, high)`` with overflow bins."""

    def __init__(self, low: float, high: float, n_bins: int) -> None:
        if high <= low:
            raise ValueError("high must exceed low")
        if n_bins < 1:
            raise ValueError("n_bins must be >= 1")
        self.low = low
        self.high = high
        self.n_bins = n_bins
        self._width = (high - low) / n_bins
        self.counts = [0] * n_bins
        self.underflow = 0
        self.overflow = 0
        self.total = 0

    def update(self, sample: float) -> None:
        self.total += 1
        if sample < self.low:
            self.underflow += 1
        elif sample >= self.high:
            self.overflow += 1
        else:
            self.counts[int((sample - self.low) / self._width)] += 1

    def bin_edges(self) -> List[float]:
        return [self.low + i * self._width for i in range(self.n_bins + 1)]

    def density(self) -> List[float]:
        if self.total == 0:
            return [0.0] * self.n_bins
        return [count / self.total for count in self.counts]


class LatencyCdf:
    """Collects latency samples and renders CDF rows for a figure.

    ``series(percentiles)`` returns (percentile, latency) pairs; figures in
    the paper plot latency on x and cumulative fraction on y, which
    :meth:`rows` produces directly.
    """

    DEFAULT_PERCENTILES = (1, 5, 10, 25, 50, 75, 90, 95, 99)

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
        """p in [0, 100]."""
        return interpolated_quantile(sorted(self._samples), p / 100.0)

    def mean(self) -> float:
        if not self._samples:
            return math.nan
        return sum(self._samples) / len(self._samples)

    def rows(self, percentiles: Sequence[float] = DEFAULT_PERCENTILES) -> List[Tuple[float, float]]:
        """(percentile, latency_ms) rows, the series a CDF figure plots."""
        return [(p, self.percentile(p)) for p in percentiles]
