"""Quantile estimation: the P² streaming estimator and an exact sketch.

Latency percentiles (p50/p95/p99) are the currency of every figure in the
evaluation.  :class:`QuantileSketch` keeps all samples (experiments here are
tens of thousands of transactions, so exact is affordable and removes one
source of reproduction noise); :class:`P2Quantile` is the constant-space
estimator for components that must track quantiles online, such as the
latency monitor feeding the likelihood model.
"""

from __future__ import annotations

import math
from bisect import insort
from typing import List, Sequence


def interpolated_quantile(ordered: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (numpy 'linear' convention) of an
    already sorted sample, ``q`` in [0, 1]; NaN when empty.

    Interpolates as ``a + (b - a) * f``, which is exact when ``a == b``,
    never leaves ``[a, b]`` and is monotone in ``q``.  ``a*(1-f) + b*f``
    is none of those, and underflows to 0.0 between equal subnormals.
    """
    if not ordered:
        return math.nan
    position = q * (len(ordered) - 1)
    low = int(position)
    if low + 1 >= len(ordered):
        return ordered[-1]
    a = ordered[low]
    return a + (ordered[low + 1] - a) * (position - low)


class P2Quantile:
    """Jain & Chlamtac's P² algorithm for one quantile, O(1) space."""

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError("q must be in (0, 1)")
        self.q = q
        self._initial: List[float] = []
        self._heights: List[float] = []
        self._positions: List[float] = []
        self._desired: List[float] = []
        self._increments: List[float] = []
        self.count = 0

    def update(self, sample: float) -> None:
        self.count += 1
        if len(self._initial) < 5:
            insort(self._initial, sample)
            if len(self._initial) == 5:
                q = self.q
                self._heights = list(self._initial)
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
                self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
            return

        heights, positions = self._heights, self._positions
        if sample < heights[0]:
            heights[0] = sample
            cell = 0
        elif sample >= heights[4]:
            heights[4] = sample
            cell = 3
        else:
            cell = 0
            while cell < 3 and sample >= heights[cell + 1]:
                cell += 1
        for i in range(cell + 1, 5):
            positions[i] += 1.0
        for i in range(5):
            self._desired[i] += self._increments[i]

        for i in (1, 2, 3):
            delta = self._desired[i] - positions[i]
            if (delta >= 1.0 and positions[i + 1] - positions[i] > 1.0) or (
                delta <= -1.0 and positions[i - 1] - positions[i] < -1.0
            ):
                sign = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, sign)
                if heights[i - 1] < candidate < heights[i + 1]:
                    heights[i] = candidate
                else:
                    heights[i] = self._linear(i, sign)
                positions[i] += sign

    def _parabolic(self, i: int, sign: float) -> float:
        h, p = self._heights, self._positions
        return h[i] + sign / (p[i + 1] - p[i - 1]) * (
            (p[i] - p[i - 1] + sign) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
            + (p[i + 1] - p[i] - sign) * (h[i] - h[i - 1]) / (p[i] - p[i - 1])
        )

    def _linear(self, i: int, sign: float) -> float:
        h, p = self._heights, self._positions
        j = i + int(sign)
        return h[i] + sign * (h[j] - h[i]) / (p[j] - p[i])

    @property
    def value(self) -> float:
        if not self._initial:
            return math.nan
        if len(self._initial) < 5:
            index = max(0, min(len(self._initial) - 1, int(self.q * len(self._initial))))
            return self._initial[index]
        return self._heights[2]


class QuantileSketch:
    """Exact quantiles over retained samples."""

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._sorted = True

    def update(self, sample: float) -> None:
        self._samples.append(sample)
        self._sorted = False

    def extend(self, samples: Sequence[float]) -> None:
        self._samples.extend(samples)
        self._sorted = False

    @property
    def count(self) -> int:
        return len(self._samples)

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._samples.sort()
            self._sorted = True

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile (numpy 'linear' convention)."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        self._ensure_sorted()
        return interpolated_quantile(self._samples, q)

    def mean(self) -> float:
        if not self._samples:
            return math.nan
        return sum(self._samples) / len(self._samples)

    def cdf_points(self, n_points: int = 100) -> List[tuple]:
        """(value, cumulative fraction) pairs for plotting a CDF."""
        if not self._samples:
            return []
        self._ensure_sorted()
        total = len(self._samples)
        points = []
        for i in range(1, n_points + 1):
            q = i / n_points
            index = min(total - 1, max(0, int(math.ceil(q * total)) - 1))
            points.append((self._samples[index], q))
        return points
