"""The one percentile interpolation every latency statistic goes through.

Latency percentiles (p50/p95/p99) are the currency of every figure in the
evaluation; :class:`~repro.stats.histogram.LatencyCdf` keeps the samples
and calls :func:`interpolated_quantile` on them.
"""

from __future__ import annotations

import math
from typing import Sequence


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
