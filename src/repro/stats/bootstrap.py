"""Bootstrap confidence intervals for latency statistics.

Simulated runs are deterministic per seed, but any single seed is still one
draw from the workload distribution; reporting a percentile without an
uncertainty band invites over-reading small differences.  The percentile
bootstrap here resamples the latency list with replacement and reports the
empirical interval of the statistic across resamples — assumption-free and
good enough for the heavy-tailed distributions commit latencies follow.
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import Callable, List, Optional, Sequence

from repro.stats.quantiles import interpolated_quantile


@dataclass(frozen=True)
class ConfidenceInterval:
    point: float
    low: float
    high: float
    confidence: float

    def __str__(self) -> str:
        return f"{self.point:.2f} [{self.low:.2f}, {self.high:.2f}] @ {self.confidence:.0%}"

    @property
    def width(self) -> float:
        return self.high - self.low

    def contains(self, value: float) -> bool:
        return self.low <= value <= self.high


def bootstrap_ci(
    samples: Sequence[float],
    statistic: Callable[[List[float]], float],
    n_resamples: int = 1000,
    confidence: float = 0.95,
    rng: Optional[Random] = None,
) -> ConfidenceInterval:
    """Percentile-bootstrap CI of ``statistic`` over ``samples``.

    ``statistic`` receives a *sorted* resample (most latency statistics are
    order statistics, and sorting once here lets them be O(1)).
    """
    if not samples:
        raise ValueError("bootstrap needs at least one sample")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    if n_resamples < 10:
        raise ValueError("n_resamples must be >= 10")
    rng = rng if rng is not None else Random(0)
    data = list(samples)
    n = len(data)
    point = statistic(sorted(data))
    estimates = []
    for _ in range(n_resamples):
        resample = sorted(data[rng.randrange(n)] for _ in range(n))
        estimates.append(statistic(resample))
    estimates.sort()
    alpha = (1.0 - confidence) / 2.0
    return ConfidenceInterval(
        point=point,
        low=interpolated_quantile(estimates, alpha),
        high=interpolated_quantile(estimates, 1.0 - alpha),
        confidence=confidence,
    )


def percentile_ci(
    samples: Sequence[float],
    p: float,
    n_resamples: int = 1000,
    confidence: float = 0.95,
    rng: Optional[Random] = None,
) -> ConfidenceInterval:
    """Bootstrap CI of the ``p``-th percentile (p in [0, 100])."""
    if not 0.0 <= p <= 100.0:
        raise ValueError("p must be in [0, 100]")
    return bootstrap_ci(
        samples,
        statistic=lambda ordered: interpolated_quantile(ordered, p / 100.0),
        n_resamples=n_resamples,
        confidence=confidence,
        rng=rng,
    )


def mean_ci(
    samples: Sequence[float],
    n_resamples: int = 1000,
    confidence: float = 0.95,
    rng: Optional[Random] = None,
) -> ConfidenceInterval:
    return bootstrap_ci(
        samples,
        statistic=lambda ordered: sum(ordered) / len(ordered),
        n_resamples=n_resamples,
        confidence=confidence,
        rng=rng,
    )
