"""Statistically honest A/B comparison of two runs.

Several experiments compare "system X vs system Y" on the same workload;
this utility packages that pattern with uncertainty: bootstrap confidence
intervals on each side's percentile and on the *difference*, so a claimed
win is distinguishable from seed noise.

    comparison = compare_runs("PLANET", result_a, "2PC", result_b, percentile=50)
    print(comparison.render())
    assert comparison.significant  # the CI of the difference excludes zero
"""

from __future__ import annotations

from dataclasses import dataclass
from random import Random
from typing import List, Optional

from repro.harness.results import RunResult
from repro.stats.bootstrap import ConfidenceInterval, percentile_ci
from repro.stats.quantiles import interpolated_quantile


def _commit_latencies(result: RunResult) -> List[float]:
    return [
        tx.commit_latency_ms()
        for tx in result.committed()
        if tx.commit_latency_ms() is not None
    ]


@dataclass
class Comparison:
    name_a: str
    name_b: str
    percentile: float
    ci_a: ConfidenceInterval
    ci_b: ConfidenceInterval
    difference_ci: ConfidenceInterval  # b - a

    @property
    def significant(self) -> bool:
        """True when the difference's CI excludes zero."""
        return not self.difference_ci.contains(0.0)

    @property
    def ratio(self) -> float:
        return self.ci_b.point / self.ci_a.point if self.ci_a.point else float("nan")

    def render(self) -> str:
        verdict = (
            "difference is significant"
            if self.significant
            else "difference is NOT distinguishable from noise"
        )
        return "\n".join(
            [
                f"p{self.percentile:g} commit latency (ms):",
                f"  {self.name_a:<24} {self.ci_a}",
                f"  {self.name_b:<24} {self.ci_b}",
                f"  {self.name_b} - {self.name_a:<12} {self.difference_ci}",
                f"  ratio {self.ratio:.2f}x — {verdict}",
            ]
        )


def compare_runs(
    name_a: str,
    result_a: RunResult,
    name_b: str,
    result_b: RunResult,
    percentile: float = 50.0,
    n_resamples: int = 1000,
    confidence: float = 0.95,
    rng: Optional[Random] = None,
) -> Comparison:
    """Compare the commit-latency percentile of two runs with bootstrap CIs.

    The difference CI resamples both sides independently (the runs use
    independent seeds/workload draws, so pairing is not meaningful).
    """
    rng = rng if rng is not None else Random(0)
    samples_a = _commit_latencies(result_a)
    samples_b = _commit_latencies(result_b)
    if not samples_a or not samples_b:
        raise ValueError("both runs need committed transactions to compare")
    ci_a = percentile_ci(samples_a, percentile, n_resamples, confidence, rng=rng)
    ci_b = percentile_ci(samples_b, percentile, n_resamples, confidence, rng=rng)

    q = percentile / 100.0
    diffs = []
    n_a, n_b = len(samples_a), len(samples_b)
    for _ in range(n_resamples):
        resample_a = sorted(samples_a[rng.randrange(n_a)] for _ in range(n_a))
        resample_b = sorted(samples_b[rng.randrange(n_b)] for _ in range(n_b))
        diffs.append(
            interpolated_quantile(resample_b, q) - interpolated_quantile(resample_a, q)
        )
    diffs.sort()
    alpha = (1.0 - confidence) / 2.0
    point = interpolated_quantile(sorted(samples_b), q) - interpolated_quantile(
        sorted(samples_a), q
    )
    difference_ci = ConfidenceInterval(
        point=point,
        low=interpolated_quantile(diffs, alpha),
        high=interpolated_quantile(diffs, 1.0 - alpha),
        confidence=confidence,
    )
    return Comparison(
        name_a=name_a,
        name_b=name_b,
        percentile=percentile,
        ci_a=ci_a,
        ci_b=ci_b,
        difference_ci=difference_ci,
    )
