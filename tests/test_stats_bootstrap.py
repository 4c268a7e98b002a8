"""Tests for bootstrap confidence intervals."""

from __future__ import annotations

from random import Random

import pytest

from repro.stats.bootstrap import (
    ConfidenceInterval,
    bootstrap_ci,
    mean_ci,
    percentile_ci,
)


class TestBootstrapCi:
    def test_point_estimate_matches_statistic(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0]
        ci = percentile_ci(samples, 50, rng=Random(0))
        assert ci.point == 3.0

    def test_interval_contains_point(self):
        rng = Random(1)
        samples = [rng.gauss(100, 10) for _ in range(200)]
        ci = percentile_ci(samples, 50, rng=Random(2))
        assert ci.contains(ci.point)
        assert ci.low <= ci.high

    def test_deterministic_given_rng(self):
        samples = [float(i) for i in range(50)]
        a = percentile_ci(samples, 90, rng=Random(3))
        b = percentile_ci(samples, 90, rng=Random(3))
        assert (a.low, a.high) == (b.low, b.high)

    def test_more_samples_tighten_interval(self):
        rng = Random(4)
        small = [rng.gauss(0, 1) for _ in range(30)]
        large = [rng.gauss(0, 1) for _ in range(3000)]
        ci_small = percentile_ci(small, 50, rng=Random(5))
        ci_large = percentile_ci(large, 50, rng=Random(5))
        assert ci_large.width < ci_small.width

    def test_coverage_roughly_nominal(self):
        """~95% of CIs should contain the true median (loose band)."""
        true_median = 0.0
        hits = 0
        trials = 100
        for seed in range(trials):
            rng = Random(seed)
            samples = [rng.gauss(true_median, 1) for _ in range(80)]
            ci = percentile_ci(samples, 50, n_resamples=300, rng=Random(seed + 1000))
            if ci.contains(true_median):
                hits += 1
        assert hits >= 85

    def test_mean_ci(self):
        ci = mean_ci([1.0, 2.0, 3.0], rng=Random(0))
        assert ci.point == pytest.approx(2.0)

    def test_str_format(self):
        ci = ConfidenceInterval(point=2.0, low=1.0, high=3.0, confidence=0.95)
        assert "[1.00, 3.00]" in str(ci)

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile_ci([], 50)
        with pytest.raises(ValueError):
            percentile_ci([1.0], 150)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], statistic=min, confidence=1.5)
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], statistic=min, n_resamples=5)
