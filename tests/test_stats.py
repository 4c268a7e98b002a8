"""Unit tests for the statistics package."""

from __future__ import annotations

import math
from random import Random

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.stats.calibration import CalibrationBins
from repro.stats.ewma import EwmaEstimator, EwmaRate
from repro.stats.histogram import Histogram, LatencyCdf
from repro.stats.quantiles import P2Quantile, QuantileSketch
from repro.stats.reservoir import ReservoirSample


class TestEwmaEstimator:
    def test_first_sample_adopted(self):
        estimator = EwmaEstimator(alpha=0.5)
        estimator.update(10.0)
        assert estimator.value == 10.0

    def test_weighting(self):
        estimator = EwmaEstimator(alpha=0.5)
        estimator.update(10.0)
        estimator.update(20.0)
        assert estimator.value == 15.0

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            EwmaEstimator(alpha=0.0)
        with pytest.raises(ValueError):
            EwmaEstimator(alpha=1.5)


class TestEwmaRate:
    def test_prior_before_observations(self):
        rate = EwmaRate(prior=0.1)
        assert rate.rate == 0.1

    def test_converges_to_event_frequency(self):
        rate = EwmaRate(alpha=0.05, prior=0.0, prior_strength=5.0)
        rng = Random(0)
        for _ in range(2000):
            rate.update(rng.random() < 0.3)
        assert 0.2 < rate.rate < 0.4

    def test_shrinkage_toward_prior_when_few_samples(self):
        rate = EwmaRate(alpha=0.1, prior=0.05, prior_strength=10.0)
        rate.update(True)
        assert rate.rate < 0.2

    def test_validation(self):
        with pytest.raises(ValueError):
            EwmaRate(alpha=0.0)
        with pytest.raises(ValueError):
            EwmaRate(prior=1.5)
        with pytest.raises(ValueError):
            EwmaRate(prior_strength=-1.0)


class TestP2Quantile:
    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    def test_tracks_uniform_distribution(self, q):
        estimator = P2Quantile(q)
        rng = Random(1)
        samples = [rng.random() for _ in range(20_000)]
        for sample in samples:
            estimator.update(sample)
        exact = float(np.quantile(samples, q))
        assert abs(estimator.value - exact) < 0.02

    def test_tracks_lognormal_p50(self):
        estimator = P2Quantile(0.5)
        rng = Random(2)
        samples = [math.exp(rng.gauss(0, 0.5)) for _ in range(20_000)]
        for sample in samples:
            estimator.update(sample)
        exact = float(np.quantile(samples, 0.5))
        assert abs(estimator.value - exact) / exact < 0.05

    def test_small_sample_fallback(self):
        estimator = P2Quantile(0.5)
        for value in (3.0, 1.0, 2.0):
            estimator.update(value)
        assert estimator.value == 2.0

    def test_empty_is_nan(self):
        assert math.isnan(P2Quantile(0.5).value)

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            P2Quantile(0.0)


class TestQuantileSketch:
    def test_matches_numpy_linear_interpolation(self):
        rng = Random(3)
        samples = [rng.gauss(100, 15) for _ in range(999)]
        sketch = QuantileSketch()
        sketch.extend(samples)
        for q in (0.0, 0.25, 0.5, 0.75, 0.95, 1.0):
            assert sketch.quantile(q) == pytest.approx(float(np.quantile(samples, q)))

    def test_single_sample(self):
        sketch = QuantileSketch()
        sketch.update(7.0)
        assert sketch.quantile(0.99) == 7.0

    def test_empty_is_nan(self):
        assert math.isnan(QuantileSketch().quantile(0.5))

    def test_mean(self):
        sketch = QuantileSketch()
        sketch.extend([1.0, 2.0, 3.0])
        assert sketch.mean() == 2.0

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            QuantileSketch().quantile(1.5)

    def test_cdf_points_monotone(self):
        sketch = QuantileSketch()
        sketch.extend([5.0, 1.0, 3.0, 2.0, 4.0])
        points = sketch.cdf_points(10)
        values = [v for v, _ in points]
        fractions = [f for _, f in points]
        assert values == sorted(values)
        assert fractions[-1] == 1.0


class TestReservoir:
    def test_keeps_everything_under_capacity(self):
        reservoir = ReservoirSample(10, Random(0))
        for i in range(5):
            reservoir.update(i)
        assert sorted(reservoir.items) == [0, 1, 2, 3, 4]

    def test_capacity_bound(self):
        reservoir = ReservoirSample(10, Random(0))
        for i in range(1000):
            reservoir.update(i)
        assert len(reservoir) == 10
        assert reservoir.seen == 1000

    def test_approximately_uniform(self):
        hits = 0
        trials = 400
        for seed in range(trials):
            reservoir = ReservoirSample(10, Random(seed))
            for i in range(100):
                reservoir.update(i)
            hits += sum(1 for item in reservoir.items if item < 50)
        # Expect ~50% of sampled items from the first half.
        assert 0.4 < hits / (trials * 10) < 0.6

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            ReservoirSample(0)


class TestHistogram:
    def test_binning(self):
        histogram = Histogram(0.0, 10.0, 5)
        for value in (0.5, 2.5, 2.6, 9.9):
            histogram.update(value)
        assert histogram.counts == [1, 2, 0, 0, 1]

    def test_overflow_underflow(self):
        histogram = Histogram(0.0, 10.0, 5)
        histogram.update(-1.0)
        histogram.update(10.0)
        histogram.update(100.0)
        assert histogram.underflow == 1
        assert histogram.overflow == 2

    def test_density_sums_to_in_range_fraction(self):
        histogram = Histogram(0.0, 10.0, 5)
        for value in (1.0, 2.0, 20.0):
            histogram.update(value)
        assert sum(histogram.density()) == pytest.approx(2 / 3)

    def test_bin_edges(self):
        histogram = Histogram(0.0, 10.0, 5)
        assert histogram.bin_edges() == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram(1.0, 1.0, 5)
        with pytest.raises(ValueError):
            Histogram(0.0, 1.0, 0)


class TestLatencyCdf:
    def test_percentiles_match_numpy(self):
        rng = Random(4)
        samples = [rng.random() * 100 for _ in range(501)]
        cdf = LatencyCdf()
        cdf.extend(samples)
        for p in (50, 95, 99):
            assert cdf.percentile(p) == pytest.approx(float(np.percentile(samples, p)))

    def test_empty_is_nan(self):
        assert math.isnan(LatencyCdf().percentile(50))
        assert math.isnan(LatencyCdf().mean())

    def test_rows(self):
        cdf = LatencyCdf()
        cdf.extend([1.0, 2.0, 3.0])
        rows = cdf.rows(percentiles=(0, 50, 100))
        assert rows == [(0, 1.0), (50, 2.0), (100, 3.0)]

    def test_mean(self):
        cdf = LatencyCdf()
        cdf.extend([2.0, 4.0])
        assert cdf.mean() == 3.0


class TestCalibrationBins:
    def test_perfectly_calibrated_predictions(self):
        bins = CalibrationBins(10)
        rng = Random(5)
        for _ in range(20_000):
            p = rng.random()
            bins.update(p, rng.random() < p)
        assert bins.expected_calibration_error() < 0.03

    def test_miscalibration_detected(self):
        bins = CalibrationBins(10)
        for _ in range(1000):
            bins.update(0.9, False)  # predicts 0.9, never happens
        assert bins.expected_calibration_error() > 0.8

    def test_rows_structure(self):
        bins = CalibrationBins(4)
        bins.update(0.1, True)
        bins.update(0.99, True)
        rows = bins.rows()
        assert len(rows) == 4
        assert rows[0].count == 1
        assert rows[3].count == 1
        assert math.isnan(rows[1].mean_predicted)

    def test_boundary_prediction_goes_to_top_bin(self):
        bins = CalibrationBins(10)
        bins.update(1.0, True)
        assert bins.rows()[9].count == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            CalibrationBins(10).update(1.1, True)

    def test_empty_ece_nan(self):
        assert math.isnan(CalibrationBins().expected_calibration_error())


class TestMetricsRegistry:
    def test_counters(self):
        metrics = MetricsRegistry()
        metrics.increment("a")
        metrics.increment("a", 2)
        assert metrics.counter("a") == 3
        assert metrics.counter("missing") == 0
        assert metrics.counters() == {"a": 3}

    def test_latency_collectors(self):
        metrics = MetricsRegistry()
        metrics.observe_latency("l", 5.0)
        metrics.observe_latency("l", 15.0)
        assert metrics.latency("l").count == 2
        assert metrics.latency_names() == ["l"]

    def test_series(self):
        metrics = MetricsRegistry()
        metrics.record_point("s", 1.0, 2.0)
        metrics.record_point("s", 2.0, 3.0)
        assert metrics.series("s") == [(1.0, 2.0), (2.0, 3.0)]
        assert metrics.series("missing") == []

    def test_digest_deterministic_and_sensitive(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for metrics in (a, b):
            metrics.increment("n")
            metrics.observe_latency("l", 5.0)
        assert a.digest() == b.digest()
        b.increment("n")
        assert a.digest() != b.digest()
