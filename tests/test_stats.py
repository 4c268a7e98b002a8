"""Unit tests for the statistics package."""

from __future__ import annotations

import math
from random import Random

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.stats.calibration import CalibrationBins
from repro.stats.ewma import EwmaRate
from repro.stats.histogram import LatencyCdf


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


class TestQuantileSketch:
    """``LatencyCdf`` read as a quantile sketch: quantile q in [0, 1] is
    ``percentile(100 * q)``, the spelling the RTT-matrix driver uses."""

    def test_matches_numpy_linear_interpolation(self):
        rng = Random(3)
        samples = [rng.gauss(100, 15) for _ in range(999)]
        sketch = LatencyCdf()
        sketch.extend(samples)
        for q in (0.0, 0.25, 0.5, 0.75, 0.95, 1.0):
            assert sketch.percentile(q * 100) == pytest.approx(float(np.quantile(samples, q)))

    def test_empty_is_nan(self):
        assert math.isnan(LatencyCdf().percentile(0.5 * 100))

    def test_mean(self):
        sketch = LatencyCdf()
        sketch.extend([1.0, 2.0, 3.0])
        assert sketch.mean() == 2.0


class TestLatencyCdf:
    def test_percentiles_match_numpy(self):
        rng = Random(4)
        samples = [rng.random() * 100 for _ in range(501)]
        cdf = LatencyCdf()
        cdf.extend(samples)
        for p in (50, 95, 99):
            assert cdf.percentile(p) == pytest.approx(float(np.percentile(samples, p)))

    def test_percentiles_interpolate(self):
        cdf = LatencyCdf()
        cdf.extend([10.0, 40.0, 30.0, 20.0])
        assert cdf.count == 4
        assert cdf.percentile(0) == 10.0
        assert cdf.percentile(100) == 40.0
        assert cdf.percentile(50) == 25.0
        assert cdf.mean() == 25.0
        assert cdf.max() == 40.0

    def test_single_sample(self):
        cdf = LatencyCdf()
        cdf.update(7.0)
        assert cdf.percentile(99) == 7.0

    def test_empty_is_nan(self):
        cdf = LatencyCdf()
        assert math.isnan(cdf.percentile(50))
        assert math.isnan(cdf.mean())
        assert math.isnan(cdf.max())
        assert cdf.summary()["count"] == 0

    def test_invalid_percentile(self):
        for p in (-1.0, 100.5, 150.0):
            with pytest.raises(ValueError):
                LatencyCdf().percentile(p)

    def test_mean(self):
        cdf = LatencyCdf()
        cdf.extend([2.0, 4.0])
        assert cdf.mean() == 3.0

    def test_summary_is_json_safe_shape(self):
        cdf = LatencyCdf()
        cdf.update(5.0)
        summary = cdf.summary()
        assert set(summary) == {"count", "mean", "p50", "p95", "p99", "max"}
        assert summary["count"] == 1
        assert summary["p50"] == 5.0


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
        metrics.inc("a")
        metrics.inc("a", 2)
        assert metrics.counter("a") == 3
        assert metrics.counter("missing") == 0
        assert metrics.counters() == {"a": 3}

    def test_latency_collectors(self):
        metrics = MetricsRegistry()
        metrics.observe("l", 5.0)
        metrics.observe("l", 15.0)
        assert metrics.hist("l").count == 2
        assert metrics.latency_names() == ["l"]

    def test_digest_deterministic_and_sensitive(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        for metrics in (a, b):
            metrics.inc("n")
            metrics.observe("l", 5.0)
        assert a.digest() == b.digest()
        b.inc("n")
        assert a.digest() != b.digest()
