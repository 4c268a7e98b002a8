"""Property-based tests (hypothesis) for the stats primitives.

These pin algebraic properties rather than example values: percentiles
stay inside the sample range and agree however the samples arrive, ECE is
a bounded weighted mean.
"""

from __future__ import annotations

import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.stats.calibration import CalibrationBins
from repro.stats.histogram import LatencyCdf

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
samples_lists = st.lists(finite_floats, min_size=1, max_size=200)


percentiles = st.floats(min_value=0.0, max_value=100.0)


class TestLatencyCdf:
    @given(samples=samples_lists, p=percentiles)
    def test_quantile_within_sample_bounds(self, samples, p):
        cdf = LatencyCdf()
        cdf.extend(samples)
        assert min(samples) <= cdf.percentile(p) <= max(samples)

    @given(samples=samples_lists)
    def test_extremes_are_min_and_max(self, samples):
        cdf = LatencyCdf()
        cdf.extend(samples)
        assert cdf.percentile(0) == min(samples)
        assert cdf.percentile(100) == max(samples) == cdf.max()

    @given(
        samples=samples_lists,
        split=st.integers(min_value=0, max_value=200),
        p=percentiles,
    )
    def test_merge_invariance(self, samples, split, p):
        # extend(a) + extend(b) == extend(a+b) == update() one at a time:
        # arrival batching must never change a percentile.
        split = min(split, len(samples))
        batched = LatencyCdf()
        batched.extend(samples[:split])
        batched.extend(samples[split:])
        streamed = LatencyCdf()
        for sample in samples:
            streamed.update(sample)
        assert batched.count == streamed.count == len(samples)
        assert batched.percentile(p) == streamed.percentile(p)

    @given(samples=samples_lists)
    @example(samples=[5e-324, 5e-324])  # a*(1-f) + b*f underflowed this to 0.0
    def test_quantile_monotone_in_q(self, samples):
        cdf = LatencyCdf()
        cdf.extend(samples)
        values = [cdf.percentile(p) for p in range(0, 101, 10)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @given(samples=samples_lists)
    def test_mean_within_bounds(self, samples):
        cdf = LatencyCdf()
        cdf.extend(samples)
        assert min(samples) - 1e-6 <= cdf.mean() <= max(samples) + 1e-6


class TestCalibrationBins:
    predictions = st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.booleans(),
        ),
        min_size=1,
        max_size=200,
    )

    @given(data=predictions, n_bins=st.integers(min_value=1, max_value=20))
    @settings(max_examples=50)
    def test_ece_bounded_and_counts_conserved(self, data, n_bins):
        bins = CalibrationBins(n_bins)
        for predicted, committed in data:
            bins.update(predicted, committed)
        assert bins.total == len(data)
        assert sum(row.count for row in bins.rows()) == len(data)
        ece = bins.expected_calibration_error()
        assert 0.0 <= ece <= 1.0

    @given(data=predictions)
    def test_perfectly_calibrated_degenerate_predictions(self, data):
        # Predicting exactly 0 or 1 and always being right gives ECE 0.
        bins = CalibrationBins(10)
        for _, committed in data:
            bins.update(1.0 if committed else 0.0, committed)
        assert bins.expected_calibration_error() == 0.0

    @given(
        predicted=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        committed=st.booleans(),
    )
    def test_single_observation_gap_is_ece(self, predicted, committed):
        bins = CalibrationBins(10)
        bins.update(predicted, committed)
        expected = abs(predicted - (1.0 if committed else 0.0))
        assert math.isclose(
            bins.expected_calibration_error(), expected, abs_tol=1e-12
        )

    def test_rejects_out_of_range(self):
        bins = CalibrationBins(10)
        for bad in (-0.1, 1.1, 2.0):
            try:
                bins.update(bad, True)
            except ValueError:
                continue
            raise AssertionError(f"accepted out-of-range prediction {bad}")

    def test_empty_ece_is_nan(self):
        assert math.isnan(CalibrationBins().expected_calibration_error())
