"""Property-based tests (hypothesis) for the stats primitives.

These pin algebraic properties rather than example values: quantiles stay
inside the sample range and agree however the samples arrive, reservoirs
never exceed capacity, ECE is a bounded weighted mean.
"""

from __future__ import annotations

import math
from random import Random

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.stats.calibration import CalibrationBins
from repro.stats.quantiles import P2Quantile, QuantileSketch
from repro.stats.reservoir import ReservoirSample

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
samples_lists = st.lists(finite_floats, min_size=1, max_size=200)


class TestQuantileSketch:
    @given(samples=samples_lists, q=st.floats(min_value=0.0, max_value=1.0))
    def test_quantile_within_sample_bounds(self, samples, q):
        sketch = QuantileSketch()
        sketch.extend(samples)
        assert min(samples) <= sketch.quantile(q) <= max(samples)

    @given(samples=samples_lists)
    def test_extremes_are_min_and_max(self, samples):
        sketch = QuantileSketch()
        sketch.extend(samples)
        assert sketch.quantile(0.0) == min(samples)
        assert sketch.quantile(1.0) == max(samples)

    @given(
        samples=samples_lists,
        split=st.integers(min_value=0, max_value=200),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_merge_invariance(self, samples, split, q):
        # extend(a) + extend(b) == extend(a+b) == update() one at a time:
        # arrival batching must never change a quantile.
        split = min(split, len(samples))
        batched = QuantileSketch()
        batched.extend(samples[:split])
        batched.extend(samples[split:])
        streamed = QuantileSketch()
        for sample in samples:
            streamed.update(sample)
        assert batched.count == streamed.count == len(samples)
        assert batched.quantile(q) == streamed.quantile(q)

    @given(samples=samples_lists)
    @example(samples=[5e-324, 5e-324])  # a*(1-f) + b*f underflowed this to 0.0
    def test_quantile_monotone_in_q(self, samples):
        sketch = QuantileSketch()
        sketch.extend(samples)
        values = [sketch.quantile(q / 10.0) for q in range(11)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    @given(samples=samples_lists)
    def test_mean_within_bounds(self, samples):
        sketch = QuantileSketch()
        sketch.extend(samples)
        assert min(samples) - 1e-6 <= sketch.mean() <= max(samples) + 1e-6


class TestP2Quantile:
    @given(
        samples=st.lists(finite_floats, min_size=1, max_size=300),
        q=st.floats(min_value=0.01, max_value=0.99),
    )
    def test_estimate_within_sample_bounds(self, samples, q):
        estimator = P2Quantile(q)
        for sample in samples:
            estimator.update(sample)
        assert estimator.count == len(samples)
        assert min(samples) <= estimator.value <= max(samples)

    def test_empty_estimator_is_nan(self):
        assert math.isnan(P2Quantile(0.5).value)


class TestReservoirSample:
    @given(
        n=st.integers(min_value=0, max_value=500),
        capacity=st.integers(min_value=1, max_value=50),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_capacity_and_seen_bookkeeping(self, n, capacity, seed):
        reservoir = ReservoirSample(capacity, rng=Random(seed))
        for item in range(n):
            reservoir.update(item)
        assert reservoir.seen == n
        assert len(reservoir) == min(n, capacity)
        # Every retained item came from the stream, each at most once.
        items = reservoir.items
        assert len(set(items)) == len(items)
        assert all(0 <= item < n for item in items)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_prefix_kept_verbatim_until_full(self, seed):
        reservoir = ReservoirSample(10, rng=Random(seed))
        for item in range(10):
            reservoir.update(item)
        assert reservoir.items == list(range(10))


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
