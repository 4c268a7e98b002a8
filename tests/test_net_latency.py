"""Unit tests for the latency model."""

from __future__ import annotations

from random import Random

import pytest

from repro.net.latency import DegradationWindow, LatencyModel, _norm_ppf
from repro.net.topology import EC2_FIVE_DC


@pytest.fixture
def dcs():
    return EC2_FIVE_DC.datacenter("us_west"), EC2_FIVE_DC.datacenter("us_east")


class TestSampling:
    def test_no_jitter_gives_half_rtt(self, dcs):
        src, dst = dcs
        model = LatencyModel(EC2_FIVE_DC, jitter_sigma=0.0)
        assert model.sample_ms(src, dst, 0.0, Random(1)) == 37.5

    def test_jitter_mean_close_to_base(self, dcs):
        src, dst = dcs
        model = LatencyModel(EC2_FIVE_DC, jitter_sigma=0.2)
        rng = Random(1)
        samples = [model.sample_ms(src, dst, 0.0, rng) for _ in range(20_000)]
        mean = sum(samples) / len(samples)
        assert abs(mean - 37.5) / 37.5 < 0.02  # mean-one jitter

    def test_minimum_latency_floor(self):
        model = LatencyModel(EC2_FIVE_DC, jitter_sigma=0.0, min_latency_ms=2.0)
        dc = EC2_FIVE_DC.datacenter("tokyo")
        # intra-DC one-way is 0.5 ms, floored to 2.0
        assert model.sample_ms(dc, dc, 0.0, Random(1)) == 2.0

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(EC2_FIVE_DC, jitter_sigma=-0.1)

    def test_samples_vary_with_jitter(self, dcs):
        src, dst = dcs
        model = LatencyModel(EC2_FIVE_DC, jitter_sigma=0.3)
        rng = Random(2)
        samples = {model.sample_ms(src, dst, 0.0, rng) for _ in range(10)}
        assert len(samples) == 10


class TestQuantiles:
    def test_mean_ms(self, dcs):
        src, dst = dcs
        model = LatencyModel(EC2_FIVE_DC, jitter_sigma=0.2)
        assert model.mean_ms(src, dst) == 37.5


class TestNormPpf:
    def test_median(self):
        assert abs(_norm_ppf(0.5)) < 1e-9

    @pytest.mark.parametrize(
        "q,z",
        [(0.975, 1.959964), (0.025, -1.959964), (0.9, 1.281552), (0.999, 3.090232)],
    )
    def test_known_values(self, q, z):
        assert abs(_norm_ppf(q) - z) < 1e-4

    def test_symmetry(self):
        for q in (0.01, 0.1, 0.3):
            assert abs(_norm_ppf(q) + _norm_ppf(1 - q)) < 1e-6


class TestDegradationWindows:
    def test_window_multiplies_latency(self, dcs):
        src, dst = dcs
        model = LatencyModel(EC2_FIVE_DC, jitter_sigma=0.0)
        model.add_window(DegradationWindow(start_ms=100.0, end_ms=200.0, multiplier=3.0))
        assert model.sample_ms(src, dst, 50.0, Random(1)) == 37.5
        assert model.sample_ms(src, dst, 150.0, Random(1)) == 112.5
        assert model.sample_ms(src, dst, 200.0, Random(1)) == 37.5  # half-open

    def test_window_extra_ms(self, dcs):
        src, dst = dcs
        model = LatencyModel(EC2_FIVE_DC, jitter_sigma=0.0)
        model.add_window(DegradationWindow(0.0, 10.0, multiplier=1.0, extra_ms=100.0))
        assert model.sample_ms(src, dst, 5.0, Random(1)) == 137.5

    def test_window_link_filter(self, dcs):
        src, dst = dcs
        tokyo = EC2_FIVE_DC.datacenter("tokyo")
        model = LatencyModel(EC2_FIVE_DC, jitter_sigma=0.0)
        model.add_window(
            DegradationWindow(0.0, 10.0, multiplier=2.0, src_name="tokyo")
        )
        assert model.sample_ms(src, dst, 5.0, Random(1)) == 37.5  # unaffected
        assert model.sample_ms(src, tokyo, 5.0, Random(1)) == 57.5 * 2

    def test_window_direction_insensitive(self, dcs):
        src, dst = dcs
        model = LatencyModel(EC2_FIVE_DC, jitter_sigma=0.0)
        model.add_window(
            DegradationWindow(0.0, 10.0, multiplier=2.0, src_name="us_east", dst_name="us_west")
        )
        assert model.sample_ms(src, dst, 5.0, Random(1)) == 75.0
        assert model.sample_ms(dst, src, 5.0, Random(1)) == 75.0

    def test_stacked_windows_compose(self, dcs):
        src, dst = dcs
        model = LatencyModel(EC2_FIVE_DC, jitter_sigma=0.0)
        model.add_window(DegradationWindow(0.0, 10.0, multiplier=2.0))
        model.add_window(DegradationWindow(0.0, 10.0, multiplier=1.0, extra_ms=5.0))
        assert model.sample_ms(src, dst, 5.0, Random(1)) == 80.0

    def test_clear_windows(self, dcs):
        src, dst = dcs
        model = LatencyModel(EC2_FIVE_DC, jitter_sigma=0.0)
        model.add_window(DegradationWindow(0.0, 10.0, multiplier=5.0))
        model.clear_windows()
        assert model.sample_ms(src, dst, 5.0, Random(1)) == 37.5

    def test_active_windows_query(self, dcs):
        src, dst = dcs
        model = LatencyModel(EC2_FIVE_DC)
        window = DegradationWindow(0.0, 10.0, multiplier=2.0)
        model.add_window(window)
        assert model.active_windows(5.0, src, dst) == [window]
        assert model.active_windows(15.0, src, dst) == []
