"""Tests for transaction timelines and ASCII plotting."""

from __future__ import annotations

import pytest

from repro.cluster import Cluster, ClusterConfig
from repro.core.session import PlanetSession
from repro.harness.ascii_plot import render_cdfs
from repro.stats.histogram import LatencyCdf
from repro.trace import build_timeline, render_latency_bar, render_timeline


@pytest.fixture
def committed_tx():
    cluster = Cluster(ClusterConfig(seed=7, jitter_sigma=0.0))
    session = PlanetSession(cluster, "us_west")
    tx = session.transaction().write("x", 1).with_guess_threshold(0.9)
    session.submit(tx)
    cluster.run()
    assert tx.committed
    return tx


class TestTimeline:
    def test_events_time_ordered(self, committed_tx):
        events = build_timeline(committed_tx)
        times = [event.time_ms for event in events]
        assert times == sorted(times)
        assert len(events) >= 4  # submit, pending, votes, guess, commit

    def test_contains_guess_and_commit(self, committed_tx):
        text = render_timeline(committed_tx)
        assert "GUESS" in text
        assert "COMMITTED" in text
        assert committed_tx.txid in text

    def test_vote_events_carry_likelihood(self, committed_tx):
        events = build_timeline(committed_tx)
        votes = [event for event in events if event.label == "replica vote"]
        assert votes
        assert all("likelihood" in event.detail for event in votes)

    def test_aborted_transaction_timeline(self):
        cluster = Cluster(ClusterConfig(seed=7, jitter_sigma=0.0))
        session = PlanetSession(cluster, "us_west")
        blocker = PlanetSession(cluster, "us_east", conflicts=session.conflicts)
        tx_a = session.transaction().write("x", 1)
        tx_b = blocker.transaction().write("x", 2)
        session.submit(tx_a)
        blocker.submit(tx_b)
        cluster.run()
        aborted = tx_a if not tx_a.committed else tx_b
        text = render_timeline(aborted)
        assert "ABORTED" in text
        assert "conflict" in text

    def test_event_str(self, committed_tx):
        event = build_timeline(committed_tx)[0]
        assert "t=" in str(event)


class TestLatencyBar:
    def test_bar_has_guess_and_decision_markers(self, committed_tx):
        bar = render_latency_bar(committed_tx, width=40)
        assert bar is not None
        assert "G" in bar
        assert "D" in bar
        assert bar.index("G") < bar.index("D")

    def test_bar_none_for_undecided(self):
        cluster = Cluster(ClusterConfig(seed=7))
        session = PlanetSession(cluster, "us_west")
        tx = session.transaction().write("x", 1)
        assert render_latency_bar(tx) is None


class TestAsciiCdfPlot:
    def _cdf(self, values):
        cdf = LatencyCdf()
        cdf.extend(values)
        return cdf

    def test_renders_all_series_markers(self):
        plot = render_cdfs(
            {"fast": self._cdf([10, 12, 14, 16]), "slow": self._cdf([100, 120, 140])}
        )
        assert "#" in plot and "*" in plot
        assert "fast" in plot and "slow" in plot

    def test_axis_labels_present(self):
        plot = render_cdfs({"a": self._cdf([5, 50, 500])}, x_label="latency (ms)")
        assert "latency (ms)" in plot
        assert "5" in plot

    def test_empty_series_handled(self):
        assert render_cdfs({"empty": LatencyCdf()}) == "(no samples)"

    def test_slower_series_plots_to_the_right(self):
        plot = render_cdfs(
            {"fast": self._cdf([10] * 50), "slow": self._cdf([1000] * 50)},
            width=50,
            height=8,
        )
        # On the median row, the fast marker appears left of the slow marker.
        rows = [line for line in plot.splitlines() if "#" in line and "*" in line]
        assert rows
        assert rows[0].index("#") < rows[0].index("*")
