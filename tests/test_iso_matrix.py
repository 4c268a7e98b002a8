"""Smoke tests for the iso_matrix experiment's point runner.

The full matrix (4 levels x 2 contention x 2 fault schedules) runs as a
sweep; here we pin the two corners that carry the experiment's claim at a
short horizon: serializable predicts nothing, contended read-committed
yields predicted-but-not-observed lost updates.
"""

from __future__ import annotations

from repro.experiments.iso_matrix import CONTENTION, FAULTS, LEVELS, run_iso_point


def test_grid_constants_cover_the_matrix():
    assert LEVELS == (
        "serializable", "snapshot", "monotonic-session", "read-committed"
    )
    assert set(CONTENTION) == {"low", "high"}
    assert FAULTS == ("none", "faulty")


def test_serializable_point_is_clean():
    row = run_iso_point(
        seed=3, isolation="serializable", contention="high", fault="none",
        duration_ms=1_500.0,
    )
    assert row["observed"] == 0
    assert row["predicted"] == 0
    assert "history" not in row


def test_read_committed_contention_predicts_without_observing():
    row = run_iso_point(
        seed=3, isolation="read-committed", contention="high", fault="none",
        duration_ms=1_500.0,
    )
    assert row["observed"] == 0
    assert row["predicted"] >= 1
    assert row["anomalies"].get("lost-update", 0) >= 1
    assert row["first_witness"] is not None
    # A witness-bearing row ships its history for offline replay.
    assert row["history"]["ops"]


def test_point_is_deterministic():
    kwargs = dict(
        seed=9, isolation="read-committed", contention="high", fault="none",
        duration_ms=1_500.0,
    )
    first = run_iso_point(**kwargs)
    second = run_iso_point(**kwargs)
    assert first == second
