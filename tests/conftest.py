"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro import engine
from repro.cluster import Cluster, ClusterConfig
from repro.net.topology import EC2_FIVE_DC, Topology
from repro.sim.kernel import Simulator


def pytest_report_header(config):
    """Say which simulator backends this run exercises: without
    ``compiled`` here the cross-backend parity suite is all skips."""
    return f"repro kernel backends: {', '.join(engine.describe()['available'])}"


def pytest_terminal_summary(terminalreporter, config):
    # ``-q`` (tier-1's addopts) hides the header, so repeat it at the end.
    if config.get_verbosity() < 0:
        terminalreporter.write_line(pytest_report_header(config))


@pytest.fixture(autouse=True)
def _isolated_sweep_cache(tmp_path, monkeypatch):
    """Keep CLI-invoked sweeps from writing ``.repro_cache`` into the repo."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "repro-cache"))


@pytest.fixture
def sim() -> Simulator:
    return Simulator(seed=42)


@pytest.fixture
def topology() -> Topology:
    return EC2_FIVE_DC


@pytest.fixture
def mdcc_cluster() -> Cluster:
    """A deterministic five-DC MDCC cluster with no latency jitter."""
    return Cluster(ClusterConfig(seed=7, engine="mdcc", jitter_sigma=0.0))


@pytest.fixture
def jittery_cluster() -> Cluster:
    return Cluster(ClusterConfig(seed=7, engine="mdcc", jitter_sigma=0.2))


@pytest.fixture
def twopc_cluster() -> Cluster:
    return Cluster(ClusterConfig(seed=7, engine="twopc", jitter_sigma=0.0))
