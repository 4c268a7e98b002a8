"""Tests for ``repro.obs.metrics``: the labelled facade, the no-op fast
path, process-wide install discipline, simulator binding, end-to-end
instrumentation coverage, and — the contract the whole layer hangs on —
byte-identical trace and ResultSet digests with and without a registry."""

from __future__ import annotations

import math

import pytest

from repro import obs
from repro.cluster import Cluster, ClusterConfig
from repro.core.session import PlanetSession
from repro.experiments.f6_commit_latency import SPEC as F6
from repro.harness.parallel import SweepOptions, run_sweep
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.sim.kernel import Simulator

from tests import sweep_fixture


class TestValueHist:
    """The registry's value histograms, as ``hist``/``snapshot`` expose them."""

    def test_empty_hist_is_nan(self):
        registry = MetricsRegistry()
        hist = registry.hist("h")
        assert hist.count == 0
        assert math.isnan(hist.percentile(50))
        assert math.isnan(hist.mean())
        summary = registry.snapshot()["histograms"]["h"]
        assert summary["count"] == 0
        assert math.isnan(summary["p50"])


class TestLabelledFacade:
    def test_labels_render_sorted_and_deterministic(self):
        registry = MetricsRegistry()
        registry.inc("net.messages", kind="Phase2a", dc="us_east")
        registry.inc("net.messages", dc="us_east", kind="Phase2a")
        assert registry.counter("net.messages", kind="Phase2a", dc="us_east") == 2
        assert "net.messages{dc=us_east,kind=Phase2a}" in registry.counters()

    def test_unlabelled_name_renders_plain(self):
        registry = MetricsRegistry()
        registry.inc("a", 3)
        assert registry.counters() == {"a": 3}

    def test_counter_family_sums_across_labels(self):
        registry = MetricsRegistry()
        registry.inc("drops", cause="loss")
        registry.inc("drops", 2, cause="partition")
        registry.inc("drops_other")  # prefix must not leak into the family
        assert registry.counter_family("drops") == 3

    def test_gauges_set_and_max(self):
        registry = MetricsRegistry()
        registry.set_gauge("depth", 5.0)
        registry.max_gauge("depth", 3.0)
        assert registry.gauge("depth") == 5.0
        registry.max_gauge("depth", 9.0)
        assert registry.gauge("depth") == 9.0
        registry.max_gauge("horizon", 7.0, pid=1)
        registry.max_gauge("horizon", 4.0, pid=2)
        assert registry.gauge_family("horizon") == 11.0

    def test_labelled_histograms(self):
        registry = MetricsRegistry()
        registry.observe("flight_ms", 10.0, kind="Phase2a")
        registry.observe("flight_ms", 30.0, kind="Phase2a")
        registry.observe("flight_ms", 99.0, kind="Phase2b")
        assert registry.hist("flight_ms", kind="Phase2a").count == 2
        assert registry.hist("flight_ms", kind="Phase2b").count == 1

    def test_snapshot_shape_and_sorting(self):
        registry = MetricsRegistry()
        registry.inc("b")
        registry.inc("a")
        registry.set_gauge("g", 1.0)
        registry.observe("h", 2.0)
        snapshot = registry.snapshot()
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        assert list(snapshot["counters"]) == ["a", "b"]
        assert snapshot["histograms"]["h"]["count"] == 1

    def test_digest_sensitive_to_labels(self):
        one, two = MetricsRegistry(), MetricsRegistry()
        one.inc("x", kind="a")
        two.inc("x", kind="b")
        assert one.digest() != two.digest()


class TestNoOpFastPath:
    def test_null_metrics_disabled_and_inert(self):
        assert not NULL_METRICS.enabled
        NULL_METRICS.inc("x", kind="a")
        NULL_METRICS.set_gauge("g", 1.0)
        NULL_METRICS.max_gauge("g", 2.0)
        NULL_METRICS.observe("h", 3.0)
        assert NULL_METRICS.counters() == {}
        assert NULL_METRICS.gauges() == {}
        assert NULL_METRICS.latency_names() == []

    def test_simulator_binds_null_by_default(self):
        sim = Simulator(seed=1)
        assert sim.metrics is NULL_METRICS
        sim.schedule(1.0, lambda: None)
        sim.run()  # the guarded instrumentation must not record anywhere
        assert NULL_METRICS.counters() == {}


class TestInstallDiscipline:
    def test_session_metrics_installs_and_uninstalls(self):
        assert not obs.metrics_active()
        with obs.session(metrics=True) as handle:
            assert obs.metrics_active()
            assert obs.current_metrics() is handle.metrics
        assert not obs.metrics_active()
        assert obs.current_metrics() is NULL_METRICS

    def test_nested_install_rejected(self):
        with obs.session(metrics=True):
            with pytest.raises(RuntimeError):
                obs_metrics.install(MetricsRegistry())

    def test_uninstall_after_error_in_block(self):
        with pytest.raises(ValueError):
            with obs.session(metrics=True):
                raise ValueError("boom")
        assert not obs.metrics_active()

    def test_simulator_binds_installed_registry_at_construction(self):
        registry = MetricsRegistry()
        with obs.session(metrics=registry):
            inside = Simulator(seed=0)
            assert inside.metrics is registry
            inside.schedule(1.0, lambda: None)
            inside.schedule(2.0, lambda: None)
            inside.run()
        assert registry.counter("sim.events") == 2
        assert registry.gauge_family("sim.now_ms") == 2.0
        # Built outside the block: back to the null registry.
        assert Simulator(seed=0).metrics is NULL_METRICS

    def test_explicit_registry_is_reused(self):
        registry = MetricsRegistry()
        with obs.session(metrics=registry) as handle:
            assert handle.metrics is registry


class TestInstrumentedRun:
    @pytest.fixture(scope="class")
    def collected(self):
        """One tiny end-to-end MDCC run with a collection installed."""
        registry = MetricsRegistry()
        with obs.session(metrics=registry):
            cluster = Cluster(ClusterConfig(seed=7, engine="mdcc", jitter_sigma=0.0))
            session = PlanetSession(cluster, "us_east")
            for _ in range(5):
                tx = session.transaction()
                tx.write("k", 1)
                session.submit(tx)
                cluster.sim.run()
        return registry

    def test_kernel_counters(self, collected):
        assert collected.counter("sim.events") > 0
        assert collected.gauge("sim.queue_depth") >= 1.0

    def test_network_counters_by_kind(self, collected):
        assert collected.counter_family("net.messages_sent") > 0
        assert collected.counter_family("net.messages_delivered") > 0
        assert collected.counter_family("net.bytes_sent") > 0
        flights = [k for k in collected.latency_names() if k.startswith("net.flight_ms{")]
        assert flights  # per-kind histograms exist

    def test_protocol_counters(self, collected):
        assert collected.counter("paxos.ballots", kind="fast") > 0
        assert collected.counter("mdcc.rounds", phase="accept", path="fast") > 0
        assert collected.counter_family("mdcc.decisions") == 5

    def test_storage_counters_per_node(self, collected):
        assert collected.counter_family("wal.appends") > 0
        assert collected.counter_family("wal.syncs") > 0
        per_node = [k for k in collected.counters() if k.startswith("wal.appends{node=")]
        assert len(per_node) >= 5  # one series per replica

    def test_planet_counters(self, collected):
        assert collected.counter("planet.submitted", dc="us_east") == 5
        assert collected.counter("planet.committed", dc="us_east") == 5
        assert collected.hist("planet.commit_latency_ms", dc="us_east").count == 5

    def test_sweep_executor_counters(self):
        registry = MetricsRegistry()
        with obs.session(metrics=registry):
            run_sweep(
                sweep_fixture.SPEC, seed=0,
                options=SweepOptions(jobs=1, cache=None),
            )
        assert registry.counter("sweep.points", experiment="zz_sweep_fixture") == 4
        assert registry.hist("sweep.point_wall_s", experiment="zz_sweep_fixture").count == 4


class TestDigestByteIdentity:
    """Installing a collection must not perturb the simulated system:
    trace digests and ResultSet digests stay byte-identical."""

    def _traced(self, with_metrics: bool):
        recorder = obs.FlightRecorder(capacity=2_000_000)
        with obs.session(recorder, metrics=with_metrics):
            sweep = run_sweep(
                F6, seed=0, scale=0.05,
                options=SweepOptions(jobs=1, cache=None),
            )
        return sweep.result_set.digest(), recorder.digest()

    def test_digests_identical_with_and_without_registry(self):
        bare = self._traced(with_metrics=False)
        collected = self._traced(with_metrics=True)
        assert bare == collected
