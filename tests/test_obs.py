"""Tests for the ``repro.obs`` observability subsystem: the event bus and
its no-op fast path, span nesting, flight-recorder eviction and digest
determinism, Chrome trace export, and the simulated-time profiler."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.check.history import HistoryRecorder
from repro.cluster import Cluster, ClusterConfig
from repro.core.session import PlanetSession
from repro.obs.events import Tracer
from repro.obs.profile import SpanAggregator, _attribute
from repro.obs.recorder import FlightRecorder
from repro.obs.spans import Span
from repro.sim.kernel import Simulator


class CollectingSink(obs.Sink):
    def __init__(self):
        self.events = []
        self.spans = []

    def on_event(self, event):
        self.events.append(event)

    def on_span(self, span):
        self.spans.append(span)


class TestEventBus:
    def test_disabled_by_default_and_noop(self):
        tracer = Tracer()
        assert not tracer.enabled
        # None-returning begin makes end(None) safe at call sites.
        span = tracer.begin(0.0, "stage", "reading", track="tx-1")
        assert span is None
        tracer.end(span, 1.0)
        tracer.emit(0.0, "stage", "x")  # must not raise

    def test_sink_receives_events_and_spans(self):
        tracer, sink = Tracer(), CollectingSink()
        tracer.add_sink(sink)
        tracer.emit(1.5, "paxos", "vote", key="k", accepted=True)
        tracer.span(0.0, 2.0, "wal", "sync", track="wal:a")
        (event,) = sink.events
        assert (event.time_ms, event.category, event.name) == (1.5, "paxos", "vote")
        assert event.fields == {"key": "k", "accepted": True}
        (span,) = sink.spans
        assert span.duration_ms == 2.0

    def test_category_filter(self):
        tracer, sink = Tracer(), CollectingSink()
        tracer.add_sink(sink, categories={"paxos"})
        tracer.emit(0.0, "message", "send")
        tracer.emit(0.0, "paxos", "vote")
        assert [e.category for e in sink.events] == ["paxos"]

    def test_remove_last_sink_disables(self):
        tracer, sink = Tracer(), CollectingSink()
        tracer.add_sink(sink)
        assert tracer.enabled
        tracer.remove_sink(sink)
        assert not tracer.enabled

    def test_simulator_has_disabled_tracer(self):
        assert not Simulator(seed=1).tracer.enabled

    def test_capture_binds_new_simulators_only_inside_block(self):
        sink = CollectingSink()
        with obs.session(sink):
            inside = Simulator(seed=0)
            assert inside.tracer.enabled
            inside.schedule(1.0, lambda: None)
            inside.run()
        outside = Simulator(seed=0)
        assert not outside.tracer.enabled
        # After uninstall the old simulator is detached too.
        assert not inside.tracer.enabled

    def test_nested_capture_rejected(self):
        with obs.session(CollectingSink()):
            with pytest.raises(RuntimeError):
                obs.install([CollectingSink()])


class TestSpanNesting:
    def test_depths_nest_per_track(self):
        tracer, sink = Tracer(), CollectingSink()
        tracer.add_sink(sink)
        outer = tracer.begin(0.0, "stage", "pending", track="tx-1")
        inner = tracer.begin(1.0, "paxos", "accept_round", track="tx-1")
        other = tracer.begin(1.0, "stage", "reading", track="tx-2")
        assert (outer.depth, inner.depth, other.depth) == (0, 1, 0)
        tracer.end(inner, 2.0)
        again = tracer.begin(2.5, "wal", "sync", track="tx-1")
        assert again.depth == 1  # inner popped, depth reused
        tracer.end(again, 3.0)
        tracer.end(outer, 4.0)
        tracer.end(other, 4.0)
        assert len(sink.spans) == 4
        assert not tracer.open_spans()

    def test_out_of_order_close_tolerated(self):
        tracer = Tracer()
        tracer.add_sink(CollectingSink())
        a = tracer.begin(0.0, "stage", "a", track="t")
        b = tracer.begin(1.0, "stage", "b", track="t")
        tracer.end(a, 2.0)  # close outer first: a removed wherever it sits
        c = tracer.begin(2.0, "stage", "c", track="t")
        assert c.depth == 1  # b still open beneath it
        tracer.end(b, 3.0)
        tracer.end(c, 3.0)
        assert not tracer.open_spans()

    def test_double_end_is_idempotent(self):
        tracer, sink = Tracer(), CollectingSink()
        tracer.add_sink(sink)
        span = tracer.begin(0.0, "stage", "a", track="t")
        tracer.end(span, 1.0)
        tracer.end(span, 5.0)
        assert len(sink.spans) == 1
        assert sink.spans[0].end_ms == 1.0


class TestFlightRecorder:
    def _fill(self, recorder, n):
        tracer = Tracer()
        tracer.add_sink(recorder)
        for i in range(n):
            tracer.emit(float(i), "sim", "tick", i=i)
        return tracer

    def test_ring_buffer_eviction(self):
        recorder = FlightRecorder(capacity=10)
        with obs.session(metrics=True) as handle:
            self._fill(recorder, 25)
        assert len(recorder) == 10
        assert recorder.seen == 25
        assert recorder.evicted == 15
        # Oldest evicted: the retained window is the last ten events.
        assert [e.fields["i"] for e in recorder.events()] == list(range(15, 25))
        # The eviction count is also exposed through the metrics facade.
        assert handle.metrics.counter("obs.recorder_evictions") == 15

    def test_eviction_mixes_events_and_spans(self):
        recorder = FlightRecorder(capacity=4)
        tracer = Tracer()
        tracer.add_sink(recorder)
        for i in range(4):
            tracer.emit(float(i), "sim", "tick", i=i)
            tracer.span(float(i), float(i) + 0.5, "wal", "sync", track="w")
        assert len(recorder) == 4
        assert recorder.seen_events == recorder.seen_spans == 4
        assert len(recorder.spans()) == 2  # interleaved tail retained

    def test_digest_hashes_raw_ids(self):
        # Ids are minted per run, so renaming one is a different trace.
        a, b = FlightRecorder(), FlightRecorder()
        for recorder, base in ((a, 1), (b, 900)):
            tracer = Tracer()
            tracer.add_sink(recorder)
            tracer.emit(1.0, "tx", "decision", txid=f"tx-{base}", outcome="committed")
            tracer.span(0.0, 1.0, "stage", "reading", track=f"tx-{base}")
            tracer.emit(2.0, "tx", "decision", txid=f"tx-{base + 1}", outcome="aborted")
        assert a.digest() != b.digest()

    def test_digest_sensitive_to_behaviour(self):
        a, b = FlightRecorder(), FlightRecorder()
        for recorder, outcome in ((a, "committed"), (b, "aborted")):
            tracer = Tracer()
            tracer.add_sink(recorder)
            tracer.emit(1.0, "tx", "decision", txid="tx-1", outcome=outcome)
        assert a.digest() != b.digest()

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)


class TestChromeExport:
    def _recorded_run(self):
        recorder = FlightRecorder()
        with obs.session(recorder):
            cluster = Cluster(ClusterConfig(seed=7, jitter_sigma=0.0))
            session = PlanetSession(cluster, "us_west")
            tx = session.transaction().write("x", 1).with_guess_threshold(0.9)
            session.submit(tx)
            cluster.run()
        assert tx.committed
        return recorder

    def test_chrome_trace_schema(self, tmp_path):
        recorder = self._recorded_run()
        path = tmp_path / "trace.json"
        obs.write_chrome_trace(str(path), recorder)
        document = json.loads(path.read_text())
        assert set(document) == {"traceEvents", "displayTimeUnit"}
        events = document["traceEvents"]
        assert events
        for event in events:
            assert event["ph"] in ("X", "i", "M")
            assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
            if event["ph"] == "M":
                assert event["name"] in ("thread_name", "process_name")
                continue
            assert event["ts"] >= 0.0
            assert isinstance(event["cat"], str) and event["cat"]
            if event["ph"] == "X":
                assert event["dur"] >= 0.0

    def test_identical_captures_export_identical_traces(self):
        # Pids restart with every capture, so nothing of the first capture
        # shows in the second one's export.
        from repro.check.campaign import run_schedule

        def export():
            recorder = FlightRecorder(capacity=1_000_000)
            with obs.session(recorder):
                run_schedule(3, duration_ms=1_000.0)
            return json.dumps(obs.chrome_trace(recorder.records()), sort_keys=True)

        first, second = export(), export()
        assert '"pid": 1' in first
        assert first == second

    def test_trace_covers_the_protocol_stack(self):
        recorder = self._recorded_run()
        categories = set(recorder.categories())
        assert {"message", "paxos", "stage", "wal"} <= categories

    def test_span_tracks_become_named_threads(self, tmp_path):
        recorder = self._recorded_run()
        document = obs.chrome_trace(recorder.records())
        names = {
            event["args"]["name"]
            for event in document["traceEvents"]
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        assert any(name.startswith("wal:") for name in names)
        assert any(name.startswith("net:") for name in names)

    def test_jsonl_roundtrip(self, tmp_path):
        recorder = self._recorded_run()
        path = tmp_path / "trace.jsonl"
        count = obs.write_jsonl(str(path), recorder.records())
        lines = path.read_text().splitlines()
        assert count == len(lines) == len(recorder.records())
        first = json.loads(lines[0])
        assert first["type"] in ("event", "span")

    def test_events_from_transaction_adapter(self):
        recorder = self._recorded_run()
        # Adapter output for a finished tx is time-ordered and carries the
        # guess probability and final latency the renderer needs.
        cluster = Cluster(ClusterConfig(seed=7, jitter_sigma=0.0))
        session = PlanetSession(cluster, "us_west")
        tx = session.transaction().write("x", 1).with_guess_threshold(0.9)
        session.submit(tx)
        cluster.run()
        events = obs.events_from_transaction(tx)
        times = [event.time_ms for event in events]
        assert times == sorted(times)
        names = [event.name for event in events]
        assert "guessed" in names and "committed" in names and "vote" in names
        guessed = next(e for e in events if e.name == "guessed")
        assert 0.0 < guessed.fields["p"] <= 1.0


class TestProfiler:
    def test_attribution_partitions_the_timeline(self):
        spans = [
            Span("stage", "pending", "tx-1", 0.0, 10.0),
            Span("paxos", "accept_round", "tx-1", 2.0, 8.0),
            Span("wal", "sync", "w", 4.0, 5.0),
        ]
        totals, idle = _attribute(spans, 12.0)
        # Innermost wins: wal carves 1ms out of paxos, paxos out of stage.
        assert totals["wal"] == pytest.approx(1.0)
        assert totals["paxos"] == pytest.approx(5.0)
        assert totals["stage"] == pytest.approx(4.0)
        assert idle == pytest.approx(2.0)
        assert sum(totals.values()) + idle == pytest.approx(12.0)

    def test_profile_totals_match_duration(self):
        aggregator = SpanAggregator()
        with obs.session(aggregator):
            cluster = Cluster(ClusterConfig(seed=3, jitter_sigma=0.0))
            session = PlanetSession(cluster, "us_west")
            for i in range(5):
                session.submit(session.transaction().write(f"k{i}", i))
            cluster.run()
        (pid,) = aggregator.pids()
        report = aggregator.profile(pid)
        assert report.duration_ms > 0
        assert report.attributed_total_ms == pytest.approx(report.duration_ms, rel=1e-9)
        categories = {c.category for c in report.categories}
        assert {"message", "paxos", "stage", "wal"} <= categories

    def test_render_profile_table(self):
        aggregator = SpanAggregator()
        with obs.session(aggregator):
            sim = Simulator(seed=0)
            sim.tracer.span(0.0, 5.0, "wal", "sync", track="w")
        (pid,) = aggregator.pids()
        text = obs.render_profile(aggregator.profile(pid, duration_ms=10.0))
        assert "% of run" in text
        assert "wal" in text and "idle" in text
        assert "50.0%" in text  # 5 of 10 ms attributed to wal

    def test_p99(self):
        aggregator = SpanAggregator()
        tracer = Tracer()
        tracer.add_sink(aggregator)
        for i in range(100):
            tracer.span(0.0, float(i + 1), "wal", "sync", track="w")
        report = aggregator.profile(tracer.pid)
        (wal,) = report.categories
        assert wal.count == 100
        assert wal.p99_ms() == pytest.approx(99.0, abs=1.5)


class TestReplayDeterminism:
    def _digest(self, seed):
        from repro.experiments.f6_commit_latency import SPEC

        recorder = FlightRecorder(capacity=500_000)
        with obs.session(recorder):
            SPEC.run(seed=seed, scale=0.05)
        assert recorder.evicted == 0
        assert len(recorder) > 1000
        return recorder.digest()

    def test_same_seed_identical_digest(self):
        # The flight recorder is the replay oracle: every instrumented
        # decision across both engines' runs must replay identically.
        assert self._digest(3) == self._digest(3)

    def test_different_seed_different_digest(self):
        assert self._digest(3) != self._digest(4)


class TestObsSession:
    """obs.session installs sinks and a metrics registry, and removes both."""

    def _commit_one(self, seed=7):
        cluster = Cluster(ClusterConfig(seed=seed))
        cluster.load({"k": 0})
        session = PlanetSession(cluster, "us_west")
        session.submit(session.transaction().write("k", 1))
        cluster.run()

    def test_installs_and_uninstalls_everything(self):
        recorder, history = FlightRecorder(), HistoryRecorder()
        with obs.session(recorder, history, metrics=True) as handle:
            assert obs.capture_active()
            assert obs.metrics_active()
            self._commit_one()
        assert not obs.capture_active()
        assert not obs.metrics_active()
        assert handle.sinks == (recorder, history)
        assert handle.metrics.snapshot()["counters"]["sim.events"] > 0
        assert len(history.history().ops) > 0
        assert len(recorder) > 0

    def test_metrics_accepts_existing_registry(self):
        registry = obs.MetricsRegistry()
        with obs.session(metrics=registry) as handle:
            assert handle.metrics is registry
            self._commit_one()
        assert registry.snapshot()["counters"]["sim.events"] > 0

    def test_empty_session_rejected(self):
        with pytest.raises(ValueError, match="install nothing"):
            with obs.session():
                pass

    def test_matches_manual_stacking_digests(self):
        via_session = FlightRecorder()
        with obs.session(via_session):
            self._commit_one()
        via_install = FlightRecorder()
        obs.install([via_install], categories=obs.DEFAULT_CATEGORIES)
        try:
            self._commit_one()
        finally:
            obs.uninstall()
        assert via_session.digest() == via_install.digest()
