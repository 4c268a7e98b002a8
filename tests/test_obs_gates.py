"""The tracer's per-category gate: a capture costs only what some sink
subscribed to.

* Each event or span reaches only the sinks that asked for its category,
  and ``Tracer.live`` is exactly the union of the attached sinks' sets.
* A static scan of ``src/repro``: every literal category passed to
  ``emit``/``begin``/``span`` and every ``"…" in tracer.live`` guard names
  a member of ``obs.CATEGORIES``, and every such call sits under a guard
  for its own category.  A typo'd guard would otherwise switch its
  instrumentation off without a sound.
* At runtime a history-only capture never enters the kernel's observed
  dispatch path and never builds a record of any other category, and a
  full capture installed alongside it changes nothing the run computes.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

import pytest

from repro import engine, obs
from repro.check.history import HistoryRecorder
from repro.cluster import Cluster, ClusterConfig
from repro.core.session import PlanetConfig, PlanetSession
from repro.faults import campaign_plan
from repro.obs import events as obs_events
from repro.obs.events import Tracer
from repro.sim.kernel import Simulator

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: Tracer methods that take a category, and the positional index of it.
CATEGORY_ARG = {"emit": 1, "begin": 1, "span": 2}


class CollectingSink(obs.Sink):
    def __init__(self):
        self.events = []
        self.spans = []

    def on_event(self, event):
        self.events.append(event)

    def on_span(self, span):
        self.spans.append(span)


class TestPerSinkDelivery:
    def test_each_sink_receives_only_its_categories(self):
        tracer, history, message = Tracer(), CollectingSink(), CollectingSink()
        tracer.add_sink(history, categories=("history",))
        tracer.add_sink(message, categories=("message",))
        assert tracer.live == {"history", "message"}
        tracer.emit(1.0, "message", "send", kind="Phase2a")
        tracer.emit(2.0, "history", "commit", txid="tx-1")
        tracer.emit(3.0, "paxos", "vote")  # nobody asked: never built
        tracer.span(0.0, 4.0, "message", "Phase2a", track="net:a")
        span = tracer.begin(5.0, "history", "x", track="t")
        tracer.end(span, 6.0)
        assert [e.category for e in history.events] == ["history"]
        assert [e.category for e in message.events] == ["message"]
        assert [s.category for s in history.spans] == ["history"]
        assert [s.category for s in message.spans] == ["message"]

    def test_remove_sink_narrows_live(self):
        tracer, history, message = Tracer(), CollectingSink(), CollectingSink()
        tracer.add_sink(history, categories=("history",))
        tracer.add_sink(message, categories=("message",))
        tracer.remove_sink(message)
        assert tracer.live == {"history"}
        tracer.emit(1.0, "message", "send")
        tracer.emit(2.0, "history", "commit")
        assert [e.category for e in history.events] == ["history"]
        assert message.events == []
        tracer.remove_sink(history)
        assert tracer.live == frozenset()
        assert not tracer.enabled

    def test_sink_without_categories_wants_every_category(self):
        tracer, sink = Tracer(), CollectingSink()
        tracer.add_sink(sink)
        assert tracer.live == frozenset(obs.CATEGORIES)
        tracer.emit(0.0, "sim", "dispatch")
        assert len(sink.events) == 1

    def test_session_sinks_share_the_session_categories(self):
        sink = CollectingSink()
        with obs.session(sink, categories={"wal"}):
            sim = Simulator(seed=0)
            assert sim.tracer.live == {"wal"}
            HistoryRecorder().attach(sim)
            assert sim.tracer.live == {"wal", "history"}
        assert sim.tracer.live == {"history"}


# ----------------------------------------------------------------------
# Static scan of the instrumentation.
# ----------------------------------------------------------------------
def _live_guards(test: ast.AST, op: type) -> Set[str]:
    """Categories ``test`` compares against ``….live`` with ``op``."""
    found = set()
    for node in ast.walk(test):
        if (
            isinstance(node, ast.Compare)
            and len(node.ops) == 1
            and isinstance(node.ops[0], op)
            and isinstance(node.left, ast.Constant)
            and isinstance(node.left.value, str)
            and isinstance(node.comparators[0], ast.Attribute)
            and node.comparators[0].attr == "live"
        ):
            found.add(node.left.value)
    return found


def _literal_category(call: ast.Call) -> Optional[str]:
    """The literal category of a ``…tracer.emit/begin/span`` call, if any."""
    func = call.func
    if not isinstance(func, ast.Attribute) or func.attr not in CATEGORY_ARG:
        return None
    if not ast.unparse(func.value).endswith("tracer"):
        return None
    index = CATEGORY_ARG[func.attr]
    node = call.args[index] if len(call.args) > index else None
    for keyword in call.keywords:
        if keyword.arg == "category":
            node = keyword.value
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _is_guarded(category: str, call: ast.Call, parents: Dict[ast.AST, Tuple[ast.AST, str]]) -> bool:
    """Whether ``call`` only runs while ``category`` is live: it sits in the
    body of an ``if "<category>" in ….live:``, or its function returned
    early on ``if "<category>" not in ….live:``."""
    node = call
    while node in parents:
        parent, field = parents[node]
        if isinstance(parent, ast.If) and field == "body":
            if category in _live_guards(parent.test, ast.In):
                return True
        if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for statement in parent.body:
                if statement.lineno >= call.lineno:
                    break
                if (
                    isinstance(statement, ast.If)
                    and category in _live_guards(statement.test, ast.NotIn)
                    and isinstance(statement.body[-1], ast.Return)
                ):
                    return True
            return False
        node = parent
    return False


def scan(source: str, where: str) -> Tuple[List[str], int]:
    """Problems in ``source`` and the number of sites checked."""
    tree = ast.parse(source)
    parents: Dict[ast.AST, Tuple[ast.AST, str]] = {}
    for node in ast.walk(tree):
        for field, value in ast.iter_fields(node):
            children = value if isinstance(value, list) else [value]
            for child in children:
                if isinstance(child, ast.AST):
                    parents[child] = (node, field)
    known = set(obs.CATEGORIES)
    problems, sites = [], 0
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for category in _live_guards(node, ast.In) | _live_guards(node, ast.NotIn):
                sites += 1
                if category not in known:
                    problems.append(f"{where}:{node.lineno}: guard on unknown category {category!r}")
        if isinstance(node, ast.Call):
            category = _literal_category(node)
            if category is None:
                continue
            sites += 1
            if category not in known:
                problems.append(f"{where}:{node.lineno}: unknown category {category!r}")
            elif not _is_guarded(category, node, parents):
                problems.append(
                    f"{where}:{node.lineno}: {category!r} call not guarded by "
                    f'`if "{category}" in tracer.live:`'
                )
    return problems, sites


class TestGuardScan:
    def test_every_category_and_guard_in_src_is_known_and_matched(self):
        problems, sites = [], 0
        for path in sorted(SRC.rglob("*.py")):
            found, count = scan(path.read_text(encoding="utf-8"), str(path.relative_to(SRC)))
            problems.extend(found)
            sites += count
        assert problems == []
        # The scan must actually see the instrumentation it vouches for.
        assert sites >= 40

    def test_scan_flags_typos_and_unguarded_calls(self):
        source = (
            "def send(tracer):\n"
            '    if "mesage" in tracer.live:\n'
            '        tracer.emit(0.0, "message", "send")\n'
            '    tracer.span(0.0, 1.0, "wal", "sync")\n'
            '    if "paxos" in tracer.live:\n'
            "        pass\n"
            "    else:\n"
            '        tracer.emit(0.0, "paxos", "vote")\n'
            '    tracer.emit(0.0, "histroy", "commit")\n'
        )
        problems, _ = scan(source, "snippet")
        assert sorted(problems) == [
            "snippet:2: guard on unknown category 'mesage'",
            "snippet:3: 'message' call not guarded by `if \"message\" in tracer.live:`",
            "snippet:4: 'wal' call not guarded by `if \"wal\" in tracer.live:`",
            "snippet:8: 'paxos' call not guarded by `if \"paxos\" in tracer.live:`",
            "snippet:9: unknown category 'histroy'",
        ]

    def test_early_return_guard_counts(self):
        source = (
            "def note(tracer):\n"
            '    if "stage" not in tracer.live:\n'
            "        return\n"
            '    tracer.begin(0.0, "stage", "reading")\n'
        )
        assert scan(source, "snippet") == ([], 2)


# ----------------------------------------------------------------------
# Runtime: a history-only capture pays for history and nothing else.
# ----------------------------------------------------------------------
def _run_fault_schedule() -> Tuple[int, int, str]:
    """A short checked fault schedule under history capture:
    (``sim.events``, ``net.messages_sent``, history digest)."""
    cluster = Cluster(
        ClusterConfig(
            seed=7, jitter_sigma=0.2, option_ttl_ms=400.0,
            anti_entropy_interval_ms=500.0, backend="python",
        )
    )
    cluster.load({"counter": 0})
    plan = campaign_plan(cluster.datacenter_names, 2_000.0, seed=7, intensity=1.5)
    recorder = HistoryRecorder().attach(cluster.sim)
    plan.apply(cluster)
    sessions = [
        PlanetSession(cluster, dc, config=PlanetConfig(default_guess_threshold=0.85))
        for dc in cluster.datacenter_names
    ]
    rng = cluster.sim.rng.stream("gate-load")
    for i in range(40):
        session = sessions[i % len(sessions)]
        key = f"k{rng.randrange(4)}"
        if i % 3 == 0:
            tx = session.transaction().increment("counter", 1, floor=-100)
        else:
            tx = session.transaction().read(key).write(key, i)
        tx.with_timeout(2_000.0)
        cluster.sim.schedule(rng.uniform(0.0, 2_000.0), session.submit, tx)
    cluster.run()
    cluster.settle(1_000.0)
    return (
        cluster.sim.events_processed,
        cluster.network.messages_sent,
        recorder.history().digest(),
    )


class TestHistoryOnlyCapture:
    def test_builds_only_history_records_and_skips_observed_dispatch(self, monkeypatch):
        built: List[str] = []

        class CountingEvent(obs_events.TraceEvent):
            __slots__ = ()

            def __init__(self, time_ms, category, *args, **kwargs):
                built.append(category)
                super().__init__(time_ms, category, *args, **kwargs)

        class CountingSpan(obs_events.Span):
            def __init__(self, category, *args, **kwargs):
                built.append(category)
                super().__init__(category, *args, **kwargs)

        def no_observed_dispatch(self, event):
            raise AssertionError("history-only capture entered _observe_dispatch")

        monkeypatch.setattr(obs_events, "TraceEvent", CountingEvent)
        monkeypatch.setattr(obs_events, "Span", CountingSpan)
        monkeypatch.setattr(Simulator, "_observe_dispatch", no_observed_dispatch)
        with engine.use("python"):
            events, messages, _ = _run_fault_schedule()
        assert events > 0 and messages > 0
        assert built, "the history capture recorded nothing"
        assert set(built) == {"history"}

    def test_a_full_capture_alongside_changes_nothing(self):
        with engine.use("python"):
            alone = _run_fault_schedule()
            recorder = obs.FlightRecorder(capacity=10)
            with obs.session(recorder, categories=None):
                traced = _run_fault_schedule()
        assert recorder.seen_events > 0 and recorder.seen_spans > 0
        assert traced == alone

    @pytest.mark.parametrize("categories", [("history",), ("history", "metric")])
    def test_history_capture_uses_the_plain_drain_loop(self, categories):
        sim = Simulator(seed=0)
        sim.tracer.add_sink(HistoryRecorder(), categories=categories)
        calls = []
        sim._observe_dispatch = calls.append
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert calls == []
        sim.tracer.add_sink(CollectingSink(), categories=("sim",))
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert len(calls) == 1
