"""Unit tests for history capture: HistoryOp/History, digests, recorder,
and reading history files."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.check.history import (
    HISTORY_FORMAT,
    History,
    HistoryOp,
    HistoryRecorder,
    check_history_file,
)
from repro.cli import main
from repro.cluster import Cluster, ClusterConfig
from repro.core.session import PlanetSession
from repro.obs.events import TraceEvent


def _op(time_ms, kind, txid, session="", **fields):
    return HistoryOp(
        time_ms=time_ms, kind=kind, txid=txid, session=session, fields=fields
    )


class TestSerialisation:
    def test_op_round_trip(self):
        op = _op(12.5, "read", "tx-3", session="us_west/s0", key="k1", version=2)
        assert HistoryOp.from_dict(op.to_dict()) == op

    def test_history_round_trip(self):
        history = History([
            _op(1.0, "begin", "tx-1", session="a/s0", ryw=True, wkeys="x"),
            _op(2.0, "commit", "tx-1", session="a/s0"),
        ])
        restored = History.from_dict(history.to_dict())
        assert restored.ops == history.ops
        assert restored.digest() == history.digest()

    def test_views(self):
        history = History([
            _op(1.0, "begin", "tx-1", session="a/s0"),
            _op(2.0, "begin", "tx-2", session="b/s0"),
            _op(3.0, "commit", "tx-1", session="a/s0"),
        ])
        assert len(history) == 3
        assert [op.txid for op in history.by_kind("begin")] == ["tx-1", "tx-2"]
        assert history.txids() == ["tx-1", "tx-2"]
        assert history.sessions() == ["a/s0", "b/s0"]


EXAMPLES = Path(__file__).resolve().parents[1] / "examples"
EXAMPLE_HISTORY = EXAMPLES / "lost_update_rc.history.json"


def _file(tmp_path, payload) -> str:
    path = tmp_path / "history.json"
    path.write_text(json.dumps(payload))
    return str(path)


def _with_op(**fields):
    op = {"time_ms": 1.0, "kind": "begin", "txid": "tx-1", **fields}
    return {"format": HISTORY_FORMAT, "ops": [op]}


class TestHistoryFiles:
    """A history file that History.to_dict could not have written is
    refused with a message naming the op, never a traceback or a
    prediction over some other history."""

    def test_round_trip_through_a_file(self, tmp_path):
        history = History([
            _op(1.0, "begin", "tx-1", session="a/s0", wkeys="x"),
            _op(2.0, "read", "tx-1", session="a/s0", key="x", version=3),
            _op(3.0, "commit", "tx-1", session="a/s0"),
        ])
        path = _file(tmp_path, {"format": HISTORY_FORMAT, **history.to_dict()})
        payload = check_history_file(json.loads(Path(path).read_text()), path)
        assert History.from_dict(payload).ops == history.ops

    def test_committed_example_passes(self):
        payload = json.loads(EXAMPLE_HISTORY.read_text())
        assert len(check_history_file(payload, str(EXAMPLE_HISTORY))["ops"]) == 10

    @pytest.mark.parametrize("payload, message", [
        ({"format": HISTORY_FORMAT}, "ops must be a list, got None"),
        ({"format": HISTORY_FORMAT, "ops": 5}, "ops must be a list, got 5"),
        ({"format": HISTORY_FORMAT, "ops": [["begin"]]}, r"ops\[0\]: expected an object"),
        ({"format": HISTORY_FORMAT, "ops": [{"kind": "begin", "txid": "tx-1"}]},
         r"ops\[0\]: no time_ms"),
        (_with_op(time_ms="1.0"), r"ops\[0\]\.time_ms: bad value '1.0'"),
        (_with_op(time_ms=True), r"ops\[0\]\.time_ms: bad value True"),
        (_with_op(kind=3), r"ops\[0\]\.kind: bad value 3"),
        (_with_op(txid=None), r"ops\[0\]\.txid: bad value None"),
        (_with_op(session=7), r"ops\[0\]\.session: bad value 7"),
        (_with_op(fields=[1]), r"ops\[0\]\.fields: bad value \[1\]"),
        (_with_op(fields={"version": "x"}), r"ops\[0\]\.fields\.version: bad value 'x'"),
        (_with_op(fields={"read_version": None}),
         r"ops\[0\]\.fields\.read_version: bad value None"),
        (_with_op(fields={"accepts": 2.5}), r"ops\[0\]\.fields\.accepts: bad value 2\.5"),
        (_with_op(fields={"quorum": True}), r"ops\[0\]\.fields\.quorum: bad value True"),
        ({"format": "repro.check/plan-v1", "ops": []}, "not a history file"),
    ])
    def test_check_history_names_the_problem(self, payload, message):
        with pytest.raises(ValueError, match=message):
            check_history_file(payload, "history.json")

    @pytest.mark.parametrize("payload", [
        {"format": HISTORY_FORMAT},
        {"format": HISTORY_FORMAT, "ops": 5},
        {"format": HISTORY_FORMAT, "ops": [{"kind": "begin", "txid": "tx-1"}]},
        _with_op(kind="read", fields={"key": "x", "version": None}),
        _with_op(kind="write", fields={"key": "x", "kind": "w", "read_version": "x"}),
    ])
    def test_cli_predict_reports_without_traceback(self, tmp_path, payload):
        with pytest.raises(SystemExit, match=r"^check predict: .*ops"):
            main(["check", "predict", _file(tmp_path, payload)])


class TestDigest:
    def test_digest_hashes_raw_ids(self):
        # Ids are minted per run, so a different id is a different history.
        first = History([
            _op(1.0, "begin", "tx-17", session="a/s0"),
            _op(2.0, "commit", "tx-17", session="a/s0"),
        ])
        second = History([
            _op(1.0, "begin", "tx-904", session="a/s0"),
            _op(2.0, "commit", "tx-904", session="a/s0"),
        ])
        assert first.digest() != second.digest()

    def test_digest_distinguishes_distinct_structure(self):
        base = History([_op(1.0, "begin", "tx-1", session="a/s0")])
        other = History([_op(1.0, "begin", "tx-1", session="b/s0")])
        assert base.digest() != other.digest()

    def test_digest_distinguishes_id_aliasing(self):
        # tx-5 referenced twice is NOT the same as two distinct txids.
        same = History([
            _op(1.0, "begin", "tx-5", session="a/s0"),
            _op(2.0, "commit", "tx-5", session="a/s0"),
        ])
        different = History([
            _op(1.0, "begin", "tx-5", session="a/s0"),
            _op(2.0, "commit", "tx-6", session="a/s0"),
        ])
        assert same.digest() != different.digest()

    def test_digest_sensitive_to_float_fields(self):
        low = History([_op(1.0, "guess", "tx-1", session="a/s0", likelihood=0.5)])
        high = History([_op(1.0, "guess", "tx-1", session="a/s0", likelihood=0.9)])
        assert low.digest() != high.digest()


class TestRecorder:
    def test_ignores_other_categories(self):
        recorder = HistoryRecorder()
        recorder.on_event(TraceEvent(1.0, "tx", "commit", {"txid": "tx-1"}))
        assert len(recorder) == 0
        recorder.on_event(
            TraceEvent(2.0, "history", "commit", {"txid": "tx-1", "session": "a/s0"})
        )
        assert len(recorder) == 1
        op = recorder.history().ops[0]
        assert op.kind == "commit"
        assert op.txid == "tx-1"
        assert op.session == "a/s0"
        assert "txid" not in op.fields  # hoisted out of the payload

    def test_attach_records_and_detach_stops(self):
        cluster = Cluster(ClusterConfig(seed=3, jitter_sigma=0.0))
        cluster.load({"k": 0})
        recorder = HistoryRecorder().attach(cluster.sim)
        session = PlanetSession(cluster, "us_west")
        session.submit(session.transaction().write("k", 1))
        cluster.run()
        captured = len(recorder)
        assert captured > 0
        history = recorder.history()
        assert {"begin", "write", "commit"} <= {op.kind for op in history}
        assert all(op.kind != "read" or "key" in op.fields for op in history)

        recorder.detach(cluster.sim)
        session.submit(session.transaction().write("k", 2))
        cluster.run()
        assert len(recorder) == captured

    def test_two_recorders_compose(self):
        # Direct tracer attachment must not fight over a global slot.
        cluster = Cluster(ClusterConfig(seed=3, jitter_sigma=0.0))
        cluster.load({"k": 0})
        first = HistoryRecorder().attach(cluster.sim)
        second = HistoryRecorder().attach(cluster.sim)
        session = PlanetSession(cluster, "us_west")
        session.submit(session.transaction().write("k", 1))
        cluster.run()
        assert len(first) == len(second) > 0
        assert first.history().digest() == second.history().digest()
