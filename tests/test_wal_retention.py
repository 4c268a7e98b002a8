"""The WAL retains nothing per append (deterministic: tracemalloc, no RSS).

Durability is modelled as latency only, so a log's whole state is its
counters and the open batch's flush instant.  Whatever ``storage/wal.py``
allocated that is still alive after a run must be exactly those scalars —
never an entry, a list slot or a payload per append.
"""

from __future__ import annotations

import gc
import tracemalloc
from collections import Counter

import pytest

from repro.experiments.common import microbench_run
from repro.storage import wal as wal_module
from repro.storage.wal import WriteAheadLog

WAL_FILE = wal_module.__file__


def live_wal_blocks() -> Counter:
    """Live memory blocks allocated in ``storage/wal.py``, by allocation site."""
    gc.collect()  # a full collection also empties CPython's float free list
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, WAL_FILE)]
    )
    return Counter(trace.traceback for trace in snapshot.traces)


def scalar_blocks(wals) -> Counter:
    """The blocks of the logs' own scalar fields that ``storage/wal.py`` minted
    (counters past the small-int cache, the batch's flush instant)."""
    blocks = Counter()
    for wal in wals:
        for value in (wal.appends, wal.sync_count, wal._batch_flush_at):
            origin = tracemalloc.get_object_traceback(value)
            if origin is not None and origin[-1].filename == WAL_FILE:
                blocks[origin] += 1
    return blocks


@pytest.fixture
def traced():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("batch_window_ms", [0.0, 2.0])
def test_log_holds_no_per_append_objects(traced, batch_window_ms):
    wal = WriteAheadLog(sync_delay_ms=0.5, batch_window_ms=batch_window_ms)
    for i in range(10_000):
        wal.append("option", f"tx{i}", i * 0.25)
    assert wal.appends == 10_000
    assert live_wal_blocks() == scalar_blocks([wal])


@pytest.mark.parametrize("engine", ["mdcc", "twopc"])
def test_cluster_run_leaves_nothing_in_the_wal(traced, engine):
    result = microbench_run(
        seed=0, engine=engine, n_keys=2_000, rate_tps=5.0, clients_per_dc=2,
        duration_ms=22_000.0, warmup_ms=0.0, guess_threshold=None,
    )
    assert len(result.all_transactions) >= 1_000
    wals = [node.wal for node in result.cluster.storage_nodes.values()]
    assert sum(wal.appends for wal in wals) >= 5_000
    assert live_wal_blocks() == scalar_blocks(wals)
