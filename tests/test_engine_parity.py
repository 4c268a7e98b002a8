"""Cross-backend parity: the compiled kernel is byte-identical, or it is wrong.

The compiled extension (``repro._ckernel``) is an *implementation* of the
simulator contract, not a looser approximation: for any seed and any
workload, the python and compiled backends must produce the same event
schedule, the same client-visible history, the same flight-recorder
stream, and the same reduced experiment result.  This suite enforces that
at three levels:

* property tests (hypothesis) driving randomized transaction workloads
  through full clusters on both backends, comparing history digests;
* the instrumented-run oracle — flight-recorder digests across backends
  on a fixed workload;
* one full-protocol experiment point (f7, guess-vs-commit) run through
  the public sweep API with ``overrides={"engine.backend": ...}``,
  asserting byte-identical ResultSet, obs, and history digests.

Every test here is skipped cleanly when the extension is not built
(``python setup.py build_ext --inplace``); the kernel-level firing-order
properties in ``test_sim_determinism.py`` cover the python backend
unconditionally.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Cluster, ClusterConfig, PlanetSession, engine, obs
from repro.check.history import HistoryRecorder
from repro.core.session import PlanetConfig
from repro.ops import ISOLATION_LEVELS

pytestmark = pytest.mark.skipif(
    not engine.compiled_available(),
    reason="compiled kernel not built (python setup.py build_ext --inplace)",
)

BACKENDS = ("python", "compiled")
SITES = ("us_west", "us_east", "ireland", "singapore", "tokyo")
KEYS = ("alpha", "beta", "gamma")

# One randomized client op: (site, key, value-or-None-for-read).
_ops = st.lists(
    st.tuples(
        st.sampled_from(SITES),
        st.sampled_from(KEYS),
        st.one_of(st.none(), st.integers(0, 99)),
    ),
    min_size=1,
    max_size=6,
)


def _run_workload(backend, seed, ops, record=False):
    """Drive one randomized workload; return its parity-relevant digests."""
    recorder = obs.FlightRecorder(capacity=200_000) if record else None
    history = HistoryRecorder()
    sinks = (recorder, history) if record else (history,)
    with obs.session(*sinks):
        cluster = Cluster(ClusterConfig(seed=seed, backend=backend))
        cluster.load({key: 0 for key in KEYS})
        sessions = {site: PlanetSession(cluster, site) for site in SITES}
        outcomes = []
        for site, key, value in ops:
            tx = sessions[site].transaction()
            tx = tx.read(key) if value is None else tx.write(key, value)
            outcomes.append(sessions[site].submit(tx))
        cluster.run()
    return {
        "now": cluster.sim.now,
        "events": cluster.sim.events_processed,
        "outcomes": [(tx.committed, tx.abort_reason, tx.decided_at) for tx in outcomes],
        "history": history.history().digest(),
        "obs": recorder.digest() if record else None,
    }


class TestWorkloadParity:
    """Randomized full-cluster workloads agree across backends."""

    @given(st.integers(0, 2**32 - 1), _ops)
    @settings(max_examples=25, deadline=None)
    def test_history_and_clock_parity(self, seed, ops):
        assert _run_workload("python", seed, ops) == _run_workload(
            "compiled", seed, ops
        )

    @given(st.integers(0, 2**16 - 1))
    @settings(max_examples=10, deadline=None)
    def test_full_unsigned_seeds_agree(self, low):
        # Scale shards derive full 64-bit seeds; both backends must accept
        # and agree on them (the C kernel stores the seed as an object).
        seed = (1 << 64) - 1 - low
        ops = [("us_west", "alpha", 1), ("tokyo", "alpha", None)]
        assert _run_workload("python", seed, ops) == _run_workload(
            "compiled", seed, ops
        )


def _run_isolation_workload(backend, level, seed=29):
    """A deliberately contended RMW workload under one isolation level."""
    history = HistoryRecorder()
    with obs.session(history):
        cluster = Cluster(ClusterConfig(seed=seed, backend=backend))
        cluster.load({key: 0 for key in KEYS})
        config = PlanetConfig(isolation=level)
        sessions = {
            site: PlanetSession(cluster, site, config=config) for site in SITES
        }
        outcomes = []
        # Every site hammers the same two keys so relaxed levels actually
        # exercise the slot-contest path, not just the happy path.
        for round_index in range(3):
            for site in SITES:
                tx = (
                    sessions[site]
                    .transaction()
                    .read("alpha")
                    .write("alpha", round_index)
                    .write("beta", site)
                )
                outcomes.append(sessions[site].submit(tx))
        cluster.run()
        cluster.settle(2_000.0)
    return {
        "now": cluster.sim.now,
        "events": cluster.sim.events_processed,
        "outcomes": [(tx.committed, tx.abort_reason, tx.decided_at) for tx in outcomes],
        "history": history.history().digest(),
    }


class TestIsolationParity:
    """Every isolation level behaves identically across backends.

    The relaxed-write machinery (slot contests, in-place replacement,
    watermark floors) lives in python above the kernel boundary, but it
    changes which engine requests are issued and when — so each level gets
    its own cross-backend digest check.
    """

    @pytest.mark.parametrize("level", ISOLATION_LEVELS)
    def test_history_digest_parity_per_level(self, level):
        python = _run_isolation_workload("python", level)
        compiled = _run_isolation_workload("compiled", level)
        assert python == compiled


class TestInstrumentedParity:
    """The flight recorder is the replay oracle: identical across backends."""

    def test_recorder_digest_parity(self):
        ops = [
            ("us_west", "alpha", 1),
            ("ireland", "beta", 2),
            ("us_west", "alpha", None),
            ("singapore", "gamma", 3),
            ("tokyo", "beta", None),
        ]
        python = _run_workload("python", seed=13, ops=ops, record=True)
        compiled = _run_workload("compiled", seed=13, ops=ops, record=True)
        assert python["obs"] == compiled["obs"]
        assert python == compiled


class TestFullProtocolParity:
    """One real paper point (f7) through the public sweep API."""

    def _run_f7(self, backend):
        from repro.experiments.f7_guess_vs_commit import SPEC

        recorder = obs.FlightRecorder(capacity=1_000_000)
        history = HistoryRecorder()
        with obs.session(recorder, history):
            result = SPEC.run(
                seed=11, scale=0.05, overrides={"engine.backend": backend}
            )
        assert recorder.evicted == 0
        assert len(recorder) > 100
        return {
            "result": result.to_dict(),
            "obs": recorder.digest(),
            "history": history.history().digest(),
        }

    def test_f7_byte_identical_digests(self):
        python = self._run_f7("python")
        compiled = self._run_f7("compiled")
        assert python["result"] == compiled["result"]
        assert python["obs"] == compiled["obs"]
        assert python["history"] == compiled["history"]
