"""Shared plumbing for the benchmark suite.

Each benchmark regenerates one paper figure/table via its experiment driver
(`repro.experiments.*`) at a reduced scale, asserts the figure's *shape*
checks (who wins, by roughly what factor), and reports the driver's runtime
through pytest-benchmark.  Run the full-scale reproduction with
``python -m repro run <id>`` instead.
"""

from __future__ import annotations

import pytest

#: Scale factor applied to every experiment's duration/samples in benchmarks.
BENCH_SCALE = 0.3


def pytest_collection_modifyitems(items):
    """Everything in benchmarks/ carries the ``benchmarks`` marker, so the
    tier-1 ``pytest`` run (testpaths=["tests"]) can also exclude it by
    marker when invoked with explicit paths: ``-m "not benchmarks"``."""
    for item in items:
        item.add_marker(pytest.mark.benchmarks)


def run_and_check(benchmark, experiment_module, scale: float = BENCH_SCALE, seed: int = 0):
    """Benchmark one experiment driver and assert its shape checks.

    Runs through the registered spec — the registry/sweep path the CLI
    uses, and since the pre-registry ``run()`` wrappers were removed, the
    only driver API.
    """
    result = benchmark.pedantic(
        experiment_module.SPEC.run,
        kwargs={"seed": seed, "scale": scale}, rounds=1, iterations=1,
    )
    failures = [str(check) for check in result.checks if not check.passed]
    assert not failures, "shape checks failed:\n" + "\n".join(failures)
    return result
