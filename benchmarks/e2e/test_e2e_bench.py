"""Self-tests of the benchmark, at a tiny ``--scale`` that exists for them.

Run with ``python -m pytest benchmarks/e2e -q``; tier-1 (``testpaths =
["tests"]``) does not collect this file.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = ("--scale", "0.05", "--seconds", "0")


def bench(*args: str, script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(script), *args], capture_output=True, text=True, timeout=600
    )


def run_all(out: Path, seed: int) -> dict:
    proc = bench("--seed", str(seed), "--out", str(out), *TINY)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    document = json.loads((out / "results.json").read_text())
    document["stdout"] = proc.stdout
    return document


@pytest.fixture(scope="module")
def seed0(tmp_path_factory) -> dict:
    return run_all(tmp_path_factory.mktemp("seed0"), 0)


def test_every_workload_emits_every_metric(seed0):
    assert list(seed0["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for name, result in seed0["workloads"].items():
        assert result["correct"] and result["failed"] == 0, (name, result["problems"])
        assert result["per_layer"]["failed_share"]["value"] == 0
        for section in ("end_to_end", "per_layer"):
            assert list(result[section]) == [m["name"] for m in SPEC[section]]
            for metric in SPEC[section]:
                entry = result[section][metric["name"]]
                assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"])
                assert entry["unit"] == metric["unit"]
                assert isinstance(entry["value"], (int, float))
                assert f" {metric['name']} " in seed0["stdout"]
        assert all(entry["value"] > 0 for entry in result["end_to_end"].values())


def test_layer_shares_sum_to_one(seed0):
    for name, result in seed0["workloads"].items():
        layers = result["per_layer"]
        shares = [e["value"] for metric, e in layers.items() if metric.endswith(".share")]
        assert sum(shares) == pytest.approx(1.0, abs=0.02), name
        assert layers["other.share"]["value"] < 0.02, name
    twopc = seed0["workloads"]["twopc_commit"]["per_layer"]
    assert twopc["paxos.share"]["value"] + twopc["mdcc.share"]["value"] < 0.01
    assert seed0["workloads"]["mdcc_commit"]["per_layer"]["baselines.share"]["value"] < 0.01


def test_compiled_twin_matches(seed0):
    runs = seed0["workloads"]
    assert runs["mdcc_commit_ck"]["backend"] == "compiled"
    assert runs["mdcc_commit_ck"]["digest"] == runs["mdcc_commit"]["digest"]


@pytest.mark.parametrize("workload", ["planet_hot", "faults_checked"])
def test_counts_repeat_for_a_seed(seed0, workload, tmp_path):
    """Also the driver's contract: one workload, one mode, one JSON line."""
    proc = bench("--workload", workload, "--seed", "0", "--trace", "1",
                 "--out", str(tmp_path), *TINY)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["attempted"] >= 1 and line["failed"] == 0
    assert list(line["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    before = seed0["workloads"][workload]["per_layer"]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert counts
    for metric in counts:
        assert line["metrics"][metric]["value"] == before[metric]["value"], metric
    assert (tmp_path / f"{workload}.trace.json").exists()


def test_another_seed_changes_the_digests(seed0, tmp_path):
    seed1 = run_all(tmp_path, 1)
    for name, result in seed1["workloads"].items():
        assert result["digest"] != seed0["workloads"][name]["digest"], name


def test_agree(seed0, tmp_path):
    document = {k: v for k, v in seed0.items() if k != "stdout"}
    same = tmp_path / "same.json"
    same.write_text(json.dumps(document))
    proc = bench("agree", str(same), str(same))
    assert proc.returncode == 0, proc.stdout
    assert "regression" not in proc.stdout and " ok" in proc.stdout

    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "wall_s")
    wall = document["workloads"]["twopc_commit"]["end_to_end"]["wall_s"]
    for key in ("value", "min", "max"):
        wall[key] *= 1 + bound + 0.05
    slower = tmp_path / "slower.json"
    slower.write_text(json.dumps(document))
    proc = bench("agree", str(same), str(slower))
    assert proc.returncode != 0
    rows = [row for row in proc.stdout.splitlines() if "regression" in row]
    assert len(rows) == 1 and rows[0].split()[:2] == ["twopc_commit", "wall_s"]


def test_refuses_to_run_without_the_source_tree(tmp_path):
    """The driver also runs the command where only the benchmark exists."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns(".build", "out", "__pycache__"))
    proc = bench("--workload", "mdcc_commit", "--seed", "0", "--seconds", "1", "--trace", "0",
                 script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
