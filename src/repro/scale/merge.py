"""Deterministic cross-shard reduce of per-shard rows.

Per-shard rows travel through the sweep executor as JSON-safe dicts, so
the latency rollup cannot be a full-sample CDF (a million samples per
shard would dwarf the row).  Instead every shard bins its commit
latencies into one **fixed log-spaced histogram** (`LOG_BINS`); merged
percentiles interpolate inside bins, preserving the distribution's
shape — tails and all — which Huang et al. argue matters more than the
mean.

Everything here is order-stable: rows are re-sorted by shard index,
counters fold with sorted keys, and the merged history digest hashes the
per-shard digests (each a :meth:`repro.check.history.History.digest`
over the shard's raw, run-scoped ids) in shard order.  Shuffling
the input rows — or producing them on any ``--jobs`` count — cannot
change a byte of the output.
"""

from __future__ import annotations

import hashlib
import math
from typing import Any, Dict, List, Sequence, Tuple

from repro.scale.crossshard import XTx, check_cross_shard

# ----------------------------------------------------------------------
# Fixed log-spaced latency bins (ms).
# ----------------------------------------------------------------------
#: Bin edges: 0.1ms .. ~10^5 ms, 12 bins per decade; values outside land
#: in the open first/last bins.  Fixed so histograms from any run merge.
_EDGE_LO_MS = 0.1
_EDGE_HI_MS = 100_000.0
_BINS_PER_DECADE = 12
N_BINS = int(round(math.log10(_EDGE_HI_MS / _EDGE_LO_MS) * _BINS_PER_DECADE)) + 2

_LOG_LO = math.log10(_EDGE_LO_MS)


def bin_index(value_ms: float) -> int:
    """The fixed bin a latency sample falls into."""
    if not value_ms > _EDGE_LO_MS:
        return 0
    index = 1 + int((math.log10(value_ms) - _LOG_LO) * _BINS_PER_DECADE)
    return min(index, N_BINS - 1)


def bin_edges(index: int) -> Tuple[float, float]:
    """The (low, high) edge of a bin; open ends clamp to 0 / +edge."""
    if index <= 0:
        return (0.0, _EDGE_LO_MS)
    low = 10.0 ** (_LOG_LO + (index - 1) / _BINS_PER_DECADE)
    high = 10.0 ** (_LOG_LO + index / _BINS_PER_DECADE)
    return (low, high)


def bin_counts(values: Sequence[float]) -> List[int]:
    counts = [0] * N_BINS
    for value in values:
        counts[bin_index(value)] += 1
    return counts


def merge_counts(histograms: Sequence[Sequence[int]]) -> List[int]:
    merged = [0] * N_BINS
    for counts in histograms:
        if len(counts) != N_BINS:
            raise ValueError(
                f"histogram has {len(counts)} bins, expected {N_BINS}"
            )
        for index, count in enumerate(counts):
            merged[index] += count
    return merged


def percentile_from_counts(counts: Sequence[int], p: float) -> float:
    """Percentile estimate with linear interpolation inside the bin."""
    total = sum(counts)
    if total == 0:
        return math.nan
    target = (p / 100.0) * total
    cumulative = 0
    for index, count in enumerate(counts):
        if count == 0:
            continue
        if cumulative + count >= target:
            low, high = bin_edges(index)
            fraction = (target - cumulative) / count
            return low + (high - low) * fraction
        cumulative += count
    low, high = bin_edges(N_BINS - 1)
    return high


# ----------------------------------------------------------------------
# The cross-shard reduce.
# ----------------------------------------------------------------------
#: Per-shard row counters summed into the merged totals.
_SUMMED_COUNTS = (
    "arrivals", "submitted", "committed", "aborted", "guesses",
    "wrong_guesses", "population",
)


def merge_shards(rows: List[Dict[str, Any]], plan: List[XTx]) -> Dict[str, Any]:
    """Fold per-shard rows into one deterministic cross-shard summary.

    ``rows`` may arrive in any order; they are re-sorted by their
    ``shard`` index first, so the merge is a pure function of the row
    *set*.  Returns a JSON-safe dict with summed counters, the merged
    latency histogram (+ interpolated percentiles), a sorted metrics
    rollup, the merged history digest, and the cross-shard decisions
    with any atomicity violations.
    """
    ordered = sorted(rows, key=lambda row: int(row["shard"]))
    indices = [int(row["shard"]) for row in ordered]
    if len(set(indices)) != len(indices):
        raise ValueError(f"duplicate shard rows: {indices}")

    totals: Dict[str, int] = {name: 0 for name in _SUMMED_COUNTS}
    for row in ordered:
        for name in _SUMMED_COUNTS:
            totals[name] += int(row.get(name, 0))

    latency_bins = merge_counts([row["commit_latency_bins"] for row in ordered])
    latency = {
        "count": sum(latency_bins),
        "p50_ms": percentile_from_counts(latency_bins, 50),
        "p95_ms": percentile_from_counts(latency_bins, 95),
        "p99_ms": percentile_from_counts(latency_bins, 99),
    }

    # Metrics rollup: counters sum across shards, sorted keys — stable.
    counters: Dict[str, float] = {}
    for row in ordered:
        for key, value in row.get("metrics", {}).get("counters", {}).items():
            counters[key] = counters.get(key, 0) + value
    metrics = {"counters": {key: counters[key] for key in sorted(counters)}}

    # Merged history digest: per-shard digests in shard order.  One byte of
    # any shard's history changes this.
    hasher = hashlib.sha256()
    for row in ordered:
        hasher.update(f"{int(row['shard']):04d}|{row['history_digest']}\n".encode())
    history_digest = hasher.hexdigest()

    votes_by_shard = {
        int(row["shard"]): list(row.get("xshard_votes", [])) for row in ordered
    }
    decisions, xshard_violations = check_cross_shard(plan, votes_by_shard)
    shard_violations = [
        violation for row in ordered for violation in row.get("violations", [])
    ]

    return {
        "shards": len(ordered),
        "totals": totals,
        "commit_latency_bins": latency_bins,
        "commit_latency": latency,
        "metrics": metrics,
        "history_digest": history_digest,
        "xshard_decisions": {gid: decisions[gid] for gid in sorted(decisions)},
        "xshard_commits": sum(1 for d in decisions.values() if d == "commit"),
        "xshard_aborts": sum(1 for d in decisions.values() if d == "abort"),
        "xshard_violations": [v.to_dict() for v in xshard_violations],
        "shard_violations": shard_violations,
    }
