"""ASCII CDF plots for experiment output.

The paper's latency figures are CDF curves; rendering them as text keeps
the reproduction's artefacts self-contained (no plotting dependencies) and
diffable.  :func:`render_cdfs` draws one or more named latency CDFs on a
shared log-ish x axis::

    1.00 |            ..**################
    0.75 |         .*#*
    0.50 |       .*#
    0.25 |      *#
    0.00 |______#________________________
         155 ms                    832 ms
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.stats.histogram import LatencyCdf

#: Marker characters assigned to series in order.
MARKERS = "#*o+x@"


def _series_points(cdf: LatencyCdf, n_points: int = 60) -> List[Tuple[float, float]]:
    return [(cdf.percentile(100.0 * i / n_points), i / n_points) for i in range(1, n_points + 1)]


def render_cdfs(
    series: Dict[str, LatencyCdf],
    width: int = 64,
    height: int = 16,
    x_label: str = "latency (ms)",
) -> str:
    """Plot the CDFs of one or more latency collections on a shared axis."""
    named = [(name, cdf) for name, cdf in series.items() if cdf.count > 0]
    if not named:
        return "(no samples)"
    x_min = min(cdf.percentile(1) for _, cdf in named)
    x_max = max(cdf.percentile(100) for _, cdf in named)
    if x_max <= x_min:
        x_max = x_min + 1.0

    grid = [[" "] * width for _ in range(height)]

    def column(x: float) -> int:
        return min(width - 1, max(0, int((x - x_min) / (x_max - x_min) * (width - 1))))

    def row(fraction: float) -> int:
        return min(height - 1, max(0, int((1.0 - fraction) * (height - 1))))

    for index, (name, cdf) in enumerate(named):
        marker = MARKERS[index % len(MARKERS)]
        for x, fraction in _series_points(cdf):
            grid[row(fraction)][column(x)] = marker

    lines = []
    for i, cells in enumerate(grid):
        fraction = 1.0 - i / (height - 1)
        prefix = f"{fraction:4.2f} |"
        lines.append(prefix + "".join(cells))
    axis = "     +" + "-" * width
    lines.append(axis)
    left = f"{x_min:.0f}"
    right = f"{x_max:.0f} {x_label}"
    pad = max(1, width - len(left) - len(right))
    lines.append("      " + left + " " * pad + right)
    legend = "   ".join(
        f"{MARKERS[i % len(MARKERS)]} {name}" for i, (name, _) in enumerate(named)
    )
    lines.append("      " + legend)
    return "\n".join(lines)
