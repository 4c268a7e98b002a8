"""Per-message latency sampling, with injectable degradation windows.

The base one-way latency between two data centers is half the topology RTT.
Each message additionally draws multiplicative lognormal jitter, so the
distribution has the heavy right tail that makes commit latency in wide-area
systems *unpredictable* — the very problem PLANET addresses.

Degradation windows model the paper's "load spikes / communication cost"
scenarios: during ``[start_ms, end_ms)`` messages on the selected links are
slowed by a multiplier and/or an additive delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import List, Optional

from repro.net.topology import Datacenter, Topology


@dataclass(frozen=True)
class DegradationWindow:
    """A latency disturbance active during ``[start_ms, end_ms)``.

    ``src_name``/``dst_name`` of ``None`` match any data center; a window with
    both None degrades every link (a global event such as coordinator-side
    overload).  Matching is direction-insensitive: a window on (A, B) also
    slows (B, A).
    """

    start_ms: float
    end_ms: float
    multiplier: float = 1.0
    extra_ms: float = 0.0
    src_name: Optional[str] = None
    dst_name: Optional[str] = None

    def active(self, now: float) -> bool:
        return self.start_ms <= now < self.end_ms

    def matches(self, src: Datacenter, dst: Datacenter) -> bool:
        names = {src.name, dst.name}
        for endpoint in (self.src_name, self.dst_name):
            if endpoint is not None and endpoint not in names:
                return False
        return True


class LatencyModel:
    """Samples one-way message latencies.

    ``jitter_sigma`` is the sigma of the lognormal multiplier (mean-one), so
    ``0`` gives deterministic latencies and ~0.2 gives a realistic wide-area
    tail.  ``min_latency_ms`` floors every sample (a message is never faster
    than the speed of light on the link).
    """

    def __init__(
        self,
        topology: Topology,
        jitter_sigma: float = 0.2,
        min_latency_ms: float = 0.1,
    ) -> None:
        if jitter_sigma < 0:
            raise ValueError("jitter_sigma must be >= 0")
        self.topology = topology
        self.jitter_sigma = jitter_sigma
        self.min_latency_ms = min_latency_ms
        self._windows: List[DegradationWindow] = []
        self._windows_until = -math.inf  # every window has closed by then
        # E[lognormal(mu, sigma)] = exp(mu + sigma^2/2); choose mu so mean == 1.
        self._jitter_mu = -0.5 * jitter_sigma * jitter_sigma
        # Base one-way latency per (src, dst) index pair.  The topology is
        # immutable for the model's lifetime, so the division in
        # ``one_way_ms`` needs to happen once per link, not once per message.
        self._base_one_way: dict = {}

    # ------------------------------------------------------------------
    def add_window(self, window: DegradationWindow) -> None:
        """Register a degradation window (spike) for later simulated times."""
        self._windows.append(window)
        self._windows_until = max(self._windows_until, window.end_ms)

    def clear_windows(self) -> None:
        self._windows.clear()
        self._windows_until = -math.inf

    def active_windows(self, now: float, src: Datacenter, dst: Datacenter):
        return [w for w in self._windows if w.active(now) and w.matches(src, dst)]

    # ------------------------------------------------------------------
    def sample_ms(self, src: Datacenter, dst: Datacenter, now: float, rng: Random) -> float:
        """One-way latency for a message sent now from ``src`` to ``dst``."""
        key = (src.index, dst.index)
        base = self._base_one_way.get(key)
        if base is None:
            base = self._base_one_way[key] = self.topology.one_way_ms(src, dst)
        if self.jitter_sigma > 0:
            base *= math.exp(rng.gauss(self._jitter_mu, self.jitter_sigma))
        if now < self._windows_until:
            for window in self._windows:
                if window.active(now) and window.matches(src, dst):
                    base = base * window.multiplier + window.extra_ms
        return max(base, self.min_latency_ms)

    def mean_ms(self, src: Datacenter, dst: Datacenter) -> float:
        """Mean undisturbed one-way latency (the jitter is mean-one)."""
        return max(self.topology.one_way_ms(src, dst), self.min_latency_ms)


def _norm_ppf(q: float) -> float:
    """Standard normal inverse CDF (Acklam's rational approximation).

    Accurate to ~1e-9 over (0, 1); avoids importing scipy for one function.
    """
    a = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
    b = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00)
    p_low = 0.02425
    if q < p_low:
        u = math.sqrt(-2.0 * math.log(q))
        return (((((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]) * u + c[5]) / (
            (((d[0] * u + d[1]) * u + d[2]) * u + d[3]) * u + 1.0
        )
    if q > 1.0 - p_low:
        u = math.sqrt(-2.0 * math.log(1.0 - q))
        return -(((((c[0] * u + c[1]) * u + c[2]) * u + c[3]) * u + c[4]) * u + c[5]) / (
            (((d[0] * u + d[1]) * u + d[2]) * u + d[3]) * u + 1.0
        )
    u = q - 0.5
    t = u * u
    return (((((a[0] * t + a[1]) * t + a[2]) * t + a[3]) * t + a[4]) * t + a[5]) * u / (
        ((((b[0] * t + b[1]) * t + b[2]) * t + b[3]) * t + b[4]) * t + 1.0
    )
