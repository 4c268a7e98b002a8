"""Network partitions: temporarily unreachable data centers.

A partition drops (rather than delays) messages, modelling the "fail
unexpectedly" part of the paper's motivation.  Partitions are scheduled as
half-open windows, like latency degradations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.net.topology import Datacenter


@dataclass(frozen=True)
class PartitionWindow:
    """During ``[start_ms, end_ms)``, ``dc_name`` is cut off from everyone.

    If ``peer_name`` is given, only the (dc, peer) link is cut.
    """

    start_ms: float
    end_ms: float
    dc_name: str
    peer_name: Optional[str] = None

    def drops(self, now: float, src: Datacenter, dst: Datacenter) -> bool:
        if not (self.start_ms <= now < self.end_ms):
            return False
        src_name, dst_name = src.name, dst.name
        if src_name == dst_name:
            return False  # intra-DC traffic always survives
        if self.dc_name != src_name and self.dc_name != dst_name:
            return False
        peer = self.peer_name
        return peer is None or peer == src_name or peer == dst_name


@dataclass(frozen=True)
class LossWindow:
    """During ``[start_ms, end_ms)``, inter-DC messages drop with ``rate``.

    If ``dc_name`` is given, only links touching that DC are lossy.
    Intra-DC traffic is never affected: a loss window models a flaky
    wide-area path, not a broken rack, and (deliberately) cannot hide a
    coordinator's decision from its *local* replica — which keeps the
    consistency checker's invariants decidable under loss campaigns.
    """

    start_ms: float
    end_ms: float
    rate: float
    dc_name: Optional[str] = None

    def applies(self, now: float, src: Datacenter, dst: Datacenter) -> bool:
        if not (self.start_ms <= now < self.end_ms):
            return False
        if src.name == dst.name:
            return False
        if self.dc_name is not None and self.dc_name not in (src.name, dst.name):
            return False
        return True


class PartitionManager:
    """Holds the partition schedule and answers "does this message die?"."""

    def __init__(self) -> None:
        self._windows: List[PartitionWindow] = []
        # Every window has closed at and after this time; fault runs spend
        # most of their sends in the recovery tail past the last window.
        self._until = -math.inf

    def add_window(self, window: PartitionWindow) -> None:
        self._windows.append(window)
        self._until = max(self._until, window.end_ms)

    def clear(self) -> None:
        self._windows.clear()
        self._until = -math.inf

    def drops(self, now: float, src: Datacenter, dst: Datacenter) -> bool:
        if now >= self._until:
            return False
        for window in self._windows:
            if window.drops(now, src, dst):
                return True
        return False
