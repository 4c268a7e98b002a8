"""Message delivery between simulated nodes."""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.net.latency import LatencyModel
from repro.net.messages import Message
from repro.net.partitions import LossWindow, PartitionManager
from repro.net.topology import Datacenter, Topology
from repro.sim.kernel import Simulator

try:  # the compiled quiet-path sender (optional; see repro.engine)
    from repro import _ckernel
except ImportError:  # pragma: no cover - toolchain-less checkout
    _ckernel = None


class NetworkNode:
    """Anything that can receive messages: storage node, coordinator, client.

    Subclasses override :meth:`receive`.  Nodes register with the
    :class:`Network` which assigns delivery.
    """

    def __init__(self, node_id: str, datacenter: Datacenter) -> None:
        self.node_id = node_id
        self.datacenter = datacenter
        self.network: Optional["Network"] = None

    def receive(self, message: Message) -> None:
        raise NotImplementedError

    def send(self, recipient_id: str, message: Message) -> None:
        if self.network is None:
            raise RuntimeError(f"node {self.node_id} is not attached to a network")
        self.network.send(self.node_id, recipient_id, message)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.node_id}@{self.datacenter.name}>"


class Network:
    """Routes messages between registered nodes with sampled latency.

    Message loss comes from two sources: a uniform ``loss_probability`` and
    the :class:`PartitionManager` schedule.  Lost messages vanish silently —
    exactly what a sender experiences in a real deployment; protocol layers
    must use timeouts.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        latency: Optional[LatencyModel] = None,
        loss_probability: float = 0.0,
    ) -> None:
        if not 0.0 <= loss_probability < 1.0:
            raise ValueError("loss_probability must be in [0, 1)")
        self.sim = sim
        self.topology = topology
        self.latency = latency if latency is not None else LatencyModel(topology)
        self.loss_probability = loss_probability
        self.partitions = PartitionManager()
        self._loss_windows: list = []
        self._loss_until = -math.inf  # every loss window has closed by then
        self._nodes: Dict[str, NetworkNode] = {}
        self._rng = sim.rng.stream("network")
        self.messages_sent = 0
        self.messages_delivered = 0
        self.messages_dropped = 0
        # The compiled quiet-path sender: when the simulator kernel is
        # compiled, bind the C fast path over this instance's ``send``.
        # It handles only the fully-quiet case (no metrics/tracer/
        # partitions/loss) and delegates everything else back to the
        # python method — observable behaviour is byte-identical either way.
        self._csender = None
        if _ckernel is not None and isinstance(sim, _ckernel.SimulatorBase):
            self._csender = _ckernel.NetSender(self, type(self).send.__get__(self))
            self.send = self._csender  # instance attr shadows the method

    # ------------------------------------------------------------------
    def register(self, node: NetworkNode) -> NetworkNode:
        if node.node_id in self._nodes:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        self._nodes[node.node_id] = node
        node.network = self
        return node

    def add_loss_window(self, window: LossWindow) -> None:
        """Schedule a timed burst of inter-DC message loss."""
        self._loss_windows.append(window)
        self._loss_until = max(self._loss_until, window.end_ms)

    def node(self, node_id: str) -> NetworkNode:
        return self._nodes[node_id]

    def __contains__(self, node_id: str) -> bool:
        return node_id in self._nodes

    # ------------------------------------------------------------------
    def send(self, sender_id: str, recipient_id: str, message: Message) -> None:
        """Send ``message``; it is delivered later (or dropped) by the kernel.

        The fully-disabled path (no metrics, no tracer, no partitions, no
        loss) allocates nothing beyond the delivery event itself.
        """
        sim = self.sim
        now = sim.now
        sender = self._nodes[sender_id]
        recipient = self._nodes[recipient_id]
        message.sender = sender_id
        message.recipient = recipient_id
        message.sent_at = now
        self.messages_sent += 1
        tracer = sim.tracer
        metrics = sim.metrics
        if metrics.enabled:
            kind = message.kind
            metrics.inc("net.messages_sent", kind=kind)
            metrics.inc("net.bytes_sent", message.approx_size_bytes(), kind=kind)

        if self.partitions.drops(now, sender.datacenter, recipient.datacenter):
            self.messages_dropped += 1
            if metrics.enabled:
                metrics.inc("net.messages_dropped", cause="partition")
            if "message" in tracer.live:
                tracer.emit(
                    now, "message", "drop",
                    kind=message.kind, src=sender_id, dst=recipient_id, cause="partition",
                )
            return
        loss = self.loss_probability
        if now < self._loss_until:
            for window in self._loss_windows:
                if window.rate > loss and window.applies(
                    now, sender.datacenter, recipient.datacenter
                ):
                    loss = window.rate
        # A single rng draw per potentially-lossy send keeps the "network"
        # stream identical between a run with no windows and the historical
        # zero-loss fast path.
        if loss > 0 and self._rng.random() < loss:
            self.messages_dropped += 1
            if metrics.enabled:
                metrics.inc("net.messages_dropped", cause="loss")
            if "message" in tracer.live:
                tracer.emit(
                    now, "message", "drop",
                    kind=message.kind, src=sender_id, dst=recipient_id, cause="loss",
                )
            return

        delay = self.latency.sample_ms(
            sender.datacenter, recipient.datacenter, now, self._rng
        )
        if "message" in tracer.live:
            tracer.emit(
                now, "message", "send",
                kind=message.kind, src=sender_id, dst=recipient_id, delay_ms=delay,
            )
        sim.schedule(delay, self._deliver, recipient_id, message)

    def _deliver(self, recipient_id: str, message: Message) -> None:
        sim = self.sim
        node = self._nodes.get(recipient_id)
        if node is None:  # node may have been torn down mid-flight
            self.messages_dropped += 1
            metrics = sim.metrics
            if metrics.enabled:
                metrics.inc("net.messages_dropped", cause="gone")
            tracer = sim.tracer
            if "message" in tracer.live:
                tracer.emit(
                    sim.now, "message", "drop",
                    kind=message.kind, src=message.sender, dst=recipient_id, cause="gone",
                )
            return
        self.messages_delivered += 1
        metrics = sim.metrics
        if metrics.enabled:
            kind = message.kind
            metrics.inc("net.messages_delivered", kind=kind)
            metrics.observe("net.flight_ms", sim.now - message.sent_at, kind=kind)
        tracer = sim.tracer
        if "message" in tracer.live:
            # One completed span per delivered message: its wide-area flight.
            tracer.span(
                message.sent_at, sim.now, "message", message.kind,
                track=f"net:{recipient_id}", src=message.sender, dst=recipient_id,
            )
        node.receive(message)
