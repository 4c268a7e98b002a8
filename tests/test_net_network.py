"""Unit tests for message delivery."""

from __future__ import annotations

from dataclasses import dataclass

import pytest

from repro.net.latency import LatencyModel
from repro.net.messages import Message
from repro.net.network import Network, NetworkNode
from repro.net.partitions import PartitionWindow
from repro.net.topology import EC2_FIVE_DC
from repro.sim.kernel import Simulator


@dataclass
class Ping(Message):
    payload: str = ""


class Recorder(NetworkNode):
    def __init__(self, node_id, datacenter):
        super().__init__(node_id, datacenter)
        self.received = []

    def receive(self, message):
        self.received.append(message)


@pytest.fixture
def net():
    sim = Simulator(seed=0)
    network = Network(sim, EC2_FIVE_DC, latency=LatencyModel(EC2_FIVE_DC, jitter_sigma=0.0))
    a = Recorder("a", EC2_FIVE_DC.datacenter("us_west"))
    b = Recorder("b", EC2_FIVE_DC.datacenter("us_east"))
    network.register(a)
    network.register(b)
    return sim, network, a, b


class TestDelivery:
    def test_message_arrives_after_one_way_latency(self, net):
        sim, network, a, b = net
        a.send("b", Ping(payload="hi"))
        sim.run()
        assert len(b.received) == 1
        assert b.received[0].payload == "hi"
        assert sim.now == 37.5  # half of the 75ms RTT

    def test_message_stamped_with_sender_and_time(self, net):
        sim, network, a, b = net
        a.send("b", Ping())
        sim.run()
        message = b.received[0]
        assert message.sender == "a"
        assert message.recipient == "b"
        assert message.sent_at == 0.0

    def test_counters(self, net):
        sim, network, a, b = net
        a.send("b", Ping())
        b.send("a", Ping())
        sim.run()
        assert network.messages_sent == 2
        assert network.messages_delivered == 2
        assert network.messages_dropped == 0

    def test_unattached_node_cannot_send(self):
        node = Recorder("x", EC2_FIVE_DC.datacenter("us_west"))
        with pytest.raises(RuntimeError):
            node.send("y", Ping())

    def test_duplicate_registration_rejected(self, net):
        sim, network, a, b = net
        with pytest.raises(ValueError):
            network.register(Recorder("a", EC2_FIVE_DC.datacenter("tokyo")))

    def test_node_lookup_and_contains(self, net):
        _, network, a, _ = net
        assert network.node("a") is a
        assert "a" in network
        assert "zzz" not in network

    def test_message_kind(self):
        assert Ping().kind == "Ping"


class TestLoss:
    def test_loss_probability_drops_messages(self):
        sim = Simulator(seed=1)
        network = Network(
            sim, EC2_FIVE_DC,
            latency=LatencyModel(EC2_FIVE_DC, jitter_sigma=0.0),
            loss_probability=0.5,
        )
        a = Recorder("a", EC2_FIVE_DC.datacenter("us_west"))
        b = Recorder("b", EC2_FIVE_DC.datacenter("us_east"))
        network.register(a)
        network.register(b)
        for _ in range(1000):
            a.send("b", Ping())
        sim.run()
        assert 350 < len(b.received) < 650
        assert network.messages_dropped == 1000 - len(b.received)

    def test_invalid_loss_probability(self):
        sim = Simulator(seed=0)
        with pytest.raises(ValueError):
            Network(sim, EC2_FIVE_DC, loss_probability=1.0)


class TestPartitions:
    def test_partition_drops_cross_dc_messages(self, net):
        sim, network, a, b = net
        network.partitions.add_window(
            PartitionWindow(start_ms=0.0, end_ms=100.0, dc_name="us_east")
        )
        a.send("b", Ping())
        sim.run()
        assert b.received == []
        assert network.messages_dropped == 1

    def test_partition_window_expires(self, net):
        sim, network, a, b = net
        network.partitions.add_window(
            PartitionWindow(start_ms=0.0, end_ms=100.0, dc_name="us_east")
        )
        sim.schedule(150.0, a.send, "b", Ping())
        sim.run()
        assert len(b.received) == 1

    def test_partition_spares_other_links(self, net):
        sim, network, a, b = net
        c = Recorder("c", EC2_FIVE_DC.datacenter("tokyo"))
        network.register(c)
        network.partitions.add_window(
            PartitionWindow(start_ms=0.0, end_ms=100.0, dc_name="us_east")
        )
        a.send("c", Ping())
        sim.run()
        assert len(c.received) == 1

    def test_intra_dc_traffic_survives_partition(self, net):
        sim, network, a, b = net
        a2 = Recorder("a2", EC2_FIVE_DC.datacenter("us_west"))
        network.register(a2)
        network.partitions.add_window(
            PartitionWindow(start_ms=0.0, end_ms=100.0, dc_name="us_west")
        )
        a.send("a2", Ping())
        sim.run()
        assert len(a2.received) == 1

    def test_link_specific_partition(self, net):
        sim, network, a, b = net
        c = Recorder("c", EC2_FIVE_DC.datacenter("tokyo"))
        network.register(c)
        network.partitions.add_window(
            PartitionWindow(0.0, 100.0, dc_name="us_west", peer_name="us_east")
        )
        a.send("b", Ping())
        a.send("c", Ping())
        sim.run()
        assert b.received == []
        assert len(c.received) == 1
