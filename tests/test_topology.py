"""Dumbbell topology: RTT normalisation, link serialisation, external loss."""

import typing

import pytest

from repro import units
from repro.config import NetworkConfig, highly_constrained
from repro.netsim.engine import CalendarEngine
from repro.netsim.link import BottleneckLink
from repro.netsim.topology import Dumbbell, Path
from repro.netsim.packet import Packet


class SinkFlow:
    def __init__(self, service_id="svc"):
        self.service_id = service_id
        self.arrivals = []
        self.drops = []

    def on_packet_arrived(self, pkt):
        self.arrivals.append(pkt)

    def on_packet_dropped(self, pkt):
        self.drops.append(pkt)


class TestRttNormalisation:
    def test_path_rtt_matches_target(self):
        bell = Dumbbell(highly_constrained())
        path = bell.path_for_service("svc")
        # Within the <1% residual jitter the live testbed also shows.
        assert abs(path.base_rtt_usec - units.msec(50)) < units.msec(0.5)

    def test_native_rtt_padded_to_target(self):
        bell = Dumbbell(highly_constrained())
        path = bell.path_for_service("near", native_rtt_usec=units.msec(10))
        # Delay can only be added; the normalised RTT is still ~50 ms.
        assert abs(path.base_rtt_usec - units.msec(50)) < units.msec(0.5)

    def test_rtt_jitter_is_seeded(self):
        a = Dumbbell(highly_constrained(), seed=1).path_for_service("svc")
        b = Dumbbell(highly_constrained(), seed=1).path_for_service("svc")
        c = Dumbbell(highly_constrained(), seed=2).path_for_service("svc")
        assert a.base_rtt_usec == b.base_rtt_usec
        assert a.base_rtt_usec != c.base_rtt_usec

    def test_native_rtt_above_target_rejected(self):
        bell = Dumbbell(highly_constrained())
        with pytest.raises(ValueError):
            bell.path_for_service("far", native_rtt_usec=units.msec(80))

    def test_path_cached_per_service(self):
        bell = Dumbbell(highly_constrained())
        assert bell.path_for_service("x") is bell.path_for_service("x")


class TestDelivery:
    def test_one_packet_end_to_end_latency(self):
        bell = Dumbbell(highly_constrained())
        path = bell.path_for_service("svc")
        flow = SinkFlow()
        pkt = Packet(flow, 0, 1500, 0)
        path.transmit(pkt)
        bell.run(units.seconds(1))
        assert len(flow.arrivals) == 1
        # Nothing records unless a recorder is attached.
        assert bell.link.trace is None
        assert bell.link.probe._subscribers == []
        # An uncontended packet starts serialising the instant it arrives.
        assert pkt.arrival_time == path.pre_delay_usec
        assert pkt.queueing_delay_usec == 0

    def test_fifo_across_services(self):
        """Delivery order matches bottleneck arrival order exactly."""
        bell = Dumbbell(highly_constrained())
        a = bell.path_for_service("a")
        b = bell.path_for_service("b")
        fa, fb = SinkFlow("a"), SinkFlow("b")
        delivered = []
        fa.on_packet_arrived = lambda p: delivered.append(p)
        fb.on_packet_arrived = lambda p: delivered.append(p)
        packets = [
            Packet(fa, 0, 1500, 0),
            Packet(fb, 0, 1500, 0),
            Packet(fa, 1, 1500, 0),
            Packet(fb, 1, 1500, 0),
        ]
        a.transmit(packets[0])
        b.transmit(packets[1])
        a.transmit(packets[2])
        b.transmit(packets[3])
        bell.run(units.seconds(1))
        arrival_order = sorted(packets, key=lambda p: p.arrival_time)
        assert delivered == arrival_order

    def test_delivered_bytes_accounting(self):
        bell = Dumbbell(highly_constrained())
        path = bell.path_for_service("svc")
        flow = SinkFlow()
        for i in range(5):
            path.transmit(Packet(flow, i, 1500, 0))
        bell.run(units.seconds(1))
        assert bell.link.delivered_bytes["svc"] == 7500

    def test_utilization(self):
        net = NetworkConfig(bandwidth_bps=units.mbps(8))
        bell = Dumbbell(net)
        path = bell.path_for_service("svc")
        flow = SinkFlow()
        # 100 packets = 1.2 Mbit; at 8 Mbps that is 150 ms of capacity.
        for i in range(100):
            path.transmit(Packet(flow, i, 1500, 0))
        bell.run(units.seconds(1))
        bell.link.reset_stats()
        assert bell.link.utilization(units.seconds(1)) == 0.0


class TestExternalLoss:
    def test_no_loss_by_default(self):
        bell = Dumbbell(highly_constrained())
        path = bell.path_for_service("svc")
        flow = SinkFlow()
        for i in range(200):
            path.transmit(Packet(flow, i, 1500, 0))
        bell.run(units.seconds(5))
        assert path.external_losses == 0
        assert bell.external_loss_fraction() == 0.0

    def test_injected_loss_drops_upstream(self):
        net = NetworkConfig(
            bandwidth_bps=units.mbps(8),
            external_loss_rate=0.5,
            queue_packets_override=1000,
        )
        bell = Dumbbell(net, seed=42)
        path = bell.path_for_service("svc")
        flow = SinkFlow()
        for i in range(400):
            path.transmit(Packet(flow, i, 1500, 0))
        bell.run(units.seconds(10))
        assert 0.3 < path.external_loss_fraction < 0.7
        # Survivors all fit in the (oversized) queue and get delivered.
        assert len(flow.arrivals) == 400 - path.external_losses

    def test_reverse_path_delay(self):
        bell = Dumbbell(highly_constrained())
        path = bell.path_for_service("svc")
        stamps = []
        path.send_reverse(lambda: stamps.append(bell.engine.now))
        bell.run(units.seconds(1))
        # Reverse delivery = reverse delay plus the anti-phase-effect
        # dither of at most one packet service time (1500 us at 8 Mbps).
        assert len(stamps) == 1
        assert path.rev_delay_usec <= stamps[0] <= path.rev_delay_usec + 1500


@pytest.mark.parametrize(
    "cls", [Dumbbell, Path, BottleneckLink], ids=lambda cls: cls.__name__
)
def test_engine_annotations_resolve_to_the_one_engine(cls):
    assert typing.get_type_hints(cls.__init__)["engine"] in (
        CalendarEngine, typing.Optional[CalendarEngine]
    )
