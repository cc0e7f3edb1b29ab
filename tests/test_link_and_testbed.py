"""BottleneckLink accounting and Testbed windowing semantics."""

import pytest

from repro import units
from repro.config import ExperimentConfig, NetworkConfig, highly_constrained
from repro.core.testbed import Testbed
from repro.netsim.link import BottleneckLink
from repro.netsim.engine import CalendarEngine
from repro.netsim.packet import Packet
from repro.netsim.queue import DropTailQueue
from repro.services.base import Service, mbps_received
from repro.services.iperf import IperfService
from repro.cca.reno import NewReno


class SinkFlow:
    def __init__(self, service_id="svc"):
        self.service_id = service_id
        self.arrived = []

    def on_packet_arrived(self, pkt):
        self.arrived.append(pkt)

    def on_packet_dropped(self, pkt):
        pass


class TestBottleneckLink:
    def make_link(self, rate_mbps=8, capacity=16):
        engine = CalendarEngine()
        queue = DropTailQueue(capacity)
        link = BottleneckLink(engine, units.mbps(rate_mbps), queue)
        return engine, link

    def test_rejects_bad_rate(self):
        engine = CalendarEngine()
        with pytest.raises(ValueError):
            BottleneckLink(engine, 0, DropTailQueue(4))

    def test_serialisation_rate(self):
        """Ten packets at 8 Mbps take exactly 15 ms to drain."""
        engine, link = self.make_link()
        flow = SinkFlow()
        for i in range(10):
            link.send(Packet(flow, i, 1500, 0))
        engine.run()
        assert engine.now == 10 * 1500
        assert len(flow.arrived) == 10

    def test_utilization_window_math(self):
        engine, link = self.make_link(rate_mbps=8)
        flow = SinkFlow()
        for i in range(10):
            link.send(Packet(flow, i, 1500, 0))
        engine.run()
        # 15 kB delivered over a 30 ms window of an 8 Mbps link:
        # capacity is 30 kbits = 3.75 kB... 15000/30000 bytes = 0.5.
        assert link.utilization(units.msec(30)) == pytest.approx(0.5)

    def test_utilization_rejects_empty_window(self):
        _engine, link = self.make_link()
        with pytest.raises(ValueError):
            link.utilization(0)

    def test_reset_stats_mid_service(self):
        engine, link = self.make_link()
        flow = SinkFlow()
        for i in range(4):
            link.send(Packet(flow, i, 1500, 0))
        engine.run()
        link.reset_stats()
        assert link.delivered_bytes == {}
        for i in range(2):
            link.send(Packet(flow, 10 + i, 1500, 0))
        engine.run()
        assert link.delivered_bytes["svc"] == 3000


class TestServiceBase:
    def test_cannot_attach_twice(self):
        service = IperfService("x", cca_factory=lambda i: NewReno())
        testbed = Testbed(highly_constrained())
        testbed.add_service(service)
        with pytest.raises(RuntimeError):
            service.attach(testbed.bell)

    def test_cannot_start_unattached(self):
        service = IperfService("x", cca_factory=lambda i: NewReno())
        with pytest.raises(RuntimeError):
            service.start()

    def test_cannot_start_twice(self):
        service = IperfService("x", cca_factory=lambda i: NewReno())
        testbed = Testbed(highly_constrained())
        testbed.add_service(service)
        service.start()
        with pytest.raises(RuntimeError):
            service.start()

    def test_base_run_is_abstract(self):
        service = Service("x")
        testbed = Testbed(highly_constrained())
        testbed.add_service(service)
        with pytest.raises(NotImplementedError):
            service.start()

    def test_iperf_rejects_zero_flows(self):
        with pytest.raises(ValueError):
            IperfService("x", cca_factory=lambda i: NewReno(), num_flows=0)

    def test_mbps_received_helper(self):
        service = IperfService("x", cca_factory=lambda i: NewReno())
        testbed = Testbed(highly_constrained())
        testbed.add_service(service)
        service.start()
        testbed.bell.run(units.seconds(10))
        rate = mbps_received(service, units.seconds(10))
        assert 6 < rate < 8.5

    def test_mbps_received_rejects_bad_window(self):
        service = IperfService("x", cca_factory=lambda i: NewReno())
        with pytest.raises(ValueError):
            mbps_received(service, 0)


class TestTestbedWindow:
    def test_window_not_run_raises(self):
        testbed = Testbed(highly_constrained())
        with pytest.raises(RuntimeError):
            _ = testbed.window_usec

    def test_window_duration_matches_config(self):
        config = ExperimentConfig().scaled(20)
        testbed = Testbed(highly_constrained())
        testbed.add_service(
            IperfService("x", cca_factory=lambda i: NewReno())
        )
        testbed.start_all()
        testbed.run_window(config)
        assert testbed.window_usec == config.measure_duration_usec

    def test_warmup_excluded_from_throughput(self):
        """Bytes delivered during warmup must not count."""
        config = ExperimentConfig().scaled(20)
        testbed = Testbed(highly_constrained())
        service = testbed.add_service(
            IperfService("x", cca_factory=lambda i: NewReno())
        )
        testbed.start_all()
        testbed.run_window(config)
        measured = testbed.throughput_bps()["x"]
        # Steady-state throughput, not inflated by counting warmup bytes
        # over the shorter window.
        assert measured <= units.mbps(8) * 1.02

    def test_start_jitter_staggered(self):
        testbed = Testbed(highly_constrained(), seed=3)
        a = testbed.add_service(
            IperfService("a", cca_factory=lambda i: NewReno())
        )
        b = testbed.add_service(
            IperfService("b", cca_factory=lambda i: NewReno())
        )
        testbed.start_all()
        # Service b starts via a scheduled event, not synchronously.
        assert a.connections[0].packets_sent >= 0
        assert b._started is False
        testbed.bell.run(units.seconds(1))
        assert b._started is True

    def test_start_jitter_disabled(self):
        testbed = Testbed(highly_constrained(), seed=3)
        testbed.add_service(IperfService("a", cca_factory=lambda i: NewReno()))
        b = testbed.add_service(
            IperfService("b", cca_factory=lambda i: NewReno())
        )
        testbed.start_all(start_jitter_usec=0)
        assert b._started is True
