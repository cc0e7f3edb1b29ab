"""Packet traces, the queue channel and the sim-clock probe that
samples the link."""

from types import SimpleNamespace

import pytest

from repro import units
from repro.netsim.engine import CalendarEngine
from repro.netsim.link import BottleneckLink
from repro.netsim.queue import DropTailQueue
from repro.netsim.trace import PacketTrace, Probe
from repro.obs.flight import QueueChannel

#: What a queued packet shows a sampler: the service that sent it.
QUEUED = SimpleNamespace(flow=SimpleNamespace(service_id="svc"))


def drive(probe, arrivals, deadline=0):
    """Replay ``(now, occupancy)`` sends through ``probe`` exactly the way
    ``BottleneckLink.send`` gates it: one compare, ``fire`` when due."""
    for now, occupancy in arrivals:
        if now >= deadline:
            link = SimpleNamespace(
                probe=probe,
                queue=SimpleNamespace(_queue=[QUEUED] * occupancy, drops={}),
                delivered_bytes={},
            )
            deadline = probe.fire(now, link)
    return deadline


def sampled(period, arrivals):
    """A queue channel subscribed at ``period`` and driven over
    ``arrivals``, as ``(times_usec, occupancy)`` lists."""
    probe = Probe()
    channel = QueueChannel(capacity_packets=64)
    drive(probe, arrivals, probe.subscribe(period, channel.sample))
    return list(channel.times_usec), list(channel.occupancy)


class TestQueueSampling:
    """The queue channel on the probe's grid: the bottleneck queue log."""

    def test_samples_on_period(self):
        times, occs = sampled(100, [
            (0, 5),
            (50, 6),   # skipped: within period
            (100, 7),  # taken
            (150, 8),  # skipped
            (250, 9),  # taken
        ])
        assert times == [0, 100, 250]
        assert occs == [5, 7, 9]

    def test_empty_series(self):
        assert sampled(100, []) == ([], [])

    def test_sampling_grid_does_not_drift(self):
        # Regression: the next sample time is aligned to the fixed period
        # grid (0, P, 2P, ...).  Anchoring on the arrival time instead let
        # the grid slide forward by one inter-arrival gap per sample, so a
        # nominal 10 ms log drifted under bursty arrivals.
        times, _occs = sampled(100, [
            (105, 1),   # taken; next grid point is 200, not 205
            (201, 2),   # taken; next grid point is 300, not 301
            (299, 3),   # skipped: before the 300 grid point
            (300, 4),   # taken, exactly on grid
        ])
        assert times == [105, 201, 300]

    def test_grid_alignment_over_many_offset_arrivals(self):
        # Arrivals always 1us past each grid point: with drift this took
        # progressively later samples; aligned, it samples every period.
        times, _occs = sampled(100, [(i * 100 + 1, i) for i in range(50)])
        assert times == [i * 100 + 1 for i in range(50)]


class TestProbe:
    def test_rejects_bad_period(self):
        with pytest.raises(ValueError):
            Probe().subscribe(0, lambda now, link: None)

    def test_nothing_subscribed_is_idle(self):
        probe = Probe()
        assert probe.fire(0, None) == Probe.IDLE
        link = BottleneckLink(CalendarEngine(), units.mbps(8), DropTailQueue(4))
        assert link._probe_next == Probe.IDLE

    def test_subscribing_makes_the_link_due_at_once(self):
        link = BottleneckLink(CalendarEngine(), units.mbps(8), DropTailQueue(4))
        link.subscribe(100, lambda now, link: None)
        assert link._probe_next == 0

    def test_each_subscriber_keeps_its_own_grid(self):
        # A 100us and a 250us subscriber behind one deadline: each runs
        # at the first send at/after its *own* boundaries, as if it had
        # a private gate.
        probe = Probe()
        seen = {100: [], 250: []}
        probe.subscribe(100, lambda now, link: seen[100].append(now))
        probe.subscribe(250, lambda now, link: seen[250].append(now))
        drive(probe, [(t, 0) for t in range(0, 1000, 30)])
        assert seen[100] == [0, 120, 210, 300, 420, 510, 600, 720, 810, 900]
        assert seen[250] == [0, 270, 510, 750]

    def test_due_subscribers_run_in_subscription_order(self):
        probe = Probe()
        order = []
        for name in ("queue", "flight", "stop-rule"):
            probe.subscribe(
                100, lambda now, link, name=name: order.append((now, name))
            )
        drive(probe, [(0, 0), (100, 0)])
        assert order == [
            (0, "queue"), (0, "flight"), (0, "stop-rule"),
            (100, "queue"), (100, "flight"), (100, "stop-rule"),
        ]

    def test_deadline_is_the_earliest_boundary(self):
        probe = Probe()
        probe.subscribe(100, lambda now, link: None)
        probe.subscribe(250, lambda now, link: None)
        assert probe.fire(0, None) == 100
        assert probe.fire(230, None) == 250   # 100-grid re-armed to 300
        assert probe.fire(250, None) == 300

    def test_raising_subscriber_is_already_rearmed(self):
        # The stop rule raises out of fire(); the subscriber list must
        # not be left due forever.
        probe = Probe()
        calls = []

        def boom(now, link):
            calls.append(now)
            raise RuntimeError("stop")

        probe.subscribe(100, boom)
        with pytest.raises(RuntimeError):
            probe.fire(5, None)
        assert drive(probe, [(50, 0)], deadline=0) == 100
        assert calls == [5]

    def test_reset_stats_records_the_window_open_instant(self):
        engine = CalendarEngine()
        link = BottleneckLink(engine, units.mbps(8), DropTailQueue(4))
        assert link.probe.window_open_usec is None
        engine.run(1234)
        link.reset_stats()
        assert link.probe.window_open_usec == 1234


class TestAttach:
    """A packet trace records only on a link it is attached to, the way a
    flight recorder does."""

    def test_queue_log_samples_on_its_own_period_and_logs_drops(self):
        # The queue log is a flight recorder's queue channel on its own
        # probe period; tail drops are rows of the packet trace.
        from repro.netsim.packet import Packet
        from repro.obs.flight import FlightRecorder

        engine = CalendarEngine()
        link = BottleneckLink(engine, units.mbps(8), DropTailQueue(1))
        flight, trace = FlightRecorder(grid_usec=5_000), PacketTrace()
        flight.attach(link)
        assert link.probe._subscribers == [[0, 5_000, flight.sample]]
        assert link.trace is None
        trace.attach(link)
        dropped = []
        flow = SimpleNamespace(
            service_id="svc",
            on_packet_arrived=lambda p: None,
            on_packet_dropped=dropped.append,
        )
        link.send(Packet(flow, 0, 1500, 0))   # sampled, then serialising
        link.send(Packet(flow, 1, 1500, 0))   # queued
        engine.run(7)
        link.send(Packet(flow, 2, 1500, 7))   # tail-dropped at t=7
        assert [p.seq for p in dropped] == [2]
        assert trace.drop_events == [(7, "svc")]
        assert link.queue.drops == {"svc": 1}
        # The probe fires once the arrival is queued, before it is served.
        assert list(flight.queue.times_usec) == [0]
        assert list(flight.queue.occupancy) == [1]

    def test_packet_trace_records_what_the_link_delivers(self):
        from repro.config import highly_constrained
        from repro.netsim.packet import Packet
        from repro.netsim.topology import Dumbbell

        bell = Dumbbell(highly_constrained())
        trace = PacketTrace()
        trace.attach(bell.link)
        assert bell.link.trace is trace
        assert bell.link.probe._subscribers == []
        path = bell.path_for_service("svc")
        flow = SimpleNamespace(service_id="svc", on_packet_arrived=lambda p: None)
        path.transmit(Packet(flow, 0, 1500, 0))
        bell.run(units.seconds(1))
        # Stamped when it reaches the client: upstream delay, one
        # serialisation, the delay after the switch.
        arrival = (
            path.pre_delay_usec
            + bell.link.serialization_usec(1500)
            + bell.link.post_delay_usec
        )
        assert trace.records == [(arrival, "svc", 1500)]
        assert trace.drop_events == []


class TestPacketTrace:
    def test_bytes_delivered_window(self):
        trace = PacketTrace()
        trace.record(100, "a", 1500)
        trace.record(200, "a", 1500)
        trace.record(300, "b", 1500)
        trace.record(400, "a", 1500)
        assert trace.bytes_delivered("a") == 4500
        assert trace.bytes_delivered("a", start_usec=150) == 3000
        assert trace.bytes_delivered("a", start_usec=150, end_usec=400) == 1500
        assert trace.bytes_delivered("b") == 1500

    def test_throughput_series_binning(self):
        trace = PacketTrace()
        # 2 packets in bin 0, 1 packet in bin 2.
        trace.record(100, "a", 1500)
        trace.record(200, "a", 1500)
        trace.record(2_500_000, "a", 1500)
        times, rates = trace.throughput_series("a", bin_usec=1_000_000)
        assert len(times) == 3
        assert rates[0] == pytest.approx(3000 * 8 / 1_000_000)
        assert rates[1] == 0.0
        assert rates[2] == pytest.approx(1500 * 8 / 1_000_000)

    def test_throughput_series_rejects_bad_bin(self):
        with pytest.raises(ValueError):
            PacketTrace().throughput_series("a", bin_usec=0)

    def test_throughput_series_empty_when_no_match(self):
        # Regression: an unmatched service/window used to produce one
        # spurious zero-valued bin instead of an empty series.
        trace = PacketTrace()
        trace.record(100, "a", 1500)
        assert trace.throughput_series("nope") == ([], [])
        assert trace.throughput_series("a", start_usec=500) == ([], [])
        assert trace.throughput_series("a", end_usec=100) == ([], [])
        assert PacketTrace().throughput_series("a") == ([], [])

    def test_records_survive_interning(self):
        # Service ids are interned to integer codes internally; the
        # materialised rows must still carry the original strings.
        trace = PacketTrace()
        trace.record(1, "b", 100)
        trace.record(2, "a", 200)
        trace.record(3, "b", 300)
        assert trace.records == [(1, "b", 100), (2, "a", 200), (3, "b", 300)]
        assert trace.to_json() == {
            "records": [(1, "b", 100), (2, "a", 200), (3, "b", 300)],
            "drop_events": [],
        }

    def test_drops_ride_beside_records_in_json(self):
        # Drop rows share the delivery rows' service-id table.
        trace = PacketTrace()
        trace.record_drop(5, "a")
        trace.record(7, "b", 1500)
        trace.record_drop(9, "b")
        assert len(trace) == 1
        assert trace.drop_events == [(5, "a"), (9, "b")]
        assert trace.to_json() == {
            "records": [(7, "b", 1500)],
            "drop_events": [(5, "a"), (9, "b")],
        }

    def test_index_invalidated_by_new_records(self):
        trace = PacketTrace()
        trace.record(100, "a", 1500)
        assert trace.bytes_delivered("a") == 1500  # builds the index
        trace.record(200, "a", 500)  # must invalidate it
        assert trace.bytes_delivered("a") == 2000

    def test_series_filters_service(self):
        trace = PacketTrace()
        trace.record(0, "a", 1500)
        trace.record(0, "b", 3000)
        _times, rates = trace.throughput_series("b", bin_usec=1000)
        assert rates[0] == pytest.approx(3000 * 8 / 1000)
