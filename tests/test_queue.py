"""Drop-tail queue: FIFO order, tail drop, per-service accounting."""

import pytest
from hypothesis import given, strategies as st

from repro import units
from repro.netsim.engine import CalendarEngine
from repro.netsim.link import BottleneckLink
from repro.netsim.packet import Packet
from repro.netsim.queue import DropTailQueue
from repro.netsim.trace import PacketTrace


class FakeFlow:
    def __init__(self, service_id="svc"):
        self.service_id = service_id
        self.arrived = []
        self.dropped = []

    def on_packet_arrived(self, pkt):
        self.arrived.append(pkt)

    def on_packet_dropped(self, pkt):
        self.dropped.append(pkt)


def make_packet(flow, seq=0, size=1500, now=0):
    return Packet(flow, seq, size, now)


class TestBasics:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            DropTailQueue(0)

    def test_offer_and_pop_fifo(self):
        q = DropTailQueue(4)
        flow = FakeFlow()
        pkts = [make_packet(flow, seq=i) for i in range(3)]
        for p in pkts:
            assert q.offer(p, now=10)
        out = [q.pop(20) for _ in range(3)]
        assert [p.seq for p in out] == [0, 1, 2]

    def test_pop_empty_returns_none(self):
        q = DropTailQueue(4)
        assert q.pop(0) is None

    def test_occupancy_tracks(self):
        q = DropTailQueue(4)
        flow = FakeFlow()
        q.offer(make_packet(flow), 0)
        q.offer(make_packet(flow), 0)
        assert q.occupancy == 2
        q.pop(1)
        assert q.occupancy == 1


class TestTailDrop:
    def test_drops_when_full(self):
        q = DropTailQueue(2)
        flow = FakeFlow()
        assert q.offer(make_packet(flow, 0), 0)
        assert q.offer(make_packet(flow, 1), 0)
        assert not q.offer(make_packet(flow, 2), 0)
        assert q.occupancy == 2

    def test_drop_counted_per_service(self):
        q = DropTailQueue(1)
        a, b = FakeFlow("a"), FakeFlow("b")
        q.offer(make_packet(a), 0)
        q.offer(make_packet(b), 0)  # dropped
        assert q.drops == {"b": 1}
        assert q.arrivals == {"a": 1, "b": 1}

    def test_loss_rate(self):
        q = DropTailQueue(1)
        flow = FakeFlow("x")
        q.offer(make_packet(flow), 0)
        q.offer(make_packet(flow), 0)
        q.offer(make_packet(flow), 0)
        assert q.loss_rate("x") == pytest.approx(2 / 3)

    def test_loss_rate_unknown_service_is_zero(self):
        q = DropTailQueue(1)
        assert q.loss_rate("nope") == 0.0

    def test_drop_recorded_in_log(self):
        # The link, not the queue, logs a tail drop: into its trace.
        engine = CalendarEngine()
        link = BottleneckLink(engine, units.mbps(8), DropTailQueue(1))
        trace = PacketTrace()
        trace.attach(link)
        flow = FakeFlow("x")
        for now in (0, 5, 7):
            engine.run(now)
            link.send(make_packet(flow, seq=now, now=now))
        # 0 is on the wire, 5 waits in the one slot, 7 is dropped.
        assert trace.drop_events == [(7, "x")]
        assert [p.seq for p in flow.dropped] == [7]


class TestQueueingDelay:
    def test_delay_measured_on_pop(self):
        q = DropTailQueue(4)
        flow = FakeFlow("x")
        q.offer(make_packet(flow), now=100)
        pkt = q.pop(now=350)
        assert pkt.queueing_delay_usec == 250
        assert q.mean_queueing_delay_usec("x") == pytest.approx(250)

    def test_mean_over_multiple(self):
        q = DropTailQueue(4)
        flow = FakeFlow("x")
        q.offer(make_packet(flow), now=0)
        q.offer(make_packet(flow), now=0)
        q.pop(now=100)
        q.pop(now=300)
        assert q.mean_queueing_delay_usec("x") == pytest.approx(200)

    def test_no_samples_is_zero(self):
        q = DropTailQueue(4)
        assert q.mean_queueing_delay_usec("x") == 0.0


class TestReset:
    def test_reset_clears_counters(self):
        q = DropTailQueue(1)
        flow = FakeFlow("x")
        q.offer(make_packet(flow), 0)
        q.offer(make_packet(flow), 0)
        q.pop(10)
        q.reset_stats()
        assert q.arrivals == {}
        assert q.drops == {}
        assert q.mean_queueing_delay_usec("x") == 0.0

    def test_reset_keeps_queued_packets(self):
        q = DropTailQueue(2)
        flow = FakeFlow("x")
        q.offer(make_packet(flow), 0)
        q.reset_stats()
        assert q.occupancy == 1


class TestInvariants:
    @given(
        st.lists(
            st.tuples(st.sampled_from(["a", "b", "c"]), st.booleans()),
            max_size=200,
        ),
        st.integers(min_value=1, max_value=16),
    )
    def test_conservation(self, ops, capacity):
        """arrivals == drops + pops + still-queued, per service."""
        q = DropTailQueue(capacity)
        flows = {sid: FakeFlow(sid) for sid in "abc"}
        popped = {sid: 0 for sid in "abc"}
        queued_seq = []
        for sid, is_offer in ops:
            if is_offer:
                accepted = q.offer(make_packet(flows[sid]), 0)
                if accepted:
                    queued_seq.append(sid)
            else:
                pkt = q.pop(1)
                if pkt is not None:
                    popped[pkt.flow.service_id] += 1
                    queued_seq.pop(0)
        for sid in "abc":
            arrived = q.arrivals.get(sid, 0)
            dropped = q.drops.get(sid, 0)
            still = queued_seq.count(sid)
            assert arrived == dropped + popped[sid] + still
        assert q.occupancy <= capacity
