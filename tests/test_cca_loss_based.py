"""NewReno and Cubic: unit-level window dynamics plus solo behaviour."""

import pytest

from repro import units
from repro.config import NetworkConfig
from repro.netsim.topology import Dumbbell
from repro.obs.flight import FlightRecorder
from repro.transport.connection import Connection, INITIAL_WINDOW
from repro.cca.reno import NewReno
from repro.cca.cubic import Cubic


class FakeConn:
    """Minimal connection stand-in for unit-level CCA tests."""

    def __init__(self, engine_now=0, in_recovery=False):
        self._now = engine_now
        self.in_recovery = in_recovery
        self.engine = self
        self.inflight_packets = 0

    @property
    def now(self):
        return self._now

    def advance(self, usec):
        self._now += usec


class TestNewRenoUnit:
    def test_slow_start_doubles_per_rtt(self):
        cca = NewReno(initial_cwnd=10)
        conn = FakeConn()
        for _ in range(10):  # 10 ACKs = one initial window's worth
            cca.on_ack(conn, None, 50_000, None)
        assert cca.cwnd_packets == 20

    def test_congestion_avoidance_linear(self):
        cca = NewReno(initial_cwnd=10)
        cca.ssthresh = 10  # start in CA
        conn = FakeConn()
        for _ in range(10):
            cca.on_ack(conn, None, 50_000, None)
        assert cca.cwnd_packets == pytest.approx(11, abs=0.1)

    def test_loss_halves_window(self):
        cca = NewReno(initial_cwnd=40)
        cca.on_loss_event(FakeConn(), 0)
        assert cca.cwnd_packets == 20
        assert cca.ssthresh == 20

    def test_rto_collapses_to_one(self):
        cca = NewReno(initial_cwnd=40)
        cca.on_rto(FakeConn(), 0)
        assert cca.cwnd_packets == 1
        assert cca.ssthresh == 20

    def test_minimum_window_floor(self):
        cca = NewReno(initial_cwnd=2)
        cca.on_loss_event(FakeConn(), 0)
        assert cca.cwnd_packets == 2

    def test_no_growth_during_recovery(self):
        cca = NewReno(initial_cwnd=10)
        conn = FakeConn(in_recovery=True)
        cca.on_ack(conn, None, 50_000, None)
        assert cca.cwnd_packets == 10

    def test_no_pacing(self):
        assert NewReno().pacing_rate_bps is None

    def test_idle_restart_caps_at_initial_window(self):
        cca = NewReno(initial_cwnd=100)
        cca.on_idle_restart(FakeConn(), units.seconds(5))
        assert cca.cwnd_packets == INITIAL_WINDOW


class TestCubicUnit:
    def test_slow_start(self):
        cca = Cubic(initial_cwnd=10)
        conn = FakeConn()
        for _ in range(10):
            cca.on_ack(conn, None, 50_000, None)
        assert cca.cwnd_packets == 20

    def test_loss_applies_beta(self):
        cca = Cubic(initial_cwnd=100)
        cca.on_loss_event(FakeConn(), 0)
        assert cca.cwnd_packets == pytest.approx(70)
        assert cca.w_max == 100

    def test_fast_convergence_lowers_wmax(self):
        cca = Cubic(initial_cwnd=100)
        cca.on_loss_event(FakeConn(), 0)          # w_max = 100, cwnd = 70
        cca.on_loss_event(FakeConn(), 1000)       # cwnd(70) < w_max(100)
        assert cca.w_max == pytest.approx(70 * 1.7 / 2)

    def test_cubic_growth_accelerates_past_wmax(self):
        """Window growth is slow near w_max and fast beyond it (the cubic
        shape that distinguishes it from Reno)."""
        cca = Cubic(initial_cwnd=100)
        conn = FakeConn()
        cca.on_loss_event(conn, conn.now)  # cwnd = 70, K from w_max=100
        cca.ssthresh = 0  # force congestion avoidance
        growth = []
        prev = cca.cwnd_packets
        for step in range(100):
            conn.advance(units.msec(100))
            for _ in range(int(cca.cwnd_packets)):
                cca.on_ack(conn, None, 50_000, None)
            growth.append(cca.cwnd_packets - prev)
            prev = cca.cwnd_packets
        # Growth right after the plateau is smaller than late growth.
        assert cca.cwnd_packets > 110  # passed w_max and accelerating
        assert sum(growth[:5]) < sum(growth[-5:])

    def test_rto_collapse(self):
        cca = Cubic(initial_cwnd=50)
        cca.on_rto(FakeConn(), 0)
        assert cca.cwnd_packets == 1


class TestSoloBehaviour:
    @pytest.mark.parametrize("cca_factory", [NewReno, Cubic])
    def test_fills_10mbps_link(self, cca_factory):
        net = NetworkConfig(bandwidth_bps=units.mbps(10))
        bell = Dumbbell(net, seed=1)
        conn = Connection(
            bell.engine, bell.path_for_service("s"), cca_factory(), "s", "s0"
        )
        conn.request(10**11)
        bell.run(units.seconds(20))
        rate = conn.bytes_received * 8 / 20 / 1e6
        assert rate > 9.3

    @pytest.mark.parametrize("cca_factory", [NewReno, Cubic])
    def test_sawtooth_fills_queue(self, cca_factory):
        """Loss-based CCAs are buffer-fillers: mean occupancy is high."""
        net = NetworkConfig(bandwidth_bps=units.mbps(10))
        bell = Dumbbell(net, seed=1)
        flight = FlightRecorder(grid_usec=10_000)
        flight.attach(bell.link)
        conn = Connection(
            bell.engine, bell.path_for_service("s"), cca_factory(), "s", "s0"
        )
        conn.request(10**11)
        bell.run(units.seconds(30))
        occ = flight.queue.occupancy
        tail = occ[len(occ) // 3:]
        mean_occ = sum(tail) / len(tail)
        assert mean_occ > 0.5 * bell.queue.capacity_packets

    def test_cubic_beats_reno_at_scale(self):
        """The Fig 2 Cubic-vs-Reno asymmetry, worse at 50 Mbps (Obs 14)."""
        shares = {}
        for bw in (8, 50):
            net = NetworkConfig(bandwidth_bps=units.mbps(bw))
            bell = Dumbbell(net, seed=2)
            reno = Connection(
                bell.engine, bell.path_for_service("reno"), NewReno(), "reno", "r0"
            )
            cubic = Connection(
                bell.engine, bell.path_for_service("cubic"), Cubic(), "cubic", "c0"
            )
            reno.request(10**12)
            cubic.request(10**12)
            bell.run(units.seconds(60))
            total = reno.bytes_received + cubic.bytes_received
            shares[bw] = reno.bytes_received / total
        assert shares[8] < 0.5    # Reno loses at 8 Mbps
        assert shares[50] < 0.35  # and badly at 50 Mbps (paper: 21%)
