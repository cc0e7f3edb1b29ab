"""White-box tests of BBR's internal machinery (round counting, full-pipe
detection, gain cycling, recovery conservation, v3 inflight bounds)."""

import pytest

from repro import units
from repro.cca.bbr import (
    BBRv1,
    BBRParams,
    BBR_LINUX_4_15,
    BBR_LINUX_5_15,
    DRAIN,
    PROBE_BW,
    PROBE_RTT,
    STARTUP,
)
from repro.cca.bbrv3 import BBRv3, LOSS_BETA
from repro.transport.rate_sampler import RateSample

from tests.naive_bbr import reference_on_ack


class FakeEngine:
    def __init__(self):
        self.now = 0


class FakeConn:
    """Just enough connection surface for the CCA callbacks."""

    def __init__(self):
        self.engine = FakeEngine()
        self.inflight_packets = 0
        self.in_recovery = False
        self.mss_bytes = units.MSS_BYTES
        self.sampler = self
        self.delivered = 0
        self.rtt = self

    @property
    def srtt_usec(self):
        return units.msec(50)


class FakePacket:
    def __init__(self, delivered=0):
        self.delivered = delivered


def sample(rate_mbps, app_limited=False, rtt_ms=50):
    return RateSample(
        delivery_rate_bps=units.mbps(rate_mbps),
        delivered_bytes=1500,
        interval_usec=1000,
        is_app_limited=app_limited,
        rtt_usec=units.msec(rtt_ms),
    )


def feed(cca, conn, rate_mbps, rounds=1, rtt_ms=50, step_usec=50_000,
         app_limited=False):
    """Feed ACKs; each call advances one 'round' per iteration."""
    for _ in range(rounds):
        conn.engine.now += step_usec
        pkt = FakePacket(delivered=conn.delivered)
        conn.delivered += 100_000  # ensures round advancement
        cca.on_ack(
            conn, pkt, units.msec(rtt_ms), sample(rate_mbps, app_limited, rtt_ms)
        )


class TestRoundsAndFullPipe:
    def test_round_counting_advances(self):
        cca = BBRv1(seed=1)
        conn = FakeConn()
        cca.on_connection_init(conn)
        feed(cca, conn, 10, rounds=5)
        assert cca._round_count == 5

    def test_startup_exits_when_bandwidth_plateaus(self):
        cca = BBRv1(seed=1)
        conn = FakeConn()
        cca.on_connection_init(conn)
        # Growing bandwidth: stays in startup.
        for rate in (2, 6, 18):
            feed(cca, conn, rate)
        assert cca.state == STARTUP
        # Plateau for >= 3 rounds: must leave startup (drain or probe).
        feed(cca, conn, 18, rounds=4)
        assert cca.state in (DRAIN, PROBE_BW)

    def test_app_limited_rounds_do_not_trigger_full_pipe(self):
        cca = BBRv1(seed=1)
        conn = FakeConn()
        cca.on_connection_init(conn)
        feed(cca, conn, 10, rounds=1)
        feed(cca, conn, 10, rounds=6, app_limited=True)
        assert cca.state == STARTUP  # still probing: plateau was app-limited

    def test_app_limited_samples_do_not_lower_estimate(self):
        cca = BBRv1(seed=1)
        conn = FakeConn()
        cca.on_connection_init(conn)
        feed(cca, conn, 10, rounds=2)
        before = cca.btlbw_bps
        feed(cca, conn, 0.5, rounds=2, app_limited=True)
        assert cca.btlbw_bps == before


class TestProbeRtt:
    def test_min_rtt_expiry_enters_probe_rtt(self):
        cca = BBRv1(seed=1)
        conn = FakeConn()
        cca.on_connection_init(conn)
        feed(cca, conn, 10, rounds=8)
        # Advance past the 10 s window with steady (higher) RTT samples.
        feed(cca, conn, 10, rounds=3, rtt_ms=80,
             step_usec=units.seconds(4))
        assert cca.state == PROBE_RTT
        assert cca.cwnd_packets == cca.params.min_cwnd_packets

    def test_probe_rtt_exits_after_duration(self):
        cca = BBRv1(seed=1)
        conn = FakeConn()
        cca.on_connection_init(conn)
        feed(cca, conn, 10, rounds=8)
        feed(cca, conn, 10, rounds=3, rtt_ms=80, step_usec=units.seconds(4))
        assert cca.state == PROBE_RTT
        conn.inflight_packets = 2  # below min_cwnd: drain achieved
        feed(cca, conn, 10, rounds=1, rtt_ms=50, step_usec=units.msec(50))
        feed(cca, conn, 10, rounds=1, rtt_ms=50, step_usec=units.msec(300))
        assert cca.state != PROBE_RTT


class TestGainCycle:
    def _to_probe_bw(self):
        cca = BBRv1(seed=1)
        conn = FakeConn()
        cca.on_connection_init(conn)
        for rate in (2, 6, 18):
            feed(cca, conn, rate)
        feed(cca, conn, 18, rounds=4)
        conn.inflight_packets = 0
        feed(cca, conn, 18, rounds=1)
        assert cca.state == PROBE_BW
        return cca, conn

    def test_probe_bw_cycles_through_gains(self):
        cca, conn = self._to_probe_bw()
        seen = set()
        for _ in range(30):
            conn.inflight_packets = int(cca.cwnd_packets)
            feed(cca, conn, 18, rounds=1, step_usec=units.msec(60))
            seen.add(round(cca._pacing_gain, 2))
        assert round(cca.params.pacing_gain_up, 2) in seen
        assert round(cca.params.pacing_gain_down, 2) in seen
        assert 1.0 in seen

    def test_never_starts_cycle_in_drain_phase(self):
        for seed in range(12):
            cca = BBRv1(seed=seed)
            cca._enter_probe_bw(0)
            assert cca._cycle_index != 1


class TestStateMachineLifecycle:
    def test_startup_drain_probebw_probertt_sequence(self):
        """Walk one flow through the full BBRv1 state machine in order."""
        cca = BBRv1(seed=1)
        conn = FakeConn()
        cca.on_connection_init(conn)
        assert cca.state == STARTUP

        # STARTUP: bandwidth still growing, no transition.
        for rate in (2, 6, 18):
            feed(cca, conn, rate)
        assert cca.state == STARTUP

        # Plateau with a standing queue (inflight far above the BDP):
        # full-pipe detection must move to DRAIN and *stay* there, since
        # the queue has not drained yet.
        conn.inflight_packets = 1000
        for _ in range(6):
            feed(cca, conn, 18, rounds=1)
            if cca.state == DRAIN:
                break
        assert cca.state == DRAIN
        assert cca._pacing_gain == cca.params.drain_gain

        # Queue drained (inflight at/below the BDP): DRAIN -> PROBE_BW.
        conn.inflight_packets = 0
        feed(cca, conn, 18, rounds=1)
        assert cca.state == PROBE_BW

        # min-RTT window expiry: PROBE_BW -> PROBE_RTT at unity gains.
        feed(cca, conn, 18, rounds=3, rtt_ms=80, step_usec=units.seconds(4))
        assert cca.state == PROBE_RTT
        assert cca._pacing_gain == 1.0
        assert cca.cwnd_packets == cca.params.min_cwnd_packets

        # Inflight below min_cwnd and the probe duration elapsed: back to
        # PROBE_BW (the pipe was already filled).
        conn.inflight_packets = 2
        feed(cca, conn, 18, rounds=1, step_usec=units.msec(50))
        feed(cca, conn, 18, rounds=1, step_usec=units.msec(300))
        assert cca.state == PROBE_BW


def _model_snapshot(cca):
    return {
        "state": cca._state,
        "round_count": cca._round_count,
        "round_start": cca._round_start,
        "next_round_delivered": cca._next_round_delivered,
        "pacing_gain": cca._pacing_gain,
        "cwnd_gain": cca._cwnd_gain,
        "cycle_index": cca._cycle_index,
        "cycle_stamp": cca._cycle_stamp,
        "min_rtt_usec": cca._min_rtt_usec,
        "min_rtt_stamp": cca._min_rtt_stamp,
        "full_bw": cca._full_bw,
        "full_bw_count": cca._full_bw_count,
        "filled_pipe": cca._filled_pipe,
        "probe_rtt_done_stamp": cca._probe_rtt_done_stamp,
        "cwnd": cca.cwnd_packets,
        "btlbw_estimates": list(cca._btlbw._estimates),
        "btlbw_best": cca._btlbw.best,
    }


class TestFlatOnAckMatchesReference:
    def test_flat_on_ack_equals_update_chain(self):
        """The flattened ``on_ack`` must be bit-identical, ACK for ACK,
        with the step-by-step reference chain across every state."""
        # (rate_mbps, rtt_ms, step_usec, inflight, app_limited) per ACK:
        # startup growth, plateau into DRAIN, drain-out, PROBE_BW
        # cycling, a min-RTT expiry into PROBE_RTT, the exit, and an
        # app-limited lull.
        script = (
            [(2, 50, 50_000, 90, False)]
            + [(6, 50, 50_000, 90, False)]
            + [(18, 50, 50_000, 90, False)]
            + [(18, 50, 50_000, 1000, False)] * 6
            + [(18, 50, 50_000, 0, False)]
            + [(20, 40, 60_000, 70, False)] * 20
            + [(18, 80, units.seconds(4), 40, False)] * 3
            + [(18, 50, units.msec(50), 2, False)]
            + [(18, 50, units.msec(300), 2, False)]
            + [(5, 45, 60_000, 70, True)] * 5
            + [(25, 42, 60_000, 80, False)] * 10
        )
        flat, ref = BBRv1(seed=7), BBRv1(seed=7)
        conn_flat, conn_ref = FakeConn(), FakeConn()
        flat.on_connection_init(conn_flat)
        ref.on_connection_init(conn_ref)
        for step_index, (rate, rtt_ms, step, inflight, app) in enumerate(script):
            for cca, conn, drive in (
                (flat, conn_flat, BBRv1.on_ack),
                (ref, conn_ref, reference_on_ack),
            ):
                conn.engine.now += step
                conn.inflight_packets = inflight
                pkt = FakePacket(delivered=conn.delivered)
                conn.delivered += 100_000
                drive(cca, conn, pkt, units.msec(rtt_ms),
                      sample(rate, app, rtt_ms))
            assert _model_snapshot(flat) == _model_snapshot(ref), step_index


class TestRecoveryConservation:
    def test_515_caps_cwnd_in_recovery(self):
        cca = BBRv1(BBR_LINUX_5_15, seed=1)
        conn = FakeConn()
        cca.on_connection_init(conn)
        feed(cca, conn, 20, rounds=6)
        grown = cca.cwnd_packets
        conn.inflight_packets = 3
        cca.on_loss_event(conn, conn.engine.now)
        feed(cca, conn, 20, rounds=1)
        assert cca.cwnd_packets <= max(conn.inflight_packets + 1, 4)
        assert cca.cwnd_packets < grown

    def test_415_ignores_loss(self):
        cca = BBRv1(BBR_LINUX_4_15, seed=1)
        conn = FakeConn()
        cca.on_connection_init(conn)
        feed(cca, conn, 20, rounds=6)
        before = cca.cwnd_packets
        cca.on_loss_event(conn, conn.engine.now)
        feed(cca, conn, 20, rounds=1)
        assert cca.cwnd_packets == pytest.approx(before, rel=0.2)

    def test_rto_collapses_window(self):
        cca = BBRv1(seed=1)
        conn = FakeConn()
        cca.on_connection_init(conn)
        feed(cca, conn, 20, rounds=6)
        cca.on_rto(conn, conn.engine.now)
        assert cca.cwnd_packets == cca.params.min_cwnd_packets


class TestWarmStart:
    def test_seeds_btlbw_and_minrtt(self):
        cca = BBRv1(seed=1)
        conn = FakeConn()
        cca.on_connection_init(conn)
        cca.warm_start(units.mbps(40), units.msec(50))
        assert cca.btlbw_bps == units.mbps(40)
        assert cca.min_rtt_usec == units.msec(50)
        # Startup pacing from the warm estimate is immediately aggressive.
        assert cca.pacing_rate_bps > units.mbps(100)

    def test_zero_values_ignored(self):
        cca = BBRv1(seed=1)
        cca.warm_start(0, 0)
        assert cca.btlbw_bps == 0.0
        assert cca.min_rtt_usec is None


class TestBBRv3LossBounds:
    def test_loss_sets_inflight_hi(self):
        cca = BBRv3(seed=1)
        conn = FakeConn()
        cca.on_connection_init(conn)
        feed(cca, conn, 20, rounds=8)
        conn.inflight_packets = 100
        cca.on_loss_event(conn, conn.engine.now)
        expected = LOSS_BETA * max(100, cca._bdp_packets())
        assert cca._inflight_hi == pytest.approx(expected)

    def test_cwnd_bounded_by_inflight_hi(self):
        cca = BBRv3(seed=1)
        conn = FakeConn()
        cca.on_connection_init(conn)
        feed(cca, conn, 20, rounds=8)
        conn.inflight_packets = 20
        cca.on_loss_event(conn, conn.engine.now)
        feed(cca, conn, 20, rounds=1)
        assert cca.cwnd_packets <= cca._inflight_hi + 1e-9

    def test_inflight_hi_regrows_while_probing(self):
        cca = BBRv3(seed=1)
        conn = FakeConn()
        cca.on_connection_init(conn)
        feed(cca, conn, 20, rounds=8)
        conn.inflight_packets = 50
        cca.on_loss_event(conn, conn.engine.now)
        bound = cca._inflight_hi
        # Force probe-up phase rounds without further loss.
        cca._cycle_index = 0
        feed(cca, conn, 20, rounds=6, step_usec=units.msec(60))
        assert cca._inflight_hi > bound


class TestParamsValidation:
    def test_custom_params_respected(self):
        params = BBRParams(label="custom", cwnd_gain_probe=1.1)
        cca = BBRv1(params, seed=1)
        assert cca.name == "custom"
        assert cca.params.cwnd_gain_probe == 1.1
