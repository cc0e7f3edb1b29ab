"""BBRv1 / BBRv3: state machine, probing cadence, variant behaviour."""

import pytest

from repro import units
from repro.config import NetworkConfig
from repro.netsim.topology import Dumbbell
from repro.obs.flight import FlightRecorder
from repro.transport.connection import Connection
from repro.cca.bbr import (
    BBRv1,
    BBR_LINUX_4_15,
    BBR_LINUX_5_15,
    BBR_YOUTUBE_QUIC_2022,
    BBR_YOUTUBE_QUIC_2023,
    HIGH_GAIN,
)
from repro.cca.bbrv3 import BBRv3
from repro.cca.cubic import Cubic


def solo_run(cca, bw_mbps=10, seconds=30, seed=1, queue=None, recorders=()):
    net = NetworkConfig(
        bandwidth_bps=units.mbps(bw_mbps), queue_packets_override=queue
    )
    bell = Dumbbell(net, seed=seed)
    for recorder in recorders:
        recorder.attach(bell.link)
    conn = Connection(bell.engine, bell.path_for_service("s"), cca, "s", "s0")
    conn.request(10**12)
    bell.run(units.seconds(seconds))
    return bell, conn


class TestParams:
    def test_high_gain_value(self):
        assert HIGH_GAIN == pytest.approx(2.885, abs=0.001)

    def test_variants_are_distinct(self):
        assert not BBR_LINUX_4_15.recovery_packet_conservation
        assert BBR_LINUX_5_15.recovery_packet_conservation
        assert BBR_YOUTUBE_QUIC_2022.cwnd_gain_probe < BBR_LINUX_4_15.cwnd_gain_probe

    def test_labels(self):
        assert BBRv1(BBR_LINUX_4_15).name == "bbr-linux4.15"
        assert BBRv1(BBR_YOUTUBE_QUIC_2023).name == "bbr-youtube-quic-2023"
        assert BBRv3().name == "bbrv3"


class TestStateMachine:
    def test_starts_in_startup(self):
        assert BBRv1(seed=1).state == "startup"

    def test_reaches_probe_bw_solo(self):
        cca = BBRv1(seed=1)
        solo_run(cca, seconds=5)
        assert cca.state in ("probe_bw", "probe_rtt")

    def test_btlbw_converges_to_link_rate(self):
        cca = BBRv1(seed=1)
        solo_run(cca, bw_mbps=10, seconds=10)
        assert cca.btlbw_bps == pytest.approx(units.mbps(10), rel=0.15)

    def test_min_rtt_near_base(self):
        cca = BBRv1(seed=1)
        solo_run(cca, seconds=10)
        # Base propagation RTT is 50 ms; serialisation adds ~2ms.
        assert cca.min_rtt_usec < units.msec(56)

    def test_probe_rtt_happens(self):
        """The 10-second ProbeRTT cadence: cwnd dips to minimum."""
        cca = BBRv1(seed=1)
        net = NetworkConfig(bandwidth_bps=units.mbps(10))
        bell = Dumbbell(net, seed=1)
        conn = Connection(bell.engine, bell.path_for_service("s"), cca, "s", "s0")
        conn.request(10**12)
        saw_probe_rtt = False
        for step in range(150):
            bell.run(units.msec(100) * (step + 1))
            if cca.state == "probe_rtt":
                saw_probe_rtt = True
        assert saw_probe_rtt


class TestSoloBehaviour:
    def test_fills_link(self):
        _bell, conn = solo_run(BBRv1(seed=2), seconds=20)
        assert conn.bytes_received * 8 / 20 / 1e6 > 9.0

    def test_keeps_queue_small(self):
        """BBR is not a buffer-filler: occupancy stays far below capacity."""
        flight = FlightRecorder(grid_usec=10_000)
        bell, _conn = solo_run(BBRv1(seed=2), seconds=20, recorders=[flight])
        occ = flight.queue.occupancy
        tail = occ[len(occ) // 3:]
        assert sum(tail) / len(tail) < 0.3 * bell.queue.capacity_packets

    def test_no_loss_solo(self):
        bell, _conn = solo_run(BBRv1(seed=2), seconds=20)
        assert bell.queue.loss_rate("s") == 0.0

    def test_bbrv3_fills_link(self):
        _bell, conn = solo_run(BBRv3(seed=2), seconds=20)
        assert conn.bytes_received * 8 / 20 / 1e6 > 9.0

    def test_warm_start_seeds_model(self):
        cca = BBRv1(seed=3)
        cca.warm_start(units.mbps(9), units.msec(50))
        assert cca.btlbw_bps == units.mbps(9)
        assert cca.pacing_rate_bps is not None


class TestCompetition:
    def test_bbr_vs_cubic_deep_buffer(self):
        """The Ware-et-al. regime: at 4xBDP, single-flow BBRv1 holds a
        meaningful but below-fair share against Cubic."""
        net = NetworkConfig(bandwidth_bps=units.mbps(50))
        bell = Dumbbell(net, seed=4)
        bbr_conn = Connection(
            bell.engine, bell.path_for_service("bbr"), BBRv1(seed=4), "bbr", "b0"
        )
        cubic_conn = Connection(
            bell.engine, bell.path_for_service("cubic"), Cubic(), "cubic", "c0"
        )
        bbr_conn.request(10**12)
        cubic_conn.request(10**12)
        bell.run(units.seconds(60))
        share = bbr_conn.bytes_received / (
            bbr_conn.bytes_received + cubic_conn.bytes_received
        )
        assert 0.2 < share < 0.62

    def test_two_bbr_flows_split_roughly_fairly(self):
        net = NetworkConfig(bandwidth_bps=units.mbps(20))
        bell = Dumbbell(net, seed=5)
        a = Connection(
            bell.engine, bell.path_for_service("a"), BBRv1(seed=6), "a", "a0"
        )
        b = Connection(
            bell.engine, bell.path_for_service("b"), BBRv1(seed=7), "b", "b0"
        )
        a.request(10**12)
        b.request(10**12)
        bell.run(units.seconds(60))
        share = a.bytes_received / (a.bytes_received + b.bytes_received)
        assert 0.3 < share < 0.7

    def test_bbrv3_backs_off_on_loss(self):
        """v3's loss response: after a loss event the cwnd bound drops."""
        cca = BBRv3(seed=8)
        _bell, conn = solo_run(cca, bw_mbps=10, seconds=10)
        cwnd_before = cca.cwnd_packets
        cca.on_loss_event(conn, conn.engine.now)
        cca._update_cwnd(conn)
        assert cca.cwnd_packets <= cwnd_before

    def test_kernel_version_changes_fairness(self):
        """Observation 13: Linux 4.15 vs 5.15 BBR produce measurably
        different outcomes against the same Cubic competitor."""
        shares = {}
        for label, params in (("4.15", BBR_LINUX_4_15), ("5.15", BBR_LINUX_5_15)):
            net = NetworkConfig(bandwidth_bps=units.mbps(20))
            bell = Dumbbell(net, seed=9)
            bbr_conn = Connection(
                bell.engine,
                bell.path_for_service("bbr"),
                BBRv1(params, seed=10),
                "bbr",
                "b0",
            )
            cubic_conn = Connection(
                bell.engine, bell.path_for_service("cubic"), Cubic(), "cubic", "c0"
            )
            bbr_conn.request(10**12)
            cubic_conn.request(10**12)
            bell.run(units.seconds(45))
            shares[label] = bbr_conn.bytes_received
        assert shares["4.15"] != shares["5.15"]
