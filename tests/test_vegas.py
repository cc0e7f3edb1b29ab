"""TCP Vegas: the delay-based family representative."""

import pytest

from repro import units
from repro.config import NetworkConfig
from repro.netsim.topology import Dumbbell
from repro.obs.flight import FlightRecorder
from repro.transport.connection import Connection
from repro.cca.vegas import Vegas
from repro.cca.cubic import Cubic
from repro.cca.classifier import classify_cca


def solo(cca, bw=10, seconds=25, seed=1, recorders=()):
    net = NetworkConfig(bandwidth_bps=units.mbps(bw))
    bell = Dumbbell(net, seed=seed)
    for recorder in recorders:
        recorder.attach(bell.link)
    conn = Connection(bell.engine, bell.path_for_service("s"), cca, "s", "s0")
    conn.request(10**12)
    bell.run(units.seconds(seconds))
    return bell, conn


class TestParameters:
    def test_rejects_bad_alpha_beta(self):
        with pytest.raises(ValueError):
            Vegas(alpha_packets=0)
        with pytest.raises(ValueError):
            Vegas(alpha_packets=5, beta_packets=2)


class TestSoloBehaviour:
    def test_fills_link(self):
        _bell, conn = solo(Vegas(), seconds=25)
        assert conn.bytes_received * 8 / 25 / 1e6 > 9.0

    def test_tiny_standing_queue(self):
        """Vegas targets 2-4 queued packets - no buffer filling."""
        flight = FlightRecorder(grid_usec=10_000)
        solo(Vegas(), recorders=[flight])
        occ = flight.queue.occupancy
        tail = occ[len(occ) // 3:]
        assert sum(tail) / len(tail) < 8

    def test_no_loss_solo(self):
        bell, _conn = solo(Vegas())
        assert bell.queue.loss_rate("s") == 0.0

    def test_classifier_labels_delay_based(self):
        assert classify_cca(lambda: Vegas(), duration_sec=22) == "delay-based"


class TestCoexistence:
    def test_starved_by_cubic(self):
        """The classic delay-based pathology: a buffer-filler inflates
        Vegas's RTT signal and Vegas politely yields."""
        net = NetworkConfig(bandwidth_bps=units.mbps(10))
        bell = Dumbbell(net, seed=3)
        vegas = Connection(
            bell.engine, bell.path_for_service("vegas"), Vegas(), "vegas", "v0"
        )
        cubic = Connection(
            bell.engine, bell.path_for_service("cubic"), Cubic(), "cubic", "c0"
        )
        vegas.request(10**12)
        cubic.request(10**12)
        bell.run(units.seconds(40))
        share = vegas.bytes_received / (
            vegas.bytes_received + cubic.bytes_received
        )
        assert share < 0.25

    def test_two_vegas_share_fairly(self):
        net = NetworkConfig(bandwidth_bps=units.mbps(10))
        bell = Dumbbell(net, seed=4)
        a = Connection(bell.engine, bell.path_for_service("a"), Vegas(), "a", "a0")
        b = Connection(bell.engine, bell.path_for_service("b"), Vegas(), "b", "b0")
        a.request(10**12)
        b.request(10**12)
        bell.run(units.seconds(40))
        share = a.bytes_received / (a.bytes_received + b.bytes_received)
        assert 0.35 < share < 0.65
