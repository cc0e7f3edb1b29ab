"""The flow-owned packet free list must be invisible to the simulation.

Loss detection compares in-flight entries by object identity, so recycling
a packet that anything still references would corrupt ACK accounting.
These tests pin the safety contract: with the pool on vs off, every
observable output - counters, packet trace, queue log - is identical, and
the pool actually recycles under steady-state load.
"""

import pytest

from repro import units
from repro.cca.cubic import Cubic
from repro.config import ExperimentConfig, NetworkConfig, highly_constrained
from repro.core.experiment import run_trial_artifacts
from repro.netsim.topology import Dumbbell
from repro.netsim.trace import PacketTrace
from repro.obs.flight import FlightRecorder
from repro.services.catalog import default_catalog
from repro.transport.connection import Connection


@pytest.fixture
def pool_size(monkeypatch):
    def set_size(n):
        monkeypatch.setattr(Connection, "PACKET_POOL_SIZE", n)

    return set_size


def _run_lossy_bulk(seed=3):
    """One cubic bulk flow through a tiny queue (drops + fast retransmit)."""
    net = NetworkConfig(
        bandwidth_bps=units.mbps(8),
        queue_packets_override=16,
        external_loss_rate=0.01,
    )
    bell = Dumbbell(net, seed=seed)
    flight = FlightRecorder(grid_usec=10_000)
    flight.attach(bell.link)
    PacketTrace().attach(bell.link)
    conn = Connection(
        bell.engine, bell.path_for_service("svc"), Cubic(), "svc", "svc-0"
    )
    conn.request(2000 * 1500)
    bell.run(units.seconds(6))
    return conn, bell, flight


def _signature(conn, bell, flight):
    return {
        "sent": conn.packets_sent,
        "acked": conn.packets_acked,
        "lost": conn.packets_marked_lost,
        "rto": conn.rto_count,
        "received": conn.packets_received_unique,
        "bytes_acked": conn.bytes_acked,
        "trace": bell.link.trace.to_json(),
        "queue_log": flight.queue.to_json(),
    }


class TestPoolEquivalence:
    def test_lossy_bulk_identical_with_and_without_pool(self, pool_size):
        pool_size(0)
        off = _signature(*_run_lossy_bulk())
        pool_size(2048)
        on = _signature(*_run_lossy_bulk())
        assert on == off

    def test_pair_trial_identical_with_and_without_pool(self, pool_size):
        # Contending CCAs exercise ACK-dither reordering, spurious loss
        # marking, and late ACKs for retransmitted sequence numbers - the
        # paths where premature recycling would corrupt identity checks.
        catalog = default_catalog()
        specs = [catalog.get("iperf_cubic"), catalog.get("iperf_bbr")]
        config = ExperimentConfig().scaled(3.0)

        def run():
            trace = PacketTrace()
            result, _testbed = run_trial_artifacts(
                specs, highly_constrained(), config, seed=2, recorders=[trace]
            )
            return result.to_json(), trace.to_json()

        pool_size(0)
        report_off, trace_off = run()
        pool_size(2048)
        report_on, trace_on = run()
        assert report_on == report_off
        assert trace_on == trace_off


class TestPoolMechanics:
    def test_pool_recycles_under_steady_load(self):
        conn = _run_lossy_bulk()[0]
        # Thousands of packets moved; without recycling the pool would be
        # empty and every send would have allocated.
        assert conn.packets_sent > 1500
        assert len(conn._pool) > 0

    def test_pool_respects_cap(self, pool_size):
        pool_size(4)
        conn = _run_lossy_bulk()[0]
        assert len(conn._pool) <= 4

    def test_disabled_pool_stays_empty(self, pool_size):
        pool_size(0)
        conn = _run_lossy_bulk()[0]
        assert conn._pool == []

    def test_recycled_packets_reset_bottleneck_fields(self):
        conn = _run_lossy_bulk()[0]
        for pkt in conn._pool:
            # A pooled packet's chain finished; the flags must reflect it.
            assert pkt._chain_done
            assert not pkt._in_order
