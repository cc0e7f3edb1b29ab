"""Section 9 extensions: N-way contention, parameter sweeps, vantage mode."""

import pytest

from repro import units
from repro.config import ExperimentConfig, NetworkConfig, highly_constrained
from repro.core.experiment import run_multi_experiment
from repro.core.sweep import (
    SweepPoint,
    background_loss_sweep,
    bandwidth_sweep,
    buffer_sweep,
    render_sweep,
    rtt_sweep,
)
from repro.services.catalog import default_catalog

CATALOG = default_catalog()
FAST = ExperimentConfig().scaled(20)


class TestMultiExperiment:
    def test_three_way_contention(self):
        result = run_multi_experiment(
            [
                CATALOG.get("iperf_cubic"),
                CATALOG.get("iperf_reno"),
                CATALOG.get("iperf_bbr"),
            ],
            highly_constrained(),
            FAST,
            seed=1,
        )
        assert len(result.throughput_bps) == 3
        # Three unbounded services split an 8 Mbps link three ways.
        for alloc in result.mmf_allocation_bps.values():
            assert alloc == pytest.approx(units.mbps(8) / 3)
        assert result.utilization > 0.9

    def test_duplicate_specs_suffixed(self):
        result = run_multi_experiment(
            [CATALOG.get("iperf_reno")] * 3,
            highly_constrained(),
            FAST,
            seed=2,
        )
        assert set(result.throughput_bps) == {
            "iperf_reno",
            "iperf_reno#2",
            "iperf_reno#3",
        }

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            run_multi_experiment([], highly_constrained(), FAST)

    def test_bbr_flow_advantage_against_many_renos(self):
        """Section 9: a single BBR flow holds a large share even against
        several NewReno flows (the flow-count-disadvantage result)."""
        specs = [CATALOG.get("iperf_bbr")] + [CATALOG.get("iperf_reno")] * 3
        result = run_multi_experiment(
            specs,
            highly_constrained(),
            ExperimentConfig().scaled(90),
            seed=3,
        )
        bbr = result.throughput_bps["iperf_bbr"]
        total = sum(result.throughput_bps.values())
        # Far above its 1/4 flow share... at least a quarter of the link.
        assert bbr / total > 0.25

    def test_capped_service_in_nway_waterfill(self):
        result = run_multi_experiment(
            [
                CATALOG.get("meet"),        # capped at 1.5 Mbps
                CATALOG.get("iperf_cubic"),
                CATALOG.get("iperf_reno"),
            ],
            highly_constrained(),
            FAST,
            seed=4,
        )
        assert result.mmf_allocation_bps["meet"] == units.mbps(1.5)
        assert result.mmf_allocation_bps["iperf_cubic"] == pytest.approx(
            units.mbps(3.25)
        )


class TestSweeps:
    def test_bandwidth_sweep_points(self):
        points = bandwidth_sweep(
            CATALOG.get("iperf_cubic"),
            CATALOG.get("iperf_reno"),
            [4, 8],
            FAST,
            trials=2,
        )
        assert [p.parameter for p in points] == [4, 8]
        for point in points:
            assert isinstance(point, SweepPoint)
            assert point.share_a > 0 and point.share_b > 0

    def test_buffer_sweep_changes_outcomes(self):
        points = buffer_sweep(
            CATALOG.get("iperf_cubic"),
            CATALOG.get("iperf_reno"),
            [1.0, 16.0],
            highly_constrained(),
            ExperimentConfig().scaled(40),
            trials=2,
        )
        shares = {p.parameter: p.share_b for p in points}
        assert shares[1.0] != shares[16.0]

    def test_rtt_sweep_runs(self):
        points = rtt_sweep(
            CATALOG.get("iperf_bbr"),
            CATALOG.get("iperf_cubic"),
            [20, 50],
            highly_constrained(),
            FAST,
            trials=1,
        )
        assert len(points) == 2

    def test_background_loss_hurts_loss_based(self):
        """Section 9's prediction: random loss suppresses Reno."""
        points = background_loss_sweep(
            CATALOG.get("iperf_reno"),
            CATALOG.get("iperf_bbr"),
            [0.0, 0.02],
            highly_constrained(),
            ExperimentConfig().scaled(40),
            trials=2,
        )
        reno = {p.parameter: p.share_a for p in points}
        assert reno[0.02] < reno[0.0]

    def test_render_sweep_text(self):
        points = [SweepPoint(8.0, 0.5, 1.5, 2e6, 6e6, 0.99)]
        text = render_sweep(points, "a", "b", "bw")
        assert "8.00" in text and "50" in text


class TestVantageMode:
    def test_unnormalised_rtts_differ(self):
        from repro.netsim.topology import Dumbbell

        net = NetworkConfig(
            bandwidth_bps=units.mbps(10), normalize_rtt=False
        )
        bell = Dumbbell(net, seed=5)
        a = bell.path_for_service("near")
        b = bell.path_for_service("far")
        assert a.base_rtt_usec != b.base_rtt_usec
        # Both within the paper's observed 10-40 ms native range.
        for path in (a, b):
            assert units.msec(9) < path.base_rtt_usec < units.msec(41)

    def test_explicit_native_rtt_respected(self):
        from repro.netsim.topology import Dumbbell

        net = NetworkConfig(
            bandwidth_bps=units.mbps(10), normalize_rtt=False
        )
        bell = Dumbbell(net, seed=5)
        path = bell.path_for_service("cdn", native_rtt_usec=units.msec(12))
        assert abs(path.base_rtt_usec - units.msec(12)) <= units.msec(0.2)

    def test_rtt_advantage_changes_fairness(self):
        """A CDN-close Cubic flow beats a far Cubic flow when RTTs are not
        normalised - the confound the paper's methodology removes."""
        from repro.netsim.topology import Dumbbell
        from repro.transport.connection import Connection
        from repro.cca.cubic import Cubic

        net = NetworkConfig(
            bandwidth_bps=units.mbps(10), normalize_rtt=False
        )
        bell = Dumbbell(net, seed=6)
        near = Connection(
            bell.engine,
            bell.path_for_service("near", native_rtt_usec=units.msec(10)),
            Cubic(),
            "near",
            "n0",
        )
        far = Connection(
            bell.engine,
            bell.path_for_service("far", native_rtt_usec=units.msec(40)),
            Cubic(),
            "far",
            "f0",
        )
        near.request(10**12)
        far.request(10**12)
        bell.run(units.seconds(40))
        assert near.bytes_received > far.bytes_received
