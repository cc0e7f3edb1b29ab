"""Experiment runner and result store: one trial end-to-end."""

import pytest

from repro import units
from repro.config import ExperimentConfig, NetworkConfig, highly_constrained
from repro.core.experiment import (
    EXTERNAL_LOSS_LIMIT,
    ExperimentResult,
    run_pair_experiment,
    run_solo_experiment,
    run_trial_artifacts,
)
from repro.core.results import ResultStore, mmf_share
from repro.netsim.trace import PacketTrace, Probe
from repro.obs.flight import FlightRecorder
from repro.services.catalog import default_catalog

CATALOG = default_catalog()
FAST = ExperimentConfig().scaled(20)


@pytest.fixture(scope="module")
def cubic_vs_reno():
    return run_pair_experiment(
        CATALOG.get("iperf_cubic"),
        CATALOG.get("iperf_reno"),
        highly_constrained(),
        FAST,
        seed=1,
    )


class TestRecorders:
    def test_a_trial_without_recorders_records_nothing(self):
        """No packet trace or flight recorder unless asked:
        the link's probe has no subscriber, so its gate stays idle."""
        _result, testbed = run_trial_artifacts(
            [CATALOG.get("iperf_cubic"), CATALOG.get("iperf_reno")],
            highly_constrained(),
            ExperimentConfig().scaled(3),
            seed=1,
        )
        link = testbed.bell.link
        assert link.probe._subscribers == []
        assert link._probe_next == Probe.IDLE
        assert link.trace is None

    def test_recorders_attach_in_order_and_flight_meta_is_labelled(self):
        trace = PacketTrace()
        flight = FlightRecorder(meta={"seed": "kept"})
        fine = FlightRecorder(grid_usec=10_000)
        _result, testbed = run_trial_artifacts(
            [CATALOG.get("iperf_cubic"), CATALOG.get("iperf_cubic")],
            highly_constrained(),
            ExperimentConfig().scaled(3),
            seed=4,
            recorders=[flight, trace, fine],
        )
        link = testbed.bell.link
        assert [sub[2] for sub in link.probe._subscribers] == [
            flight.sample, fine.sample,
        ]
        assert link.trace is trace
        assert len(trace) > 0 and len(fine.queue) > len(flight.queue)
        assert link.probe.labels == [flight.meta, fine.meta]
        assert flight.meta == {
            "seed": "kept",
            "service_ids": ["iperf_cubic", "iperf_cubic"],
            "bandwidth_bps": highly_constrained().bandwidth_bps,
            "buffer_packets": highly_constrained().queue_packets,
        }


class TestPairExperiment:
    def test_both_services_measured(self, cubic_vs_reno):
        assert set(cubic_vs_reno.throughput_bps) == {"iperf_cubic", "iperf_reno"}

    def test_shares_reference_allocation(self, cubic_vs_reno):
        result = cubic_vs_reno
        for sid in result.throughput_bps:
            expected = result.throughput_bps[sid] / result.mmf_allocation_bps[sid]
            assert result.mmf_share[sid] == pytest.approx(expected)

    def test_unbounded_pair_splits_capacity(self, cubic_vs_reno):
        alloc = cubic_vs_reno.mmf_allocation_bps
        assert alloc["iperf_cubic"] == alloc["iperf_reno"] == units.mbps(4)

    def test_full_utilization(self, cubic_vs_reno):
        assert cubic_vs_reno.utilization > 0.9

    def test_loss_and_delay_populated(self, cubic_vs_reno):
        assert set(cubic_vs_reno.loss_rate) == set(cubic_vs_reno.throughput_bps)
        assert all(v >= 0 for v in cubic_vs_reno.queueing_delay_usec.values())

    def test_valid_without_external_loss(self, cubic_vs_reno):
        assert cubic_vs_reno.valid

    def test_deterministic_given_seed(self):
        kwargs = dict(
            network=highly_constrained(), config=FAST, seed=33
        )
        a = run_pair_experiment(
            CATALOG.get("iperf_cubic"), CATALOG.get("iperf_reno"), **kwargs
        )
        b = run_pair_experiment(
            CATALOG.get("iperf_cubic"), CATALOG.get("iperf_reno"), **kwargs
        )
        assert a.throughput_bps == b.throughput_bps

    def test_different_seeds_differ(self):
        results = [
            run_pair_experiment(
                CATALOG.get("iperf_cubic"),
                CATALOG.get("iperf_reno"),
                highly_constrained(),
                FAST,
                seed=s,
            ).throughput_bps["iperf_reno"]
            for s in (1, 2)
        ]
        assert results[0] != results[1]

    def test_self_pair_gets_suffixed_instance(self):
        result = run_pair_experiment(
            CATALOG.get("iperf_reno"),
            CATALOG.get("iperf_reno"),
            highly_constrained(),
            FAST,
            seed=2,
        )
        assert set(result.throughput_bps) == {"iperf_reno", "iperf_reno#2"}

    def test_capped_service_allocation(self):
        """A 13 Mbps YouTube on a 50 Mbps link frees bandwidth for the
        contender (the Fig 2 application-limited MmF rule)."""
        result = run_pair_experiment(
            CATALOG.get("youtube"),
            CATALOG.get("dropbox"),
            NetworkConfig(bandwidth_bps=units.mbps(50)),
            FAST,
            seed=1,
        )
        assert result.mmf_allocation_bps["youtube"] == units.mbps(13)
        assert result.mmf_allocation_bps["dropbox"] == units.mbps(37)

    def test_external_loss_invalidates_trial(self):
        net = NetworkConfig(
            bandwidth_bps=units.mbps(8), external_loss_rate=0.01
        )
        result = run_pair_experiment(
            CATALOG.get("iperf_cubic"),
            CATALOG.get("iperf_reno"),
            net,
            FAST,
            seed=1,
        )
        assert result.external_loss_fraction > EXTERNAL_LOSS_LIMIT
        assert not result.valid


class TestSoloExperiment:
    def test_solo_fills_link(self):
        result = run_solo_experiment(
            CATALOG.get("iperf_bbr"), highly_constrained(), FAST, seed=1
        )
        assert result.throughput_mbps("iperf_bbr") > 7

    def test_solo_capped_service(self):
        result = run_solo_experiment(
            CATALOG.get("meet"), highly_constrained(), FAST, seed=1
        )
        assert result.throughput_mbps("meet") < 2.0
        assert result.mmf_allocation_bps["meet"] == units.mbps(1.5)


class TestSerialization:
    def test_json_roundtrip(self, cubic_vs_reno):
        payload = cubic_vs_reno.to_json()
        restored = ExperimentResult.from_json(payload)
        assert restored.throughput_bps == cubic_vs_reno.throughput_bps
        assert restored.mmf_share == cubic_vs_reno.mmf_share
        assert restored.valid == cubic_vs_reno.valid


class TestResultStore:
    def test_add_and_query(self, cubic_vs_reno):
        store = ResultStore()
        store.add(cubic_vs_reno)
        trials = store.trials("iperf_cubic", "iperf_reno", units.mbps(8))
        assert len(trials) == 1
        # Order of the pair does not matter.
        assert store.trials("iperf_reno", "iperf_cubic", units.mbps(8))

    def test_shares_lookup(self, cubic_vs_reno):
        store = ResultStore()
        store.add(cubic_vs_reno)
        shares = store.pair_samples(units.mbps(8), mmf_share)[
            ("iperf_reno", "iperf_cubic")
        ]
        assert shares == [cubic_vs_reno.mmf_share["iperf_reno"]]

    def test_invalid_trials_filtered(self):
        store = ResultStore()
        result = ExperimentResult(
            contender_id="a",
            incumbent_id="b",
            bandwidth_bps=units.mbps(8),
            buffer_packets=128,
            seed=0,
            duration_usec=1,
            throughput_bps={"a": 1.0, "b": 1.0},
            mmf_share={"a": 1.0, "b": 1.0},
            external_loss_fraction=0.5,
        )
        store.add(result)
        assert store.trials("a", "b", units.mbps(8))
        assert store.valid_trials("a", "b", units.mbps(8)) == []

    def test_self_pair_share_resolution(self):
        result = run_pair_experiment(
            CATALOG.get("iperf_reno"),
            CATALOG.get("iperf_reno"),
            highly_constrained(),
            FAST,
            seed=5,
        )
        store = ResultStore()
        store.add(result)
        shares = store.pair_samples(units.mbps(8), mmf_share)[
            ("iperf_reno", "iperf_reno")
        ]
        assert len(shares) == 1
