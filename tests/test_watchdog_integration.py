"""End-to-end watchdog runs (scaled-down but full-protocol)."""

import pytest

from repro import units
from repro.config import (
    ExperimentConfig,
    NetworkConfig,
    TrialPolicyConfig,
    highly_constrained,
)
from repro.core.results import mmf_share
from repro.core.watchdog import Prudentia
from repro.services.catalog import default_catalog

#: A tiny-but-real policy: 2 trials minimum, generous CI threshold so
#: stable pairs finish in one batch.
FAST_POLICY = TrialPolicyConfig(
    min_trials=2,
    max_trials=4,
    batch_size=2,
    ci_halfwidth_bps=units.mbps(3.0),
)


@pytest.fixture(scope="module")
def watchdog():
    dog = Prudentia(
        networks=[highly_constrained()],
        experiment_config=ExperimentConfig().scaled(20),
        policy_overrides={units.mbps(8): FAST_POLICY},
        base_seed=7,
    )
    dog.run_cycle(
        service_ids=["iperf_cubic", "iperf_reno", "iperf_bbr"],
        include_self_pairs=True,
    )
    return dog


class TestCycle:
    def test_all_pairs_measured(self, watchdog):
        shares = watchdog.store.pair_samples(units.mbps(8), mmf_share)
        for a in ("iperf_cubic", "iperf_reno", "iperf_bbr"):
            for b in ("iperf_cubic", "iperf_reno", "iperf_bbr"):
                assert len(shares.get((a, b), [])) >= 2, (a, b)

    def test_report_heatmap(self, watchdog):
        report = watchdog.report(
            highly_constrained(),
            service_ids=["iperf_cubic", "iperf_reno", "iperf_bbr"],
        )
        grid = report.heatmap()
        assert all(v is not None for v in grid.values())

    def test_known_physics_cubic_beats_reno(self, watchdog):
        report = watchdog.report(
            highly_constrained(),
            service_ids=["iperf_cubic", "iperf_reno"],
        )
        reno = report.median_share("iperf_reno", "iperf_cubic")
        cubic = report.median_share("iperf_cubic", "iperf_reno")
        assert reno < 1.0 < cubic

    def test_losing_stats_computable(self, watchdog):
        report = watchdog.report(
            highly_constrained(),
            service_ids=["iperf_cubic", "iperf_reno", "iperf_bbr"],
        )
        stats = report.losing_service_stats()
        assert stats["pairs"] == 3
        assert 0 < stats["median_losing_share"] <= 1.2

    def test_continuous_mode_accumulates(self):
        """Successive cycles accumulate in one store, each under fresh
        seeds (the cycle counter advances the base seed)."""
        dog = Prudentia(
            networks=[highly_constrained()],
            experiment_config=ExperimentConfig().scaled(20),
            policy_overrides={units.mbps(8): FAST_POLICY},
        )
        ids = ["iperf_cubic", "iperf_reno"]
        dog.run_cycle(service_ids=ids)
        first = {r.seed for r in dog.store.all_results()}
        dog.run_cycle(service_ids=ids)
        assert dog.cycles_completed == 2
        seeds = [r.seed for r in dog.store.all_results()]
        # No seed ran twice, and the second cycle added trials.
        assert len(set(seeds)) == len(seeds)
        assert first < set(seeds)
        shares = dog.store.pair_samples(units.mbps(8), mmf_share)[
            ("iperf_reno", "iperf_cubic")
        ]
        assert len(shares) >= 4


class TestCalibration:
    def test_table1_renders(self):
        dog = Prudentia(
            networks=[NetworkConfig(bandwidth_bps=units.mbps(50))],
            experiment_config=ExperimentConfig().scaled(20),
        )
        table = dog.table1()
        assert "OneDrive" in table
        assert "Mega" in table
        assert "UPSTREAM THROTTLED" in table  # OneDrive flagged

    def test_calibration_classifies_ceilings(self):
        # Video needs a long enough warmup that the initial playback-
        # buffer fill (which runs at link rate) is excluded.
        dog = Prudentia(
            networks=[NetworkConfig(bandwidth_bps=units.mbps(50))],
            experiment_config=ExperimentConfig().scaled(90),
        )
        calibs = dog.calibrate(
            service_ids=["iperf_bbr", "youtube", "onedrive"]
        )
        assert calibs["iperf_bbr"].is_link_limited
        assert calibs["youtube"].is_application_limited
        assert calibs["onedrive"].is_upstream_throttled

    def test_calibration_runs_in_the_watchdogs_client_environment(self):
        """Table 1 and the cycles describe the same client (Section
        3.3): a watchdog on a headless client reads the render-capped
        solo ceiling its cycles see, not the faithful testbed's."""
        from repro.browser.environment import ClientEnvironment
        from repro.core.calibration import calibrate_catalog
        from repro.core.runner import InlineBackend

        net = NetworkConfig(bandwidth_bps=units.mbps(50))
        config = ExperimentConfig().scaled(20)
        env = ClientEnvironment.headless_automation()
        catalog = default_catalog()

        def solo_bps(**kwargs):
            dog = Prudentia(networks=[net], experiment_config=config, **kwargs)
            return dog.calibrate(net, ["youtube"])["youtube"].solo_throughput_bps

        headless = solo_bps(env=env)
        assert headless == calibrate_catalog(
            catalog, net, config, ["youtube"],
            backend=InlineBackend(catalog, env=env),
        )["youtube"].solo_throughput_bps
        assert headless < 0.5 * solo_bps()
