"""Fairness reporting over synthetic result sets (fast, no simulation)."""

import pytest

from repro import units
from repro.core.experiment import ExperimentResult
from repro.core.report import FairnessReport
from repro.core.results import ResultStore

BW = units.mbps(8)


def fake_result(contender, incumbent, share_contender, share_incumbent, seed=0):
    """Build a synthetic trial with given MmF shares."""
    alloc = BW / 2
    ids = (
        [contender, incumbent]
        if contender != incumbent
        else [contender, contender + "#2"]
    )
    shares = [share_contender, share_incumbent]
    return ExperimentResult(
        contender_id=ids[0],
        incumbent_id=ids[1],
        bandwidth_bps=BW,
        buffer_packets=128,
        seed=seed,
        duration_usec=units.seconds(60),
        throughput_bps={sid: s * alloc for sid, s in zip(ids, shares)},
        mmf_allocation_bps={sid: alloc for sid in ids},
        mmf_share={sid: s for sid, s in zip(ids, shares)},
        loss_rate={sid: 0.0 for sid in ids},
        queueing_delay_usec={sid: 0.0 for sid in ids},
        utilization=(share_contender + share_incumbent) / 2,
    )


@pytest.fixture
def store():
    """A hand-built world: 'bully' crushes everyone, 'meek' yields."""
    store = ResultStore()
    # bully vs meek: meek gets 20%, bully 180%.
    for seed in range(3):
        store.add(fake_result("bully", "meek", 1.8, 0.2, seed))
        store.add(fake_result("bully", "peer", 1.5, 0.5, seed))
        store.add(fake_result("meek", "peer", 0.8, 1.2, seed))
        store.add(fake_result("bully", "bully", 1.0, 0.9, seed))
        store.add(fake_result("meek", "meek", 1.0, 1.0, seed))
        store.add(fake_result("peer", "peer", 1.0, 0.95, seed))
    return store


SERVICES = ["bully", "meek", "peer"]


class TestHeatmap:
    def test_median_share_lookup(self, store):
        report = FairnessReport(store, SERVICES, BW)
        assert report.median_share("meek", "bully") == pytest.approx(0.2)
        assert report.median_share("bully", "meek") == pytest.approx(1.8)

    def test_missing_pair_is_none(self, store):
        report = FairnessReport(store, SERVICES + ["ghost"], BW)
        assert report.median_share("ghost", "bully") is None

    def test_grid_complete(self, store):
        report = FairnessReport(store, SERVICES, BW)
        grid = report.heatmap()
        assert len(grid) == 9
        assert grid[("bully", "meek")] == pytest.approx(0.2)

    def test_render_heatmap_text(self, store):
        report = FairnessReport(store, SERVICES, BW)
        text = report.render_heatmap()
        assert "bully" in text
        assert "20" in text  # meek's 20% cell


class TestWinnerLoserStats:
    def test_losing_shares(self, store):
        report = FairnessReport(store, SERVICES, BW)
        losers = sorted(report.losing_shares())
        assert losers == pytest.approx([0.2, 0.5, 0.8])

    def test_stats_block(self, store):
        report = FairnessReport(store, SERVICES, BW)
        stats = report.losing_service_stats()
        assert stats["pairs"] == 3
        assert stats["median_losing_share"] == pytest.approx(0.5)
        assert stats["fraction_below_50pct"] == pytest.approx(2 / 3)
        assert stats["fraction_below_90pct"] == pytest.approx(1.0)

    def test_self_competition(self, store):
        report = FairnessReport(store, SERVICES, BW)
        shares = report.self_competition_shares()
        assert shares["meek"] == pytest.approx(1.0)
        assert shares["bully"] == pytest.approx(0.9)


class TestContentiousnessSensitivity:
    def test_rankings(self, store):
        report = FairnessReport(store, SERVICES, BW)
        assert report.most_contentious() == "bully"
        assert report.least_contentious() == "meek"

    def test_sensitivity_scores(self, store):
        report = FairnessReport(store, SERVICES, BW)
        sens = report.sensitivity()
        # meek suffers the most across its contenders.
        assert min(sens, key=sens.get) == "meek"

    def test_contentiousness_excludes_self(self, store):
        report = FairnessReport(store, SERVICES, BW)
        scores = report.contentiousness()
        # bully's score derives from meek (0.2) and peer (0.5) only.
        assert scores["bully"] == pytest.approx((0.2 + 0.5) / 2)


class TestTransitivity:
    def test_finds_planted_violation(self):
        store = ResultStore()
        # alpha hurts beta, beta hurts gamma, but gamma thrives vs alpha.
        for seed in range(3):
            store.add(fake_result("alpha", "beta", 1.6, 0.4, seed))
            store.add(fake_result("beta", "gamma", 1.5, 0.5, seed))
            store.add(fake_result("alpha", "gamma", 0.95, 1.05, seed))
        report = FairnessReport(store, ["alpha", "beta", "gamma"], BW)
        triples = list(report.find_non_transitive_triples())
        assert any(
            t.alpha == "alpha" and t.beta == "beta" and t.gamma == "gamma"
            for t in triples
        )

    def test_transitive_world_has_no_violations(self):
        store = ResultStore()
        for seed in range(3):
            store.add(fake_result("a", "b", 1.6, 0.4, seed))
            store.add(fake_result("b", "c", 1.5, 0.5, seed))
            store.add(fake_result("a", "c", 1.7, 0.3, seed))
        report = FairnessReport(store, ["a", "b", "c"], BW)
        assert list(report.find_non_transitive_triples()) == []
