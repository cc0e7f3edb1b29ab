"""Analysis helpers: grids, time series, observation calculators."""

import pytest

from repro import units
from repro.analysis.observations import (
    instability_by_pair,
    observation9_utilization,
    observation10_loss,
)
from repro.analysis.timeseries import render_sparkline
from repro.core.experiment import ExperimentResult
from repro.core.report import FairnessReport, render_grid
from repro.core.results import (
    ResultStore,
    loss_rate,
    queueing_delay_ms,
    utilization,
)

BW = units.mbps(8)


def synth(contender, incumbent, shares, loss=0.0, util=1.0, qdelay_ms=10.0, seed=0):
    ids = [contender, incumbent] if contender != incumbent else [contender, contender + "#2"]
    return ExperimentResult(
        contender_id=ids[0],
        incumbent_id=ids[1],
        bandwidth_bps=BW,
        buffer_packets=128,
        seed=seed,
        duration_usec=units.seconds(60),
        throughput_bps={sid: s * BW / 2 for sid, s in zip(ids, shares)},
        mmf_allocation_bps={sid: BW / 2 for sid in ids},
        mmf_share=dict(zip(ids, shares)),
        loss_rate={ids[0]: 0.0, ids[1]: loss},
        queueing_delay_usec={sid: qdelay_ms * 1000 for sid in ids},
        utilization=util,
    )


@pytest.fixture
def store():
    store = ResultStore()
    for seed in range(3):
        store.add(synth("mega", "youtube", [1.7, 0.3], loss=0.08, util=0.84, seed=seed))
        store.add(synth("youtube", "peer", [0.5, 1.2], loss=0.0, util=0.9, seed=seed))
        store.add(synth("mega", "peer", [1.4, 0.6], loss=0.04, util=0.8, seed=seed))
    return store


IDS = ["mega", "youtube", "peer"]


class TestGrids:
    def test_share_grid(self, store):
        grid = FairnessReport(store, IDS, BW).heatmap()
        assert grid[("mega", "youtube")] == pytest.approx(0.3)
        assert grid[("youtube", "mega")] == pytest.approx(1.7)
        assert grid[("mega", "mega")] is None  # no self trials recorded

    def test_loss_grid(self, store):
        grid = FairnessReport(store, IDS, BW).grid(loss_rate)
        assert grid[("mega", "youtube")] == pytest.approx(0.08)

    def test_utilization_grid_symmetricish(self, store):
        grid = FairnessReport(store, IDS, BW).grid(utilization)
        assert grid[("mega", "youtube")] == pytest.approx(0.84)
        assert grid[("youtube", "mega")] == pytest.approx(0.84)

    def test_queueing_delay_grid_in_ms(self, store):
        grid = FairnessReport(store, IDS, BW).grid(queueing_delay_ms)
        assert grid[("mega", "youtube")] == pytest.approx(10.0)

    def test_render_grid_text(self, store):
        grid = FairnessReport(store, IDS, BW).heatmap()
        text = render_grid(grid, IDS, "title", scale=100)
        assert "title" in text
        assert "---" in text  # missing cells rendered


class TestObservations:
    def test_obs1_losing_stats(self, store):
        stats = FairnessReport(store, IDS, BW).losing_service_stats()
        assert stats["pairs"] == 3
        assert 0 < stats["median_losing_share"] < 1

    def test_obs2_contentiousness_gap(self, store):
        scores = FairnessReport(store, IDS, BW).contentiousness()
        # Mega contentious (competitors get little), YouTube not.
        assert scores["mega"] < scores["youtube"]

    def test_obs9_utilization(self, store):
        stats = observation9_utilization(store, IDS, BW)
        assert stats["min"] == pytest.approx(0.8)
        assert 0 <= stats["fraction_above_95"] <= 1

    def test_obs10_median_loss_per_contender(self, store):
        worst = observation10_loss(store, IDS, BW)
        # Mega induces 0.08 on youtube and 0.04 on peer: median 0.06.
        assert worst["mega"] == pytest.approx(0.06)
        assert worst["mega"] > worst["youtube"]

    def test_instability_spread(self):
        store = ResultStore()
        for seed, share in enumerate([0.2, 1.0, 1.8]):
            store.add(synth("a", "b", [1.0, share], seed=seed))
        spreads = instability_by_pair(store, ["a", "b"], BW)
        assert spreads["b vs a"] > 0.5


class TestSparkline:
    def test_empty(self):
        assert render_sparkline([]) == ""

    def test_length_capped(self):
        line = render_sparkline(list(range(1000)), width=40)
        assert len(line) == 40

    def test_constant_series(self):
        line = render_sparkline([5.0] * 10)
        assert len(line) == 10
