"""``FairnessReport`` derives each cell once; it must publish exactly
what recomputing every cell from the raw trials would (see
``tests/naive_report.py``), and it must never serve a stale cell."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.analysis.site import render_bandwidth_section
from repro.core.experiment import EXTERNAL_LOSS_LIMIT
from repro.core import results
from repro.core.report import FairnessReport, render_grid
from repro.core.results import ResultStore
from repro.obs.metrics import get_registry

from tests import naive_report
from tests.test_report import fake_result

BW = units.mbps(8)
OTHER_BW = units.mbps(50)
POOL = ["netflix", "mega", "meet", "iperf_bbr", "vimeo", "zoom", "dropbox", "x"]

# Two decimals put many medians exactly on the 0.75 / 0.8 / 0.92 / 0.95
# thresholds, where a `<` traded for a `<=` would show.
share = st.integers(min_value=0, max_value=200).map(lambda n: n / 100)


def trial(
    contender, incumbent, shares, seed, valid, bandwidth,
    losses=(0.0, 0.0), delays_usec=(0.0, 0.0), utilization=None,
):
    result = fake_result(contender, incumbent, *shares, seed=seed)
    ids = list(result.mmf_share)
    return dataclasses.replace(
        result,
        bandwidth_bps=bandwidth,
        external_loss_fraction=0.0 if valid else EXTERNAL_LOSS_LIMIT * 2,
        loss_rate=dict(zip(ids, losses)),
        queueing_delay_usec=dict(zip(ids, delays_usec)),
        utilization=(
            result.utilization if utilization is None else utilization
        ),
    )


@st.composite
def stores(draw):
    """A store over 2-8 services: self pairs (``#2`` ids), unmeasured
    cells, invalid trials, and data at a second bandwidth to ignore;
    every trial has its own loss rates, queueing delays and
    utilisation."""
    ids = draw(
        st.lists(st.sampled_from(POOL), min_size=2, max_size=8, unique=True)
    )
    store = ResultStore()
    for i, a in enumerate(ids):
        for b in ids[i:]:
            for seed in range(draw(st.integers(min_value=0, max_value=3))):
                contender, incumbent = draw(st.permutations([a, b]))
                store.add(
                    trial(
                        contender,
                        incumbent,
                        [draw(share), draw(share)],
                        seed,
                        valid=draw(st.integers(0, 5)) > 0,
                        bandwidth=BW if draw(st.integers(0, 7)) else OTHER_BW,
                        losses=[draw(share) / 10, draw(share) / 10],
                        delays_usec=[
                            draw(st.integers(0, 300_000)) for _ in "ab"
                        ],
                        utilization=draw(share) / 2,
                    )
                )
    return store, ids


@settings(max_examples=120, deadline=None)
@given(stores())
def test_report_equals_naive_recomputation(case):
    store, ids = case
    report = FairnessReport(store, ids, BW)
    assert report.to_json() == naive_report.to_json(store, ids, BW)
    assert report.heatmap() == naive_report.heatmap(store, ids, BW)
    assert report.render_heatmap() == naive_report.render_heatmap(
        store, ids, BW
    )
    for thresholds in ({}, {"unfair_below": 0.8, "fair_above": 0.92}):
        assert list(report.find_non_transitive_triples(**thresholds)) == (
            naive_report.find_non_transitive_triples(
                store, ids, BW, **thresholds
            )
        )
    assert render_bandwidth_section(store, ids, BW) == (
        naive_report.render_bandwidth_section(store, ids, BW)
    )
    # Figs 11-13: the same grid path over the other per-trial quantities.
    for name, naive_value in naive_report.QUANTITIES.items():
        grid = report.grid(getattr(results, name))
        naive_grid = naive_report.grid(store, ids, BW, naive_value)
        assert grid == naive_grid, name
        assert render_grid(grid, ids, name, scale=100, fmt="{:.1f}") == (
            naive_report.render(naive_grid, ids, name, fmt="{:.1f}")
        )


def test_each_cell_is_derived_once_per_store_version():
    ids = POOL[:5]
    store = ResultStore()
    for i, a in enumerate(ids):
        for b in ids[i:]:
            store.add(trial(a, b, [1.2, 0.6], 0, True, BW))
    derived = get_registry().counter("core.report.cells_derived")
    before = derived.value
    report = FairnessReport(store, ids, BW)
    report.to_json()
    report.render_heatmap()
    list(report.find_non_transitive_triples())
    render_bandwidth_section(store, ids, BW)  # its own report: n^2 more
    assert derived.value - before == 2 * len(ids) ** 2


def test_a_trial_added_after_a_read_is_seen_by_the_next_read():
    store = ResultStore()
    store.add(trial("mega", "netflix", [1.6, 0.4], 0, True, BW))
    report = FairnessReport(store, ["mega", "netflix"], BW)
    assert report.median_share("netflix", "mega") == pytest.approx(0.4)
    assert report.heatmap()[("mega", "netflix")] == pytest.approx(0.4)
    store.add(trial("mega", "netflix", [1.0, 1.0], 1, True, BW))
    store.add(trial("mega", "netflix", [1.0, 1.0], 2, True, BW))
    assert report.median_share("netflix", "mega") == pytest.approx(1.0)
    assert report.heatmap()[("mega", "netflix")] == pytest.approx(1.0)
    assert report.to_json()["heatmap"]["mega|netflix"] == pytest.approx(1.0)
