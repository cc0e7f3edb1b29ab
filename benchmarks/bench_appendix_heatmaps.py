"""Appendix B: link-utilization (Fig 11), loss-rate (Fig 12) and
queueing-delay (Fig 13) heatmaps, plus Observations 9 and 10.

All three derive from the same all-pairs sweep as Fig 2.
"""

from repro.analysis.observations import observation9_utilization, observation10_loss
from repro.core.report import FairnessReport, render_grid
from repro.core.results import loss_rate, queueing_delay_ms, utilization

from .harness import SETTINGS, heatmap_service_ids, report


def test_fig11_link_utilization(sweep_store):
    ids = heatmap_service_ids()
    for name, network in SETTINGS.items():
        rep = FairnessReport(sweep_store, ids, network.bandwidth_bps)
        grid = rep.grid(utilization)
        body = render_grid(
            grid, ids, "median total link utilization (%)", scale=100
        )
        stats = observation9_utilization(
            sweep_store, ids, network.bandwidth_bps
        )
        body += (
            f"\nObservation 9: min {stats['min'] * 100:.0f}%, "
            f"median {stats['median'] * 100:.0f}%, "
            f">=95% in {stats['fraction_above_95'] * 100:.0f}% of pairs"
        )
        report(f"Fig 11 - link utilization heatmap, {name}", body)
        # Most pairs keep the link busy.
        assert stats["median"] > 0.9


def test_fig12_loss_rates(sweep_store):
    ids = heatmap_service_ids()
    hc = SETTINGS["highly-constrained (8 Mbps)"]
    for name, network in SETTINGS.items():
        rep = FairnessReport(sweep_store, ids, network.bandwidth_bps)
        grid = rep.grid(loss_rate)
        body = render_grid(
            grid, ids, "median loss rate of the incumbent (%)",
            scale=100, fmt="{:.1f}",
        )
        worst = observation10_loss(sweep_store, ids, network.bandwidth_bps)
        ranked = sorted(worst, key=worst.get, reverse=True)
        body += (
            "\nObservation 10 - median loss induced per contender: "
            + ", ".join(
                f"{sid}={worst[sid] * 100:.1f}%" for sid in ranked[:4]
            )
        )
        report(f"Fig 12 - loss rate heatmap, {name}", body)
    # Single-flow BBR vs single-flow BBR: essentially no loss (Obs 10).
    grid = FairnessReport(sweep_store, ids, hc.bandwidth_bps).grid(loss_rate)
    assert grid[("dropbox", "gdrive")] < 0.005
    # Mega is among the worst loss inducers at 8 Mbps.
    worst = observation10_loss(sweep_store, ids, hc.bandwidth_bps)
    ranked = sorted(worst, key=worst.get, reverse=True)
    assert "mega" in ranked[:3]


def test_fig13_queueing_delay(sweep_store):
    ids = heatmap_service_ids()
    for name, network in SETTINGS.items():
        rep = FairnessReport(sweep_store, ids, network.bandwidth_bps)
        grid = rep.grid(queueing_delay_ms)
        body = render_grid(
            grid, ids, "median mean queueing delay of incumbent (ms)",
            fmt="{:.0f}",
        )
        report(f"Fig 13 - queueing delay heatmap, {name}", body)
    # Loss-based contenders stand far deeper queues than BBR ones.
    hc = SETTINGS["highly-constrained (8 Mbps)"]
    grid = FairnessReport(sweep_store, ids, hc.bandwidth_bps).grid(
        queueing_delay_ms
    )
    assert grid[("iperf_cubic", "iperf_reno")] > grid[("dropbox", "gdrive")]
