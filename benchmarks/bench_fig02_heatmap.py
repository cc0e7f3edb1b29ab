"""Fig 2: median MmF-share heatmaps (8 Mbps and 50 Mbps) + Observation 1.

The all-pairs sweep over the ten video/file-transfer/iPerf services.  The
sweep's result store is shared with the Fig 11/12/13 and Table 3 benches.
"""

from repro import units
from repro.core.report import FairnessReport, render_grid

from .harness import (
    SETTINGS,
    heatmap_service_ids,
    report,
)


def test_fig02_mmf_share_heatmaps(sweep_store):
    ids = heatmap_service_ids()
    for name, network in SETTINGS.items():
        rep = FairnessReport(sweep_store, ids, network.bandwidth_bps)
        body = render_grid(
            rep.heatmap(),
            ids,
            "rows = contender, cols = incumbent; "
            "cell = median % of incumbent's MmF share",
            scale=100,
        )
        stats = rep.losing_service_stats()
        obs = (
            f"\nObservation 1 ({name}): median losing share "
            f"{stats['median_losing_share'] * 100:.0f}%  |  "
            f"losers <=90%: {stats['fraction_below_90pct'] * 100:.0f}%  |  "
            f"losers <=50%: {stats['fraction_below_50pct'] * 100:.0f}%"
        )
        selfs = rep.self_competition_shares()
        mean_self = sum(selfs.values()) / len(selfs) if selfs else 0
        obs += (
            f"\nself-competition mean share: {mean_self * 100:.0f}% "
            f"(paper: 88%)"
        )
        contentious = rep.most_contentious()
        gentle = rep.least_contentious()
        obs += (
            f"\nmost contentious: {contentious}  |  "
            f"least contentious: {gentle}"
        )
        report(f"Fig 2 - MmF share heatmap, {name}", body + obs)

    # Shape assertions against the paper's headline claims.
    hc = SETTINGS["highly-constrained (8 Mbps)"].bandwidth_bps
    rep = FairnessReport(sweep_store, ids, hc)
    stats = rep.losing_service_stats()
    # Unfairness is the common case.
    assert stats["median_losing_share"] < 0.95
    assert stats["fraction_below_90pct"] > 0.4
    # Mega sits in the contentious half; YouTube among the least
    # contentious (the Observation 2 contrast).
    scores = rep.contentiousness()
    ranked = sorted(scores, key=scores.get)
    assert ranked.index("mega") < ranked.index("youtube")
    assert "youtube" in ranked[-4:]
