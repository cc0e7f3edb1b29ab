"""Fig 3: multi-flow services (Mega x5, Netflix x4, Vimeo x2) vs
single-flow incumbents in both settings.

The paper's shape: at 8 Mbps Mega and Netflix (multi-flow, link-filling)
are unfair to single-flow incumbents while Vimeo is not; at 50 Mbps
Netflix and Vimeo are application-limited and harmless.
"""

from repro import units
from repro.core.report import FairnessReport

from .harness import SETTINGS, full_sweep_store, report


MULTIFLOW = ["mega", "netflix", "vimeo"]
INCUMBENTS = ["iperf_reno", "iperf_cubic", "iperf_bbr", "dropbox"]


def _collect():
    store = full_sweep_store()
    rows = {}
    for name, network in SETTINGS.items():
        rep = FairnessReport(
            store, MULTIFLOW + INCUMBENTS, network.bandwidth_bps
        )
        rows[name] = {
            contender: {
                incumbent: rep.median_share(incumbent, contender)
                for incumbent in INCUMBENTS
            }
            for contender in MULTIFLOW
        }
    return rows


def test_fig03_multiflow_services():
    rows = _collect()
    lines = []
    for name, by_contender in rows.items():
        lines.append(f"{name}: incumbent's % of MmF share")
        header = f"  {'contender':<10}" + "".join(
            f"{i[:11]:>13}" for i in INCUMBENTS
        )
        lines.append(header)
        for contender, shares in by_contender.items():
            cells = "".join(
                f"{(shares[i] or 0) * 100:>13.0f}" for i in INCUMBENTS
            )
            lines.append(f"  {contender:<10}{cells}")
        lines.append("")
    report("Fig 3 - Multi-flow services vs single-flow incumbents", "\n".join(lines))

    hc = rows["highly-constrained (8 Mbps)"]
    mc = rows["moderately-constrained (50 Mbps)"]
    # At 8 Mbps Mega hurts single-flow incumbents more than Vimeo does.
    mega_mean = sum(v for v in hc["mega"].values()) / len(INCUMBENTS)
    vimeo_mean = sum(v for v in hc["vimeo"].values()) / len(INCUMBENTS)
    assert mega_mean < vimeo_mean
    # At 50 Mbps application-limited Netflix and Vimeo are harmless.
    for contender in ("netflix", "vimeo"):
        for incumbent in INCUMBENTS:
            assert mc[contender][incumbent] > 0.8, (contender, incumbent)
