"""Fig 6: page-load times under contention, both settings.

Section 5.2 protocol (scaled): start the contender, give it a head start,
then repeatedly load the page in a fresh browser and record the
SpeedIndex-style PLT (95% of above-the-fold bytes).  Shape targets:
contention roughly doubles (50 Mbps) / triples (8 Mbps) PLTs in the worst
case; the image-heavy youtube.com page suffers most, text-heavy wikipedia
least; BBR contenders hurt least at 50 Mbps.
"""

from repro.config import ExperimentConfig

from .harness import DURATION_SEC, FIG06_PAGES, SETTINGS, report, run_trials

PAGES = list(FIG06_PAGES)
CONTENDERS = [None, "mega", "netflix", "iperf_cubic", "dropbox"]

#: Long enough for several loads in the measurement window at any scale.
PLT_CONFIG = ExperimentConfig().scaled(max(DURATION_SEC, 100.0))


def _median_plt(page, contender_id, network):
    """Median PLT of the loads in the window: one trial of the page's
    Fig 6 variant (6 s head start, 8 s gap) against ``contender_id``."""
    variant = FIG06_PAGES[page]
    [result] = run_trials(
        variant, contender_id, network, trials=1, config=PLT_CONFIG, base_seed=7
    )
    return result.service_metrics[variant].get("median_plt_sec", float("nan"))


def _measure_all():
    return {
        setting: {
            page: {
                contender or "(solo)": _median_plt(page, contender, network)
                for contender in CONTENDERS
            }
            for page in PAGES
        }
        for setting, network in SETTINGS.items()
    }


def test_fig06_page_load_times():
    table = _measure_all()
    lines = []
    for setting, rows in table.items():
        lines.append(f"{setting}: median PLT seconds (95% above-the-fold)")
        header = f"  {'page':<12}" + "".join(
            f"{(c or '(solo)')[:11]:>12}" for c in CONTENDERS
        )
        lines.append(header)
        for page, by_contender in rows.items():
            cells = "".join(
                f"{by_contender[c or '(solo)']:>12.2f}" for c in CONTENDERS
            )
            lines.append(f"  {page:<12}{cells}")
        lines.append("")
    report("Fig 6 - Page load times under contention", "\n".join(lines))

    hc = table["highly-constrained (8 Mbps)"]
    # Contention inflates PLT; the worst case is large (paper: ~3x).
    worst_ratio = max(
        hc[page][c] / hc[page]["(solo)"]
        for page in PAGES
        for c in ("mega", "netflix", "iperf_cubic")
    )
    assert worst_ratio > 1.8
    # youtube.com (image-heavy) suffers more seconds of delay than
    # wikipedia (text) under the same worst contender.
    yt_delta = max(hc["youtube_web"][c] - hc["youtube_web"]["(solo)"]
                   for c in ("mega", "netflix"))
    wiki_delta = max(hc["wikipedia"][c] - hc["wikipedia"]["(solo)"]
                     for c in ("mega", "netflix"))
    assert yt_delta > wiki_delta
