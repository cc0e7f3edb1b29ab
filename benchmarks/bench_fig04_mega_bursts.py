"""Fig 4 / Observation 4: Mega's bursts vs persistent 5xBBR.

Regenerates (a) the throughput time series of Dropbox competing with Mega
(burst/ramp interleaving) and (b) the Observation-4 comparison table:
Dropbox / NewReno / Cubic against Mega and against five persistent iPerf
BBR flows, in the moderately-constrained setting.
"""

from repro import units
from repro.analysis.timeseries import render_sparkline
from repro.netsim.trace import PacketTrace

from .harness import CONFIG, MODERATELY, median_share, report, run_artifacts, run_trials


def _timeseries_run():
    trace = PacketTrace()
    result = run_artifacts(("mega", "dropbox"), MODERATELY, 11, [trace])
    return result, trace


def _comparison_table():
    rows = {}
    for incumbent in ("dropbox", "iperf_reno", "iperf_cubic"):
        vs_mega = run_trials("mega", incumbent, MODERATELY)
        vs_bbr5 = run_trials("iperf_bbr_x5", incumbent, MODERATELY)
        rows[incumbent] = (
            median_share(vs_mega, incumbent),
            median_share(vs_bbr5, incumbent),
        )
    return rows


def test_fig04_dropbox_vs_mega_timeseries(benchmark):
    result, trace = benchmark.pedantic(_timeseries_run, rounds=1, iterations=1)
    lines = []
    for sid in ("mega", "dropbox"):
        _t, rates = trace.throughput_series(
            sid, bin_usec=units.msec(500), start_usec=CONFIG.measure_start_usec,
        )
        lines.append(f"{sid:>8}: {render_sparkline(rates, width=90)}")
        lines.append(
            f"{'':>8}  (0..{max(rates):.0f} Mbps, 500 ms bins, "
            f"measured window)"
        )
    lines.append("")
    lines.append(
        f"shares in the same run: "
        + "  ".join(
            f"{sid}={share * 100:.0f}%"
            for sid, share in result.mmf_share.items()
        )
    )
    report("Fig 4 - Mega burst pattern vs Dropbox (time series)", "\n".join(lines))


def test_obs4_mega_vs_five_bbr_flows(benchmark):
    rows = benchmark.pedantic(_comparison_table, rounds=1, iterations=1)
    lines = [
        f"{'incumbent':<12} {'% MmF vs Mega':>14} {'% MmF vs 5xBBR':>15}"
        f"   (paper: Dropbox 90/33, Reno 22/80-90, Cubic 27/80-90)"
    ]
    for incumbent, (vs_mega, vs_bbr5) in rows.items():
        lines.append(
            f"{incumbent:<12} {vs_mega * 100:>14.0f} {vs_bbr5 * 100:>15.0f}"
        )
    report(
        "Observation 4 - Mega vs five persistent BBR flows (50 Mbps)",
        "\n".join(lines),
    )
    # Shape: Dropbox handles Mega far better than it handles 5xBBR.
    assert rows["dropbox"][0] > rows["dropbox"][1]
