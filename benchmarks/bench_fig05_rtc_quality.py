"""Fig 5 / Table 2: RTC QoE under contention for Meet and Teams.

Resolution, average FPS, freezes/minute and the fraction of packets above
the ITU 190 ms RTT requirement, against a panel of contenders in both
settings.  Shape targets: loss-based contenders (and Mega) push 40-90% of
packets over the delay bound; single-flow BBR contenders almost none
(Obs 6); Meet degrades resolution first, Teams FPS first (Obs 5).
"""

from .harness import SETTINGS, report, run_trials

CONTENDERS = [
    None,  # solo baseline
    "iperf_cubic",
    "iperf_reno",
    "iperf_bbr",
    "dropbox",
    "mega",
    "netflix",
    "youtube",
]


def _measure(rtc_id):
    table = {}
    for setting, network in SETTINGS.items():
        rows = {}
        for contender in CONTENDERS:
            [result] = run_trials(rtc_id, contender, network, trials=1, base_seed=5)
            rows[contender or "(solo)"] = result.service_metrics[rtc_id]
        table[setting] = rows
    return table


def _render(rtc_id, table):
    lines = []
    for setting, rows in table.items():
        lines.append(f"{setting}:")
        lines.append(
            f"  {'contender':<12} {'res':>6} {'fps':>6} {'fpm':>6} "
            f"{'high-delay':>11}"
        )
        for contender, metrics in rows.items():
            lines.append(
                f"  {contender:<12} {metrics['resolution_p']:>5.0f}p "
                f"{metrics['avg_fps']:>6.1f} "
                f"{metrics['freezes_per_minute']:>6.1f} "
                f"{metrics['fraction_high_delay'] * 100:>10.0f}%"
            )
        lines.append("")
    return "\n".join(lines)


def test_fig05_meet_quality():
    table = _measure("meet")
    report("Fig 5 - Google Meet QoE under contention", _render("meet", table))
    hc = table["highly-constrained (8 Mbps)"]
    # Observation 6: loss-based CCAs blow the ITU delay budget...
    assert hc["iperf_cubic"]["fraction_high_delay"] > 0.4
    assert hc["iperf_reno"]["fraction_high_delay"] > 0.4
    # ...single-flow BBR services cause almost none...
    assert hc["dropbox"]["fraction_high_delay"] < 0.1
    # ...but Mega (BBR!) is no panacea: its batch bursts still push a
    # visible share of packets past the budget (weaker than the paper's
    # 40-90%, see EXPERIMENTS.md).
    assert hc["mega"]["fraction_high_delay"] > 0.05
    # Meet protects FPS while giving up resolution.
    assert hc["iperf_cubic"]["resolution_p"] < 720
    assert hc["iperf_cubic"]["avg_fps"] > 20


def test_fig05_teams_quality():
    table = _measure("teams")
    report("Fig 5 - Microsoft Teams QoE under contention", _render("teams", table))
    hc = table["highly-constrained (8 Mbps)"]
    # Observation 5: Teams holds resolution but sacrifices frame rate.
    assert hc["iperf_cubic"]["resolution_p"] >= 360
    assert hc["iperf_cubic"]["avg_fps"] < 25
