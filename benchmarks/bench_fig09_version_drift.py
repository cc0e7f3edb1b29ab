"""Fig 9 / Observation 13: CCA/stack version changes move fairness.

(a) YouTube's 2022 vs 2023 QUIC stack and Google Drive's BBRv1 vs BBRv3,
each against iPerf BBR (Linux 4.15): the 2023 deployments claim more
throughput.  (b) The same service pairs against BBR from Linux 4.15 vs
Linux 5.15: an 'innocent kernel upgrade' changes outcomes.
"""

from .harness import (
    MODERATELY,
    median_throughput_mbps,
    report,
    run_trials,
)


def _fig9a():
    rows = {}
    for before, after in (("youtube_2022", "youtube"), ("gdrive_2022", "gdrive")):
        rows[after] = {
            "2022": median_throughput_mbps(
                run_trials(before, "iperf_bbr_415", MODERATELY, base_seed=19),
                before,
            ),
            "2023": median_throughput_mbps(
                run_trials(after, "iperf_bbr_415", MODERATELY, base_seed=19),
                after,
            ),
        }
    return rows


def _fig9b():
    rows = {}
    for service in ("dropbox", "gdrive", "youtube"):
        rows[service] = {
            kernel: median_throughput_mbps(
                run_trials(service, iperf, MODERATELY, base_seed=23), service
            )
            for kernel, iperf in (
                ("linux-4.15", "iperf_bbr_415"),
                ("linux-5.15", "iperf_bbr"),
            )
        }
    return rows


def test_fig09a_deployment_changes():
    rows = _fig9a()
    lines = [
        f"{'service':<10} {'2022 stack':>12} {'2023 stack':>12}  "
        f"(Mbps vs iPerf BBR 4.15; paper: YouTube +172%, Drive +46%)"
    ]
    for service, data in rows.items():
        lines.append(
            f"{service:<10} {data['2022']:>12.2f} {data['2023']:>12.2f}"
        )
    report("Fig 9a - 2022 vs 2023 service stacks vs iPerf BBR", "\n".join(lines))
    # The 2023 stacks perform at least as well; YouTube clearly better.
    assert rows["youtube"]["2023"] > rows["youtube"]["2022"]


def test_fig09b_kernel_upgrade_changes():
    rows = _fig9b()
    lines = [
        f"{'service':<10} {'vs BBR 4.15':>12} {'vs BBR 5.15':>12}  (Mbps)"
    ]
    for service, data in rows.items():
        lines.append(
            f"{service:<10} {data['linux-4.15']:>12.2f} "
            f"{data['linux-5.15']:>12.2f}"
        )
    report(
        "Fig 9b - kernel BBR version changes competitor throughput",
        "\n".join(lines),
    )
    # A kernel upgrade measurably moves at least one service's outcome.
    moved = [
        abs(data["linux-4.15"] - data["linux-5.15"]) / max(data["linux-4.15"], 0.01)
        for data in rows.values()
    ]
    assert max(moved) > 0.05
