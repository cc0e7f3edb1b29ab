"""Ablations of the design choices DESIGN.md calls out.

Not figures from the paper, but controlled removals of the mechanisms our
reproduction claims are load-bearing:

- **Mega's batch machinery**: fresh-connections-per-batch vs one
  persistent five-flow pool (Observation 4 says the batching, not the
  flow count alone, drives Mega's behaviour).
- **The BESS power-of-two queue quirk**: 4xBDP rounded to 128/1024
  packets vs the exact 133/833.
- **ABR conservatism**: YouTube's stability-seeking ABR vs an aggressive
  buffer-rate ABR on the same BBR flow (Observation 2 says the ABR, not
  the CCA, makes YouTube uncontentious).
"""

from dataclasses import replace

from .harness import HIGHLY, LONG_CONFIG, MODERATELY, median_share, median_throughput_mbps, report, run_trials


def test_ablation_mega_batching():
    rows = {
        fresh: median_throughput_mbps(
            run_trials(mega, "iperf_reno", MODERATELY), mega
        )
        for fresh, mega in ((True, "mega"), (False, "mega_persistent"))
    }
    report(
        "Ablation - Mega per-batch connection cycling vs persistent flows",
        f"fresh connections per batch: Mega median "
        f"{rows[True]:.1f} Mbps vs NewReno at 50 Mbps\n"
        f"persistent five-flow pool:   Mega median {rows[False]:.1f} Mbps\n"
        f"(the batch machinery, not just 5 flows, shapes the outcome)",
    )
    assert rows[True] > 0 and rows[False] > 0


def test_ablation_power_of_two_queue():
    shares = {}
    for quirk in (True, False):
        network = replace(HIGHLY, power_of_two_queue=quirk)
        results = run_trials("iperf_cubic", "iperf_reno", network)
        shares[quirk] = (
            network.queue_packets,
            median_share(results, "iperf_reno"),
        )
    report(
        "Ablation - BESS power-of-two queue sizing (8 Mbps, Cubic vs Reno)",
        f"power-of-two (BESS quirk): {shares[True][0]} packets -> Reno "
        f"{shares[True][1] * 100:.0f}% of MmF\n"
        f"exact 4xBDP:               {shares[False][0]} packets -> Reno "
        f"{shares[False][1] * 100:.0f}% of MmF",
    )
    # The quirk changes the queue size but not the qualitative outcome.
    assert shares[True][0] == 128
    assert shares[False][0] == 133
    assert shares[True][1] < 1.0 and shares[False][1] < 1.0


def test_ablation_abr_conservatism():
    # The two ABRs part ways only once the playback buffer has filled, so
    # this is a steady-state comparison (LONG_CONFIG, as for calibration).
    rows = {
        label: median_share(
            run_trials(video, "iperf_cubic", HIGHLY, config=LONG_CONFIG),
            "iperf_cubic",
        )
        for label, video in (
            ("conservative (YouTube)", "youtube"),
            ("aggressive (buffer-rate)", "youtube_buffer_rate"),
        )
    }
    lines = [
        f"{label}: competitor gets {share * 100:.0f}% of its MmF share"
        for label, share in rows.items()
    ]
    lines.append(
        "(same CCA, same ladder - only the ABR changed: Observation 2)"
    )
    report(
        "Ablation - ABR conservatism on a BBR-backed video service (8 Mbps)",
        "\n".join(lines),
    )
    # The aggressive ABR grabs more, leaving the competitor with less.
    assert rows["aggressive (buffer-rate)"] <= rows["conservative (YouTube)"]
