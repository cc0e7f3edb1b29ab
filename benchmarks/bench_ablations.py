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

from repro import units
from repro.cca.bbr import BBRv1, BBR_LINUX_4_15, BBR_YOUTUBE_QUIC_2023
from repro.config import NetworkConfig
from repro.core.experiment import run_pair_experiment
from repro.core.stats import median
from repro.core.testbed import Testbed
from repro.services.abr import BitrateLadder, BufferRateABR, ConservativeABR
from repro.services.catalog import YOUTUBE_LADDER
from repro.services.filetransfer import MegaTransferService
from repro.services.video import VideoOnDemandService

from .harness import CATALOG, CONFIG, HIGHLY, MODERATELY, TRIALS, report


def _mega_run(fresh: bool, seed: int):
    testbed = Testbed(MODERATELY, seed=seed)
    mega = MegaTransferService(
        "mega",
        cca_factory=lambda i: BBRv1(BBR_LINUX_4_15, seed=seed * 7 + i),
        fresh_connections_per_batch=fresh,
    )
    testbed.add_service(mega)
    testbed.add_service(CATALOG.create("iperf_reno", seed=seed + 100))
    testbed.start_all()
    testbed.run_window(CONFIG)
    thr = testbed.throughput_bps()
    return thr["mega"] / 1e6, testbed.loss_rates()["iperf_reno"]


def test_ablation_mega_batching(benchmark):
    def run():
        rows = {}
        for fresh in (True, False):
            megas = [
                _mega_run(fresh, seed)[0] for seed in range(1, TRIALS + 1)
            ]
            rows[fresh] = median(megas)
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        "Ablation - Mega per-batch connection cycling vs persistent flows",
        f"fresh connections per batch: Mega median "
        f"{rows[True]:.1f} Mbps vs NewReno at 50 Mbps\n"
        f"persistent five-flow pool:   Mega median {rows[False]:.1f} Mbps\n"
        f"(the batch machinery, not just 5 flows, shapes the outcome)",
    )
    assert rows[True] > 0 and rows[False] > 0


def test_ablation_power_of_two_queue(benchmark):
    def run():
        shares = {}
        for quirk in (True, False):
            network = replace(HIGHLY, power_of_two_queue=quirk)
            results = [
                run_pair_experiment(
                    CATALOG.get("iperf_cubic"),
                    CATALOG.get("iperf_reno"),
                    network,
                    CONFIG,
                    seed=seed,
                )
                for seed in range(1, TRIALS + 1)
            ]
            shares[quirk] = (
                network.queue_packets,
                median([r.mmf_share["iperf_reno"] for r in results]),
            )
        return shares

    shares = benchmark.pedantic(run, rounds=1, iterations=1)
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


def _youtube_variant(abr, seed: int):
    testbed = Testbed(HIGHLY, seed=seed)
    video = VideoOnDemandService(
        "youtube_variant",
        cca_factory=lambda i: BBRv1(BBR_YOUTUBE_QUIC_2023, seed=seed * 3 + i),
        ladder=BitrateLadder([units.mbps(m) for m in YOUTUBE_LADDER]),
        abr=abr,
        num_flows=1,
    )
    competitor = CATALOG.create("iperf_cubic", seed=seed + 200)
    testbed.add_service(video)
    testbed.add_service(competitor)
    testbed.start_all()
    testbed.run_window(CONFIG)
    thr = testbed.throughput_bps()
    return thr["iperf_cubic"] / (HIGHLY.bandwidth_bps / 2)


def test_ablation_abr_conservatism(benchmark):
    def run():
        rows = {}
        for label, abr in (
            ("conservative (YouTube)", ConservativeABR()),
            ("aggressive (buffer-rate)", BufferRateABR()),
        ):
            rows[label] = median(
                [_youtube_variant(abr, seed) for seed in range(1, TRIALS + 1)]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
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
