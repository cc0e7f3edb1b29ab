"""Fig 8 / Observation 11: buffer sizing changes fairness and utilization.

(a) Mega vs NewReno at 50 Mbps with the standard 4xBDP (1024-packet)
buffer vs a doubled 8xBDP (2048-packet) buffer: queue-occupancy time
series plus utilization/share table.  (b) The Obs-11 counterpoint: Reno
vs Cubic at 8 Mbps gets *worse* with the bigger buffer.
"""

from repro.analysis.timeseries import queue_occupancy_timeseries, render_sparkline

from .harness import HIGHLY, MODERATELY, median_share, report, run_artifacts, run_trials


def _traced_queue_run(buffer_multiple):
    network = MODERATELY.with_buffer_multiple(buffer_multiple)
    result, testbed = run_artifacts(("mega", "iperf_reno"), network, seed=13)
    _times, occ = queue_occupancy_timeseries(testbed.bell.queue_log)
    return {
        "capacity": network.queue_packets,
        "occupancy": occ,
        "utilization": result.utilization,
        "throughput": result.throughput_bps,
    }


def _measure():
    return {4.0: _traced_queue_run(4.0), 8.0: _traced_queue_run(8.0)}


def test_fig08_buffer_doubling(benchmark):
    runs = benchmark.pedantic(_measure, rounds=1, iterations=1)
    lines = []
    for multiple, data in runs.items():
        occ = data["occupancy"]
        lines.append(
            f"{multiple:.0f}xBDP ({data['capacity']} packets): "
            f"utilization {data['utilization'] * 100:.0f}%  "
            f"mega {data['throughput']['mega'] / 1e6:.1f} Mbps  "
            f"reno {data['throughput']['iperf_reno'] / 1e6:.1f} Mbps"
        )
        lines.append(
            f"  queue occupancy: {render_sparkline(occ, width=90)} "
            f"(0..{max(occ)} pkts)"
        )
    report(
        "Fig 8 - Mega vs NewReno queue dynamics at 4xBDP vs 8xBDP (50 Mbps)",
        "\n".join(lines),
    )
    # The paper's queue-size facts hold exactly.
    assert runs[4.0]["capacity"] == 1024
    assert runs[8.0]["capacity"] == 2048
    # The bigger buffer does not hurt (and typically helps) Reno+Mega
    # utilization.
    assert runs[8.0]["utilization"] >= runs[4.0]["utilization"] - 0.02


def test_obs11_reno_vs_cubic_worse_with_big_buffer(benchmark):
    def measure():
        shares = {}
        for multiple in (4.0, 8.0):
            network = HIGHLY.with_buffer_multiple(multiple)
            results = run_trials("iperf_cubic", "iperf_reno", network, base_seed=17)
            shares[multiple] = median_share(results, "iperf_reno")
        return shares

    shares = benchmark.pedantic(measure, rounds=1, iterations=1)
    report(
        "Observation 11 - NewReno's share vs Cubic at 8 Mbps by buffer size",
        f"4xBDP: {shares[4.0] * 100:.0f}% of MmF   "
        f"8xBDP: {shares[8.0] * 100:.0f}% of MmF   "
        f"(paper: 60% -> 28%)",
    )
    # Cubic is optimised for big buffers: Reno's share drops.
    assert shares[8.0] < shares[4.0]
