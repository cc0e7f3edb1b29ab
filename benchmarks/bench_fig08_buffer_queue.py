"""Fig 8 / Observation 11: buffer sizing changes fairness and utilization.

(a) Mega vs NewReno at 50 Mbps with the standard 4xBDP (1024-packet)
buffer vs a doubled 8xBDP (2048-packet) buffer: queue-occupancy time
series plus utilization/share table.  (b) The Obs-11 counterpoint: Reno
vs Cubic at 8 Mbps gets *worse* with the bigger buffer.
"""

from repro.analysis.timeseries import render_sparkline
from repro.core.sweep import run_sweep
from repro.obs.flight import FlightRecorder

from .harness import BACKEND, CONFIG, HIGHLY, MODERATELY, TRIALS, report, run_artifacts


def _traced_queue_run(buffer_multiple):
    network = MODERATELY.with_buffer_multiple(buffer_multiple)
    flight = FlightRecorder(grid_usec=10_000)
    result = run_artifacts(("mega", "iperf_reno"), network, 13, [flight])
    return {
        "capacity": network.queue_packets,
        "occupancy": flight.queue.occupancy,
        "utilization": result.utilization,
        "throughput": result.throughput_bps,
    }


def _measure():
    return {4.0: _traced_queue_run(4.0), 8.0: _traced_queue_run(8.0)}


def test_fig08_buffer_doubling():
    runs = _measure()
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


def test_obs11_reno_vs_cubic_worse_with_big_buffer():
    points = run_sweep(
        "buffer", "iperf_cubic", "iperf_reno", [4.0, 8.0], CONFIG,
        base_network=HIGHLY, trials=TRIALS, base_seed=17, backend=BACKEND,
    )
    shares = {p.parameter: p.share_b for p in points}
    report(
        "Observation 11 - NewReno's share vs Cubic at 8 Mbps by buffer size",
        f"4xBDP: {shares[4.0] * 100:.0f}% of MmF   "
        f"8xBDP: {shares[8.0] * 100:.0f}% of MmF   "
        f"(paper: 60% -> 28%)",
    )
    # Cubic is optimised for big buffers: Reno's share drops.
    assert shares[8.0] < shares[4.0]
