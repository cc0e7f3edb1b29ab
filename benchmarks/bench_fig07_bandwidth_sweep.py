"""Fig 7 / Observation 12: YouTube vs Dropbox across bottleneck bandwidths.

The paper's surprise: YouTube's MmF share against Dropbox *decreases* as
bandwidth grows from 8 to 50 Mbps (its ABR sits below its ladder top under
contention) and only recovers at ~70+ Mbps where even the contended share
exceeds the top bitrate.  Contentiousness is not monotone in bandwidth.
"""

from repro.core.sweep import run_sweep

from .harness import BACKEND, LONG_CONFIG, TRIALS, report

BANDWIDTHS_MBPS = [8, 20, 30, 50, 70, 100]


def _sweep():
    points = run_sweep(
        "bandwidth", "youtube", "dropbox", BANDWIDTHS_MBPS, LONG_CONFIG,
        trials=TRIALS, base_seed=31, backend=BACKEND,
    )
    return {
        p.parameter: (
            p.share_a, p.throughput_a_bps / 1e6, p.throughput_b_bps / 1e6
        )
        for p in points
    }


def test_fig07_bandwidth_sweep(benchmark):
    rows = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    lines = [
        f"{'bandwidth':>10} {'YouTube %MmF':>13} {'YouTube Mbps':>13} "
        f"{'Dropbox Mbps':>13}"
    ]
    for bw, (share, yt_mbps, db_mbps) in rows.items():
        lines.append(
            f"{bw:>8}Mb {share * 100:>13.0f} {yt_mbps:>13.2f} {db_mbps:>13.2f}"
        )
    report(
        "Fig 7 - YouTube vs Dropbox MmF share across bandwidths "
        "(Observation 12: non-monotonic)",
        "\n".join(lines),
    )
    shares = {bw: row[0] for bw, row in rows.items()}
    # Fairness at very high bandwidth recovers (YouTube can reach its top
    # bitrate even when contended).
    assert shares[100] > 0.85
    # Non-monotonicity: some middle bandwidth is worse than an earlier one
    # or worse than the 100 Mbps endpoint.
    middle_min = min(shares[20], shares[30], shares[50], shares[70])
    assert middle_min < shares[100]
