#!/usr/bin/env python3
"""Watch Mega's batch bursts on the bottleneck queue (Fig 4 / Fig 8).

Runs Mega against a NewReno bulk flow at 50 Mbps with packet tracing on,
then renders terminal sparklines of each service's throughput and of the
bottleneck queue occupancy, showing the batch/barrier burst structure.

Usage::

    python examples/mega_bursts.py
"""

import repro
from repro import units
from repro.analysis.timeseries import (
    queue_occupancy_timeseries,
    render_sparkline,
    throughput_timeseries,
)
from repro.core.experiment import run_trial_artifacts


def main() -> None:
    catalog = repro.default_catalog()
    network = repro.moderately_constrained()
    # 60 simulated seconds, the last 48 of them scored.
    config = repro.ExperimentConfig(
        duration_usec=units.seconds(60),
        warmup_usec=units.seconds(12),
        cooldown_usec=0,
    )

    print("simulating 60 seconds of Mega vs iPerf (NewReno) at 50 Mbps...")
    result, testbed = run_trial_artifacts(
        [catalog.get("mega"), catalog.get("iperf_reno")],
        network,
        config,
        seed=7,
        trace_packets=True,
    )

    for sid in ("mega", "iperf_reno"):
        times, rates = throughput_timeseries(
            testbed.bell.trace, sid, bin_ms=250
        )
        peak = max(rates)
        print(f"\n{sid} throughput (0..{peak:.0f} Mbps, 250 ms bins):")
        print(" " + render_sparkline(rates, width=100))

    _t, occupancy = queue_occupancy_timeseries(testbed.bell.queue_log)
    print(f"\nqueue occupancy (0..{max(occupancy)} of "
          f"{network.queue_packets} packets):")
    print(" " + render_sparkline(occupancy, width=100))

    drops = testbed.bell.queue.drops
    print(f"\ndrops: {drops}")
    shares = "  ".join(
        f"{sid}={share * 100:.0f}%" for sid, share in result.mmf_share.items()
    )
    print(f"MmF shares over the scored window: {shares}")
    print("Each Mega batch opens with five synchronized flows bursting "
          "into the queue; the barrier and decrypt gap between batches "
          "drains it again (Observation 4).")


if __name__ == "__main__":
    main()
