"""Terminal rendering for the dynamics figures (Figs 4, 8, 10).

The series themselves come straight from the recorders a trial attached:
``PacketTrace.throughput_series`` for Fig 4's per-service throughput,
a ``FlightRecorder``'s ``queue.occupancy`` for Fig 8's bottleneck-queue
occupancy.
"""

from __future__ import annotations

from typing import List


def render_sparkline(values: List[float], width: int = 80) -> str:
    """Compact text sparkline for terminal rendering of a series."""
    if not values:
        return ""
    blocks = " .:-=+*#%@"
    lo, hi = min(values), max(values)
    span = (hi - lo) or 1.0
    if len(values) > width:
        # Downsample by averaging buckets.
        bucket = len(values) / width
        sampled = []
        for i in range(width):
            chunk = values[int(i * bucket): max(int((i + 1) * bucket), int(i * bucket) + 1)]
            sampled.append(sum(chunk) / len(chunk))
        values = sampled
    return "".join(
        blocks[min(int((v - lo) / span * (len(blocks) - 1)), len(blocks) - 1)]
        for v in values
    )
