#!/usr/bin/env python3
"""Publish experiment artifacts the way internetfairness.net does.

Section 7 of the paper: the website exposes bottleneck queue logs and
client PCAPs for every experiment so service owners can root-cause
unfairness.  This example runs one traced experiment (Mega vs OneDrive -
the paper's worst cell at 16% of MmF share) and writes the full artifact
bundle to ./artifacts/: the result, the flight recording (queue log and
per-flow CCA state; ``python -m repro obs flight summarize
<dir>/flight.json`` explains it), the packet trace with its drops, and
a summary.

Usage::

    python examples/publish_artifacts.py
"""

from pathlib import Path

import repro
from repro.core.artifacts import ArtifactPublisher


def main() -> None:
    catalog = repro.default_catalog()
    publisher = ArtifactPublisher(Path("artifacts"))

    print("running traced experiment: Mega vs OneDrive at 50 Mbps...")
    published = publisher.publish_pair(
        catalog.get("mega"),
        catalog.get("onedrive"),
        repro.moderately_constrained(),
        repro.ExperimentConfig().scaled(60),
        seed=8,
    )

    print(f"\npublished to {published.directory}/")
    for path in (
        published.result_path,
        published.flight_path,
        published.trace_path,
        published.summary_path,
    ):
        print(f"  {path.name:<20} {path.stat().st_size:>9} bytes")

    print("\n" + published.summary_path.read_text())


if __name__ == "__main__":
    main()
