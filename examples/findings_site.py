#!/usr/bin/env python3
"""Publish a findings page the way internetfairness.net does.

Runs a small all-pairs sweep (in parallel across CPU cores - the
Section 9 scaling feature) and renders the website-style Markdown
findings report to ``findings.md``.

Usage::

    python examples/findings_site.py
"""

from pathlib import Path

import repro
from repro.analysis.site import render_markdown_report
from repro.core.runner import ProcessPoolBackend, all_pairs_trials

SERVICES = ["youtube", "mega", "dropbox", "iperf_cubic", "iperf_reno"]


def main() -> None:
    network = repro.highly_constrained()
    config = repro.ExperimentConfig().scaled(40)
    trials = all_pairs_trials(
        SERVICES, network, config, trials_per_pair=2, base_seed=17
    )
    print(f"running {len(trials)} trials in parallel...")
    store = ProcessPoolBackend().run_into_store(trials)

    page = render_markdown_report(
        store, SERVICES, [network.bandwidth_bps]
    )
    out = Path("findings.md")
    out.write_text(page)
    print(f"wrote {out} ({out.stat().st_size} bytes)\n")
    print(page)


if __name__ == "__main__":
    main()
