#!/usr/bin/env python3
"""Publish a findings page the way internetfairness.net does.

Runs a small all-pairs watchdog cycle (a fixed two trials per pair, in
parallel across worker processes - the Section 9 scaling feature) and
renders the website-style Markdown findings report to ``findings.md``.

Usage::

    python examples/findings_site.py
"""

from pathlib import Path

import repro
from repro.analysis.site import render_markdown_report

SERVICES = ["youtube", "mega", "dropbox", "iperf_cubic", "iperf_reno"]


def main() -> None:
    network = repro.highly_constrained()
    config = repro.ExperimentConfig().scaled(40)
    watchdog = repro.Prudentia(
        networks=[network],
        experiment_config=config,
        policy_overrides={
            network.bandwidth_bps: repro.TrialPolicyConfig.fixed(2)
        },
        base_seed=17,
    )
    print("running the cycle in parallel...")
    store = watchdog.run_cycle(
        service_ids=SERVICES, backend=watchdog.backend(workers=2)
    )
    print(f"{watchdog.last_cycle_stats.trials_run} trials simulated")

    page = render_markdown_report(
        store, SERVICES, [network.bandwidth_bps]
    )
    out = Path("findings.md")
    out.write_text(page)
    print(f"wrote {out} ({out.stat().st_size} bytes)\n")
    print(page)


if __name__ == "__main__":
    main()
