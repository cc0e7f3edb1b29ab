#!/usr/bin/env python3
"""Appendix A workflow: submit a third-party service for testing.

Service owners can submit URLs to internetfairness.net (with an access
code) and have the watchdog schedule them against the regular catalog.
This example submits a download URL, classifies its CCA with the
CCAnalyzer-style classifier, then tests it against Mega.

Usage::

    python examples/submit_service.py
"""

import repro
from repro.cca import Cubic, classify_cca
from repro.core.submission import DEFAULT_ACCESS_CODES, SubmissionPortal


def main() -> None:
    catalog = repro.default_catalog()
    portal = SubmissionPortal(catalog)

    url = "https://downloads.example.com/dataset.zip"
    submission = portal.submit(url, DEFAULT_ACCESS_CODES[0])
    print(f"accepted submission: {url}")
    print(f"  registered as service id {submission.service_id!r} "
          f"({submission.kind})\n")

    # The watchdog does not trust the submitter's CCA claim: classify it.
    label = classify_cca(Cubic, duration_sec=25.0)
    print(f"CCA classifier verdict for the submitted server: {label}\n")

    config = repro.ExperimentConfig().scaled(60)
    result = repro.run_pair_experiment(
        catalog.get(submission.service_id),
        catalog.get("mega"),
        repro.moderately_constrained(),
        config,
        seed=4,
    )
    print("first scheduled experiment - submitted service vs Mega at 50 Mbps:")
    for sid in result.throughput_bps:
        print(f"  {sid:<28} {result.throughput_mbps(sid):6.2f} Mbps "
              f"({result.mmf_share[sid] * 100:.0f}% of MmF share)")


if __name__ == "__main__":
    main()
