#!/usr/bin/env python3
"""A miniature Prudentia deployment: all-pairs sweep + fairness report.

Runs the full watchdog pipeline the way internetfairness.net does - solo
calibration, round-robin all-pairs scheduling with the CI-of-the-median
trial policy, then heatmap/report generation - over a subset of services
so it finishes in a few minutes.

Usage::

    python examples/watchdog_cycle.py
"""

import repro
from repro import units
from repro.config import TrialPolicyConfig

SERVICES = ["youtube", "mega", "dropbox", "iperf_cubic", "iperf_reno"]


def main() -> None:
    watchdog = repro.Prudentia(
        networks=[repro.highly_constrained()],
        experiment_config=repro.ExperimentConfig().scaled(40),
        # 2-4 trials with a loose CI instead of the paper's 10-30: this is
        # a demo, the protocol is identical.
        policy_overrides={
            units.mbps(8): TrialPolicyConfig(
                min_trials=2,
                max_trials=4,
                batch_size=2,
                ci_halfwidth_bps=units.mbps(1.0),
            )
        },
        base_seed=42,
    )

    print(f"Sweeping {len(SERVICES)} services, all pairs + self-pairs, "
          f"at 8 Mbps...")
    watchdog.run_cycle(service_ids=SERVICES)
    print(f"{len(watchdog.store)} trials recorded.\n")

    report = watchdog.report(repro.highly_constrained(), service_ids=SERVICES)
    print(report.render_heatmap())

    stats = report.losing_service_stats()
    print(f"\nlosing services: median {stats['median_losing_share'] * 100:.0f}% "
          f"of MmF share; {stats['fraction_below_90pct'] * 100:.0f}% of pairs "
          f"below 90%")
    print(f"most contentious service:  {report.most_contentious()}")
    print(f"least contentious service: {report.least_contentious()}")

    triples = list(report.find_non_transitive_triples(
        unfair_below=0.8, fair_above=0.9
    ))
    if triples:
        t = triples[0]
        print(f"\nnon-transitivity example (Observation 14): "
              f"{t.alpha} hurts {t.beta} ({t.beta_vs_alpha * 100:.0f}%), "
              f"{t.beta} hurts {t.gamma} ({t.gamma_vs_beta * 100:.0f}%), "
              f"but {t.gamma} vs {t.alpha} = {t.gamma_vs_alpha * 100:.0f}%")


if __name__ == "__main__":
    main()
