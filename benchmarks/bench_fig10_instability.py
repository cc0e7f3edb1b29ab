"""Fig 10 / Observation 15: some services are unstable across trials.

Per-trial throughput scatter for OneDrive (unstable in both settings,
thanks to its varying upstream throttle) against a stable control pair
(Dropbox vs Google Drive).  Also exercises the Section 3.4 trial policy:
the unstable pair fails the CI threshold and would be re-queued.
"""

from repro import units
from repro.config import trial_policy_for
from repro.core.policy import TrialPolicy
from repro.core.stats import iqr, median

from .harness import MODERATELY, per_trial, report, run_trials

N_TRIALS = 8


def _scatter(contender, incumbent):
    results = run_trials(
        contender, incumbent, MODERATELY, trials=N_TRIALS, base_seed=29
    )
    return [bps / 1e6 for bps in per_trial(results, "throughput_bps", incumbent)]


def _measure():
    return {
        ("onedrive", "iperf_cubic"): _scatter("iperf_cubic", "onedrive"),
        # Control pair: two deterministic loss-based flows converge fast
        # and give tight trial-to-trial numbers.
        ("iperf_cubic", "iperf_reno"): _scatter("iperf_reno", "iperf_cubic"),
    }


def test_fig10_trial_instability():
    scatter = _measure()
    lines = []
    spreads = {}
    for (incumbent, contender), samples in scatter.items():
        q25, q75 = iqr(samples)
        mid = median(samples)
        spreads[incumbent] = (q75 - q25) / mid if mid else float("inf")
        dots = "  ".join(f"{s:5.1f}" for s in sorted(samples))
        lines.append(
            f"{incumbent} vs {contender} (Mbps per trial): {dots}"
        )
        lines.append(
            f"  median {mid:.1f}, IQR [{q25:.1f}, {q75:.1f}], "
            f"relative spread {spreads[incumbent] * 100:.0f}%"
        )
    # Trial-policy verdicts at the paper's CI threshold (min_trials is
    # lowered to the samples we actually ran; the CI rule is unchanged).
    from dataclasses import replace

    base = trial_policy_for(MODERATELY)
    policy = TrialPolicy(
        replace(base, min_trials=N_TRIALS, max_trials=max(base.max_trials, N_TRIALS))
    )
    lines.append("")
    for (incumbent, contender), samples in scatter.items():
        decision = policy.evaluate([[s * 1e6 for s in samples]])
        verdict = "converged" if decision.converged else "RE-QUEUED (unstable)"
        lines.append(
            f"Section 3.4 policy on {incumbent} vs {contender}: {verdict} "
            f"(CI half-width {decision.worst_ci_halfwidth_bps / 1e6:.2f} Mbps "
            f"vs threshold 1.5 Mbps)"
        )
    report("Fig 10 - per-trial throughput scatter (Observation 15)", "\n".join(lines))
    # OneDrive scatters much more than the stable control.
    assert spreads["onedrive"] > 2 * spreads["iperf_cubic"]
