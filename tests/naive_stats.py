"""The per-draw bootstrap, kept as the oracle for ``repro.core.stats``.

``bootstrap_median_ci`` below is the body ``core/stats.py`` carried up
to PR 16, verbatim: one ``rng.randrange(n)`` per resampled value, one
``median`` per resample.  ``src/`` now draws the same Mersenne Twister
stream in bulk; ``tests/test_stats_oracle.py`` (and CI's adaptive-smoke
job, through :func:`check_recorded_decisions`) hold it to this loop's
output.  Nothing here is memoised.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence, Tuple
from unittest import mock

from repro.core import policy
from repro.core.convergence import ConvergenceTracker
from repro.core.stats import (
    TrialSummary,
    derive_bootstrap_seed,
    iqr,
    median,
    quantile,
)


def bootstrap_median_ci(
    samples: Sequence[float],
    confidence: float = 0.95,
    n_resamples: int = 2000,
    seed: Optional[int] = 0,
    key: str = "",
) -> Tuple[float, float]:
    if not samples:
        raise ValueError("bootstrap of empty sample set")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    data = list(samples)
    if len(data) == 1:
        return data[0], data[0]
    if seed is None:
        seed = derive_bootstrap_seed(data, key)
    rng = random.Random(seed)
    n = len(data)
    medians: List[float] = []
    for _ in range(n_resamples):
        resample = [data[rng.randrange(n)] for _ in range(n)]
        medians.append(median(resample))
    alpha = (1.0 - confidence) / 2.0
    return quantile(medians, alpha), quantile(medians, 1.0 - alpha)


def summarize_trials(
    samples: Sequence[float],
    confidence: float = 0.95,
    seed: Optional[int] = None,
    key: str = "",
) -> TrialSummary:
    mid = median(samples)
    q25, q75 = iqr(samples)
    ci_low, ci_high = bootstrap_median_ci(
        samples, confidence, seed=seed, key=key
    )
    return TrialSummary(
        n=len(samples), median=mid, q25=q25, q75=q75, ci_low=ci_low, ci_high=ci_high
    )


def check_recorded_decisions(state_payload: Dict, oracle: bool = True) -> int:
    """Re-derive every pair's stored decision in a ``cycle-state.json``
    payload from its stored series - with this module's bootstrap, or
    (``oracle=False``) with the library's own - and assert each equals
    what the file recorded.  Returns how many were checked."""
    checked = 0
    with mock.patch.object(
        policy,
        "summarize_trials",
        summarize_trials if oracle else policy.summarize_trials,
    ):
        for entry in state_payload["trackers"]:
            tracker = ConvergenceTracker.from_json(entry)
            for stored in entry["pairs"]:
                decision = tracker.evaluate_pair(tuple(stored["pair"]))
                assert decision.to_json() == stored["decision"], stored
                assert decision.verdict == stored["verdict"], stored
                checked += 1
    assert checked, "cycle state recorded no pairs"
    return checked
