"""The paper's numbered Observations, computed from measured results.

Each function distils one of the paper's findings (Section 4/5) from a
:class:`~repro.core.results.ResultStore`, so benchmarks and tests can
check the *shape* of the reproduction against the paper's claims.
Observations 1 and 2 are :class:`~repro.core.report.FairnessReport`'s
``losing_service_stats()`` and ``contentiousness()``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..core.report import FairnessReport
from ..core.results import ResultStore, loss_rate, throughput_bps, utilization
from ..core.stats import iqr, median


def observation9_utilization(
    store: ResultStore,
    service_ids: Sequence[str],
    bandwidth_bps: float,
) -> Dict[str, float]:
    """Obs 9: utilization summary - most pairs >=95%, some pairs waste.

    Returns {'min': ..., 'median': ..., 'fraction_above_95': ...} over the
    pairwise median utilizations.
    """
    grid = FairnessReport(store, service_ids, bandwidth_bps).grid(utilization)
    values = [v for v in grid.values() if v is not None]
    if not values:
        return {}
    return {
        "min": min(values),
        "median": median(values),
        "fraction_above_95": sum(1 for v in values if v >= 0.95) / len(values),
    }


def observation10_loss(
    store: ResultStore,
    service_ids: Sequence[str],
    bandwidth_bps: float,
) -> Dict[str, float]:
    """Obs 10: loss each contender typically induces on incumbents.

    The paper: Mega induces the most loss (~8% at 8 Mbps), Netflix ~4%,
    single-flow BBR vs single-flow BBR none.  We aggregate with the
    *median* across incumbents rather than the max: bursty incumbents
    (Mega itself) drop many of their own packets against any contender,
    and the max would credit that self-inflicted loss to the contender.
    """
    grid = FairnessReport(store, service_ids, bandwidth_bps).grid(loss_rate)
    per_contender: Dict[str, List[float]] = {}
    for (contender, incumbent), value in grid.items():
        if value is None or contender == incumbent:
            continue
        per_contender.setdefault(contender, []).append(value)
    return {
        contender: median(values)
        for contender, values in per_contender.items()
    }


def instability_by_pair(
    store: ResultStore,
    service_ids: Sequence[str],
    bandwidth_bps: float,
) -> Dict[str, float]:
    """Obs 15 helper: per-pair spread (IQR width / median) of throughput."""
    spreads: Dict[str, float] = {}
    pair_samples = store.pair_samples(bandwidth_bps, throughput_bps)
    for incumbent in service_ids:
        for contender in service_ids:
            samples = pair_samples.get((incumbent, contender), [])
            if len(samples) < 3:
                continue
            q25, q75 = iqr(samples)
            mid = median(samples)
            if mid > 0:
                spreads[f"{incumbent} vs {contender}"] = (q75 - q25) / mid
    return spreads
