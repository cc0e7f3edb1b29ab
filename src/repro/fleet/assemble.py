"""Report assembly: rebuild published artifacts from a merged cache.

The last fleet stage proves the round trip: re-reading the plan's trial
list from the merged cache (:func:`~repro.core.runner.replay`) rebuilds
the :class:`~repro.core.results.ResultStore` in single-host execution
order *without simulating anything* - every trial must be a cache hit,
and replay has nothing behind it that could simulate one that is not.
The resulting :class:`~repro.core.report.FairnessReport` (or sweep
curve) is therefore bit-identical to what one host running the whole
cycle would have published, and its attached
:class:`~repro.core.runner.RunnerStats` proves it: ``trials_run == 0``,
``cache_hits == len(plan.trials)``.
"""

from __future__ import annotations

from typing import List, Tuple

from ..core.cache import CacheEntryError, TrialCache, trial_cache_key
from ..core.report import FairnessReport
from ..core.results import ResultStore
from ..core.runner import CacheMissError, RunnerStats, replay
from ..core.sweep import SweepPoint, sweep_points
from ..obs import tracing
from .plan import FleetError, FleetPlan, _dataclass_from_json
from ..config import NetworkConfig


def assemble_store(
    plan: FleetPlan, cache: TrialCache
) -> Tuple[ResultStore, RunnerStats, List]:
    """Replay the plan against the cache: zero simulations, full store.

    Replays every planned spec in plan order.  Returns the store (valid
    trials only, matching the watchdog's hygiene rule), the assembly
    :class:`RunnerStats`, and the raw per-trial results in plan order
    (sweep aggregation needs them positionally).  A miss aborts with a
    :class:`FleetError` that tells a gap (entries absent: merge all
    shards) from entries the replay may not admit.

    A plan whose params carry an ``earlystop`` block was executed with
    trial-level early termination armed, so its cache legitimately holds
    truncated entries - the replay accepts them (their windowed-rate
    estimates ARE the cycle's measurements).  Unarmed plans keep the
    strict rule: a truncated entry is a miss, and a miss aborts.
    """
    with tracing.span(
        "report.assemble", plan_kind=plan.kind, trials=len(plan.trials)
    ):
        armed = (plan.params or {}).get("earlystop") is not None
        try:
            records, stats = replay(
                cache, [t.spec for t in plan.trials], allow_truncated=armed
            )
        except CacheEntryError as exc:
            raise FleetError(f"damaged cache entry: {exc}") from exc
        except CacheMissError as exc:
            keys = map(trial_cache_key, exc.misses)
            missing = [k for k in keys if not cache.contains_key(k)]
            if missing:
                preview = ", ".join(k[:12] + "..." for k in missing[:5])
                raise FleetError(
                    f"cache is missing {len(missing)} of {len(plan.trials)} "
                    f"planned trials ({preview}) - merge all shards before "
                    "assembling"
                ) from exc
            raise FleetError(
                f"assembly would have to simulate {len(exc.misses)} "
                "trial(s) - entries are truncated (early-terminated) or "
                "disappeared mid-assembly; aborting rather than publish "
                "mixed provenance"
            ) from exc
        results = [record.result for record in records]
        store = ResultStore()
        store.extend(results, valid_only=True)
        return store, stats, results


def assemble_reports(
    plan: FleetPlan, cache: TrialCache
) -> List[FairnessReport]:
    """Rebuild the cycle's fairness report(s), one per network setting.

    Bit-identical to the single-host cycle's reports; ``runner_stats``
    on each report documents the zero-simulation assembly.
    """
    if plan.kind != "cycle":
        raise FleetError(f"plan kind {plan.kind!r} does not assemble "
                         "into fairness reports; use assemble_sweep")
    store, stats, _results = assemble_store(plan, cache)
    service_ids = list(plan.params["service_ids"])
    reports = []
    for payload in plan.params["networks"]:
        network = _dataclass_from_json(NetworkConfig, payload)
        reports.append(
            FairnessReport(
                store,
                service_ids,
                network.bandwidth_bps,
                runner_stats=stats,
            )
        )
    return reports


def assemble_sweep(plan: FleetPlan, cache: TrialCache) -> List[SweepPoint]:
    """Rebuild a sweep's (parameter -> shares) curve from the cache.

    Reduces with :func:`~repro.core.sweep.sweep_points`, as
    :func:`~repro.core.sweep.run_sweep` does: plan order is the sweep's
    own enumeration, so the curve is the local one.
    """
    if plan.kind != "sweep":
        raise FleetError(f"plan kind {plan.kind!r} is not a sweep")
    _store, _stats, results = assemble_store(plan, cache)
    params = plan.params
    try:
        return sweep_points(
            params["values"],
            params["trials"],
            results,
            params["service_id_a"],
            params["service_id_b"],
        )
    except ValueError as exc:  # params and trials disagree: an edited plan
        raise FleetError(f"plan params do not match its trials: {exc}") from exc
