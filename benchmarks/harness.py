"""Shared machinery for the figure/table regeneration benchmarks.

Every benchmark regenerates one of the paper's tables or figures as a text
report.  Reports are collected here and emitted in the terminal summary
(so they survive pytest's output capture), and also written to
``benchmarks/results/``.

Scaling: the paper runs 10-minute experiments with >=10 trials; these
benches default to 80-second experiments with 3 trials so the entire
harness finishes in tens of minutes on one core.  Override with::

    PRUDENTIA_BENCH_DURATION=600 PRUDENTIA_BENCH_TRIALS=10 pytest benchmarks/

Every trial is a :class:`~repro.core.runner.TrialSpec` run by
:data:`BACKEND` (from ``build_backend``); point
``PRUDENTIA_BENCH_CACHE_DIR`` at a directory to make repeated harness
runs skip every already-simulated trial (content-addressed caching).
Figures that plot raw artifacts (packet trace, flight-recorded queue)
attach those recorders to :func:`run_artifacts`, the trial core the
backend runs.

The conditions a figure varies are catalog rows too.  :data:`CATALOG` is
the default catalog plus these variants, each a copy of a default row
with its own id and overridden recipe params:

- ``mega_persistent``: Mega over one persistent five-flow pool instead
  of fresh connections per batch (the Mega ablation);
- ``youtube_buffer_rate``: YouTube with the aggressive buffer-rate ABR
  (the ABR ablation, Observation 2);
- ``wikipedia_fig06``, ``news_google_fig06``, ``youtube_web_fig06``: the
  Fig 6 pages under the scaled Section 5.2 protocol, a 6 s head start
  for the contender and an 8 s gap between loads.

They live here, not in the default catalog, because they are
experimental conditions rather than services the watchdog tests: a
default row joins every all-pairs cycle, the published site and the
pipeline benchmark's trial counts.
"""

from __future__ import annotations

import dataclasses
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import units
from repro.config import (
    ExperimentConfig,
    NetworkConfig,
    highly_constrained,
    moderately_constrained,
)
from repro.core.cache import TrialCache
from repro.core.experiment import ExperimentResult, run_trial_artifacts
from repro.core.results import ResultStore
from repro.core.runner import TrialSpec, build_backend
from repro.core.stats import median
from repro.services.catalog import ServiceSpec, default_catalog, recipe

DURATION_SEC = float(os.environ.get("PRUDENTIA_BENCH_DURATION", "80"))
TRIALS = int(os.environ.get("PRUDENTIA_BENCH_TRIALS", "3"))
_CACHE_DIR = os.environ.get("PRUDENTIA_BENCH_CACHE_DIR")

CONFIG = ExperimentConfig().scaled(DURATION_SEC)
#: Longer config for workloads that need steady state (video calibration).
LONG_CONFIG = ExperimentConfig().scaled(max(DURATION_SEC, 120.0))

HIGHLY = highly_constrained()
MODERATELY = moderately_constrained()
SETTINGS: Dict[str, NetworkConfig] = {
    "highly-constrained (8 Mbps)": HIGHLY,
    "moderately-constrained (50 Mbps)": MODERATELY,
}

#: Fig 6's pages by variant id (see the module docstring).
FIG06_PAGES = {
    page: f"{page}_fig06" for page in ("wikipedia", "news_google", "youtube_web")
}

CATALOG = default_catalog()


def _variant(base_id: str, variant_id: str, **params) -> ServiceSpec:
    base = CATALOG.get(base_id)
    return dataclasses.replace(
        base,
        service_id=variant_id,
        params=recipe(**{**dict(base.params), **params}),
        in_heatmap=False,
    )


#: The figure variants, registered in :data:`CATALOG`.
VARIANTS = (
    _variant("mega", "mega_persistent", fresh_connections_per_batch=False),
    _variant("youtube", "youtube_buffer_rate", abr="buffer-rate"),
    *(
        _variant(
            page,
            variant_id,
            initial_delay_usec=units.seconds(6),
            load_gap_usec=units.seconds(8),
        )
        for page, variant_id in FIG06_PAGES.items()
    ),
)
for _spec in VARIANTS:
    CATALOG.register(_spec)

#: Every benchmark trial flows through this backend (with optional
#: content-addressed caching), never a direct experiment call.
BACKEND = build_backend(
    catalog=CATALOG,
    cache=TrialCache(Path(_CACHE_DIR)) if _CACHE_DIR else None,
)

RESULTS_DIR = Path(__file__).parent / "results"

#: Collected (title, body) report blocks, emitted at terminal summary.
REPORTS: List[Tuple[str, str]] = []


def report(title: str, body: str) -> None:
    """Register a rendered table/figure for end-of-run emission."""
    REPORTS.append((title, body))
    RESULTS_DIR.mkdir(exist_ok=True)
    slug = "".join(c if c.isalnum() else "_" for c in title.lower())[:60]
    (RESULTS_DIR / f"{slug}.txt").write_text(f"{title}\n\n{body}\n")
    print(f"\n=== {title} ===\n{body}\n")


def run_trials(
    contender_id: str,
    incumbent_id: Optional[str],
    network: NetworkConfig,
    trials: int = TRIALS,
    config: Optional[ExperimentConfig] = None,
    base_seed: int = 1,
) -> List[ExperimentResult]:
    """Run several seeded trials of one pair through :data:`BACKEND`
    (and so through the trial cache, when enabled); with no
    ``incumbent_id``, solo trials of ``contender_id``."""
    service_ids = (
        (contender_id,) if incumbent_id is None else (contender_id, incumbent_id)
    )
    return BACKEND.run(
        [
            TrialSpec(
                service_ids, network, config or CONFIG, seed=base_seed + trial
            )
            for trial in range(trials)
        ]
    )


def run_artifacts(
    service_ids: Sequence[str],
    network: NetworkConfig,
    seed: int,
    recorders: Sequence,
) -> ExperimentResult:
    """One trial's result, recorded by ``recorders`` (a flight recorder,
    a packet trace): the trial core the backend runs, for figures that
    plot what a result does not keep."""
    result, _testbed = run_trial_artifacts(
        [CATALOG.get(sid) for sid in service_ids],
        network,
        CONFIG,
        seed=seed,
        recorders=recorders,
    )
    return result


def per_trial(
    results: Sequence[ExperimentResult], field: str, service_id: str
) -> List[float]:
    """``service_id``'s value in each trial's per-service mapping
    ``field`` (``"mmf_share"``, ``"throughput_bps"``), from every trial
    that measured it; the first key whose id before any ``#`` suffix
    matches counts, so a self-pair gives its first instance."""
    values = []
    for result in results:
        for sid, value in getattr(result, field).items():
            if sid.split("#")[0] == service_id:
                values.append(value)
                break
    return values


def median_share(
    results: Sequence[ExperimentResult], service_id: str
) -> float:
    """Median MmF share of a service over trials."""
    return median(per_trial(results, "mmf_share", service_id))


def median_throughput_mbps(
    results: Sequence[ExperimentResult], service_id: str
) -> float:
    """Median throughput of a service over trials, in Mbps."""
    return median(
        [bps / 1e6 for bps in per_trial(results, "throughput_bps", service_id)]
    )


# ---------------------------------------------------------------------------
# The all-pairs sweep shared by Fig 2 / 11 / 12 / 13 / Table 3
# ---------------------------------------------------------------------------

def heatmap_service_ids() -> List[str]:
    ids = CATALOG.heatmap_ids()
    preferred = [
        "youtube", "netflix", "vimeo",
        "dropbox", "gdrive", "onedrive", "mega",
        "iperf_bbr", "iperf_cubic", "iperf_reno",
    ]
    return [sid for sid in preferred if sid in ids]


def full_sweep_store() -> ResultStore:
    """All-pairs x both settings x TRIALS.  The benches read it through
    the session fixture ``sweep_store`` (``benchmarks/conftest.py``), so
    it is built once and ``--durations`` reports it as its own setup."""
    store = ResultStore()
    ids = heatmap_service_ids()
    pairs = []
    for i, a in enumerate(ids):
        for b in ids[i:]:
            pairs.append((a, b))
    for name, network in SETTINGS.items():
        for a, b in pairs:
            for result in run_trials(a, b, network):
                if result.valid:
                    store.add(result)
    return store


def fmt_pct(value: Optional[float]) -> str:
    return "---" if value is None else f"{value * 100:.0f}"
