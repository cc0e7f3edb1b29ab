"""Generic heatmap grids over measured pairs.

Fig 2 (MmF share), Fig 11 (utilization), Fig 12 (loss rate) and Fig 13
(queueing delay) are all contender x incumbent grids; this module builds
them from a :class:`~repro.core.results.ResultStore` for any per-trial
quantity and renders them as text tables.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.results import ResultStore, incumbent_key
from ..core.experiment import ExperimentResult
from ..core.stats import median

Grid = Dict[Tuple[str, str], Optional[float]]


def grid_from_store(
    store: ResultStore,
    service_ids: Sequence[str],
    bandwidth_bps: float,
    value: Callable[[ExperimentResult, str], float],
) -> Grid:
    """Build a (contender, incumbent) -> median-value grid.

    ``value(trial, incumbent_key)`` extracts the quantity from one trial;
    the grid cell is the median across that pair's valid trials.
    """
    grid: Grid = {}
    for contender in service_ids:
        for incumbent in service_ids:
            samples: List[float] = []
            for trial in store.valid_trials(contender, incumbent, bandwidth_bps):
                key = incumbent_key(trial, incumbent, contender)
                if key is not None:
                    samples.append(value(trial, key))
            grid[(contender, incumbent)] = (
                median(samples) if samples else None
            )
    return grid


def mmf_share_grid(
    store: ResultStore, service_ids: Sequence[str], bandwidth_bps: float
) -> Grid:
    """Fig 2: median MmF share of the incumbent."""
    return grid_from_store(
        store, service_ids, bandwidth_bps,
        lambda trial, key: trial.mmf_share[key],
    )


def utilization_grid(
    store: ResultStore, service_ids: Sequence[str], bandwidth_bps: float
) -> Grid:
    """Fig 11: median total link utilization (symmetric)."""
    return grid_from_store(
        store, service_ids, bandwidth_bps,
        lambda trial, key: trial.utilization,
    )


def loss_grid(
    store: ResultStore, service_ids: Sequence[str], bandwidth_bps: float
) -> Grid:
    """Fig 12: median loss rate experienced by the incumbent."""
    return grid_from_store(
        store, service_ids, bandwidth_bps,
        lambda trial, key: trial.loss_rate[key],
    )


def queueing_delay_grid(
    store: ResultStore, service_ids: Sequence[str], bandwidth_bps: float
) -> Grid:
    """Fig 13: median mean queueing delay (ms) of the incumbent."""
    return grid_from_store(
        store, service_ids, bandwidth_bps,
        lambda trial, key: trial.queueing_delay_usec[key] / 1000.0,
    )


def render_grid(
    grid: Grid,
    service_ids: Sequence[str],
    title: str,
    scale: float = 1.0,
    fmt: str = "{:.0f}",
) -> str:
    """Render a grid as a fixed-width text table (rows = contender)."""
    width = max(len(s) for s in service_ids) + 1
    lines = [title]
    lines.append(" " * width + "".join(f"{s[:9]:>10}" for s in service_ids))
    for contender in service_ids:
        cells = []
        for incumbent in service_ids:
            value = grid.get((contender, incumbent))
            if value is None:
                cells.append(f"{'---':>10}")
            else:
                cells.append(f"{fmt.format(value * scale):>10}")
        lines.append(f"{contender:<{width}}" + "".join(cells))
    return "\n".join(lines)
