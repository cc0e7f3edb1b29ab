"""Parameter sweeps: how fairness moves with network settings.

Section 6 (Observations 11 and 12) and the Section 9 future-work list all
point the same way: fairness outcomes depend on bottleneck bandwidth,
buffer depth, RTT, and background loss, so a watchdog must be able to
sweep them.  This module provides those sweeps as first-class operations
producing (parameter -> shares) curves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from .. import units
from ..config import ExperimentConfig, NetworkConfig
from ..services.catalog import ServiceCatalog, ServiceSpec
from .experiment import ExperimentResult
from .runner import ExecutionBackend, TrialSpec, build_backend
from .stats import median


@dataclass(frozen=True)
class SweepPoint:
    """One parameter value's aggregated outcome for a pair."""

    parameter: float
    share_a: float
    share_b: float
    throughput_a_bps: float
    throughput_b_bps: float
    utilization: float


def aggregate_pair_results(
    results: Sequence[ExperimentResult], id_a: str, id_b: str
) -> Tuple[float, float, float, float, float]:
    """Reduce one sweep point's trials to its plotted medians.

    Returns ``(share_a, share_b, utilization, loss_rate, queueing_delay)``
    medians over ``results``.  Shared by the in-process sweeps and the
    fleet assembler so a reassembled curve matches a local one exactly.
    """

    def series(target: str, field: str) -> List[float]:
        values = []
        for result in results:
            mapping = getattr(result, field)
            for sid, value in mapping.items():
                if sid.split("#")[0] == target:
                    values.append(value)
                    break
        return values

    return (
        median(series(id_a, "mmf_share")),
        median(series(id_b, "mmf_share")),
        median(series(id_a, "throughput_bps")),
        median(series(id_b, "throughput_bps")),
        median([r.utilization for r in results]),
    )


def expand_sweep_networks(
    kind: str,
    values: Sequence[float],
    base_network: Optional[NetworkConfig] = None,
) -> List[Tuple[float, NetworkConfig]]:
    """Expand one swept parameter into ``(value, NetworkConfig)`` points.

    The single source of sweep-point truth: the in-process sweep runners
    and the fleet planner both expand through here, so a sharded sweep
    enumerates exactly the networks (and therefore cache keys) a local
    sweep would execute.  ``kind`` is one of ``bandwidth`` (Mbps),
    ``buffer`` (xBDP), ``rtt`` (ms), or ``loss`` (fraction).
    """
    base = base_network or NetworkConfig(bandwidth_bps=units.mbps(8))
    if kind == "bandwidth":
        return [(v, base.with_bandwidth(units.mbps(v))) for v in values]
    if kind == "buffer":
        return [(v, base.with_buffer_multiple(v)) for v in values]
    if kind == "rtt":
        return [
            (v, replace(base, base_rtt_usec=units.msec(v))) for v in values
        ]
    if kind == "loss":
        return [(v, replace(base, external_loss_rate=v)) for v in values]
    raise ValueError(
        f"unknown sweep kind {kind!r}; "
        "choices: bandwidth, buffer, rtt, loss"
    )


def pair_sweep_trials(
    service_id_a: str,
    service_id_b: str,
    networks: Sequence[Tuple[float, NetworkConfig]],
    config: ExperimentConfig,
    trials: int,
    base_seed: int,
) -> List[TrialSpec]:
    """The full trial list for a pair sweep, in execution order.

    ``trials`` seeded repetitions per sweep point, point-major - the
    exact submission order :func:`_run_points` uses, so planners that
    enumerate through here stay index-aligned with sweep aggregation.
    """
    return [
        TrialSpec.pair(
            service_id_a,
            service_id_b,
            network,
            config,
            seed=base_seed + trial,
        )
        for _parameter, network in networks
        for trial in range(trials)
    ]


def _pair_backend(
    spec_a: ServiceSpec,
    spec_b: ServiceSpec,
    backend: Optional[ExecutionBackend],
) -> ExecutionBackend:
    """The backend a sweep runs through.

    When none is supplied, an inline backend over an ephemeral two-entry
    catalog is built, so sweeps work with arbitrary (even unregistered)
    service specs while still flowing through the unified runner.
    """
    if backend is not None:
        return backend
    catalog = ServiceCatalog()
    catalog.register(spec_a)
    if spec_b.service_id != spec_a.service_id:
        catalog.register(spec_b)
    return build_backend(catalog=catalog)


def _run_points(
    spec_a: ServiceSpec,
    spec_b: ServiceSpec,
    networks: Sequence[Tuple[float, NetworkConfig]],
    config: ExperimentConfig,
    trials: int,
    base_seed: int,
    backend: Optional[ExecutionBackend] = None,
) -> List[SweepPoint]:
    runner = _pair_backend(spec_a, spec_b, backend)
    all_results = runner.run(
        pair_sweep_trials(
            spec_a.service_id,
            spec_b.service_id,
            networks,
            config,
            trials,
            base_seed,
        )
    )
    points = []
    for index, (parameter, _network) in enumerate(networks):
        results = all_results[index * trials:(index + 1) * trials]
        share_a, share_b, thr_a, thr_b, util = aggregate_pair_results(
            results, spec_a.service_id, spec_b.service_id
        )
        points.append(
            SweepPoint(parameter, share_a, share_b, thr_a, thr_b, util)
        )
    return points


def bandwidth_sweep(
    spec_a: ServiceSpec,
    spec_b: ServiceSpec,
    bandwidths_mbps: Sequence[float],
    config: ExperimentConfig,
    base_network: Optional[NetworkConfig] = None,
    trials: int = 3,
    base_seed: int = 1,
    backend: Optional[ExecutionBackend] = None,
) -> List[SweepPoint]:
    """Fairness vs bottleneck bandwidth (Fig 7 / Observation 12)."""
    networks = expand_sweep_networks("bandwidth", bandwidths_mbps, base_network)
    return _run_points(
        spec_a, spec_b, networks, config, trials, base_seed, backend
    )


def buffer_sweep(
    spec_a: ServiceSpec,
    spec_b: ServiceSpec,
    bdp_multiples: Sequence[float],
    network: NetworkConfig,
    config: ExperimentConfig,
    trials: int = 3,
    base_seed: int = 1,
    backend: Optional[ExecutionBackend] = None,
) -> List[SweepPoint]:
    """Fairness vs buffer depth (Observation 11)."""
    networks = expand_sweep_networks("buffer", bdp_multiples, network)
    return _run_points(
        spec_a, spec_b, networks, config, trials, base_seed, backend
    )


def rtt_sweep(
    spec_a: ServiceSpec,
    spec_b: ServiceSpec,
    rtts_ms: Sequence[float],
    network: NetworkConfig,
    config: ExperimentConfig,
    trials: int = 3,
    base_seed: int = 1,
    backend: Optional[ExecutionBackend] = None,
) -> List[SweepPoint]:
    """Fairness vs normalised RTT (Section 9: network settings)."""
    networks = expand_sweep_networks("rtt", rtts_ms, network)
    return _run_points(
        spec_a, spec_b, networks, config, trials, base_seed, backend
    )


def background_loss_sweep(
    spec_a: ServiceSpec,
    spec_b: ServiceSpec,
    loss_rates: Sequence[float],
    network: NetworkConfig,
    config: ExperimentConfig,
    trials: int = 3,
    base_seed: int = 1,
    backend: Optional[ExecutionBackend] = None,
) -> List[SweepPoint]:
    """Fairness vs random upstream loss (Section 9: background loss).

    Note: trials with upstream loss would normally be *discarded* by the
    watchdog's hygiene rule; this sweep is exactly the controlled study
    the paper proposes instead.
    """
    networks = expand_sweep_networks("loss", loss_rates, network)
    return _run_points(
        spec_a, spec_b, networks, config, trials, base_seed, backend
    )


def render_sweep(
    points: Sequence[SweepPoint],
    label_a: str,
    label_b: str,
    parameter_name: str,
) -> str:
    """Fixed-width text rendering of a sweep curve."""
    lines = [
        f"{parameter_name:>12} {label_a + ' %MmF':>16} {label_b + ' %MmF':>16} "
        f"{'util %':>8}"
    ]
    for point in points:
        lines.append(
            f"{point.parameter:>12.2f} {point.share_a * 100:>16.0f} "
            f"{point.share_b * 100:>16.0f} {point.utilization * 100:>8.0f}"
        )
    return "\n".join(lines)
