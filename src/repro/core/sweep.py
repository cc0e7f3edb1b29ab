"""Parameter sweeps: how fairness moves with network settings.

Section 6 (Observations 11 and 12) and the Section 9 future-work list all
point the same way: fairness outcomes depend on bottleneck bandwidth,
buffer depth, RTT, and background loss, so a watchdog must be able to
sweep them.  A sweep is one description - a :data:`SWEEP_KINDS` kind, a
pair, the swept values, a protocol, a base network, trials and a base
seed - with one enumeration (:func:`pair_sweep_trials`), one reduction
(:func:`sweep_points`) and one local runner (:func:`run_sweep`).  The
fleet planner enumerates and reduces through the same two functions, so
a sharded sweep and a local one publish the same curve.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .. import units
from ..config import ExperimentConfig, NetworkConfig
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


class SweepKind(NamedTuple):
    """How one swept value sets the network, and the axis it is plotted on."""

    network: Callable[[NetworkConfig, float], NetworkConfig]
    label: str


#: Every sweep kind by name: the CLI choices, the planner's expansion and
#: the rendered axis label all read this one table.
SWEEP_KINDS: Dict[str, SweepKind] = {
    "bandwidth": SweepKind(
        lambda base, v: base.with_bandwidth(units.mbps(v)), "bandwidth Mbps"
    ),
    "buffer": SweepKind(
        lambda base, v: base.with_buffer_multiple(v), "buffer xBDP"
    ),
    "rtt": SweepKind(
        lambda base, v: replace(base, base_rtt_usec=units.msec(v)), "RTT ms"
    ),
    # Upstream loss would normally get a trial discarded by the hygiene
    # rule; this sweep is the controlled study Section 9 proposes instead.
    "loss": SweepKind(
        lambda base, v: replace(base, external_loss_rate=v), "loss rate"
    ),
}


def expand_sweep_networks(
    kind: str,
    values: Sequence[float],
    base_network: Optional[NetworkConfig] = None,
) -> List[Tuple[float, NetworkConfig]]:
    """Expand one swept parameter into ``(value, NetworkConfig)`` points.

    The single source of sweep-point truth: :func:`run_sweep` and the
    fleet planner both expand through here, so a sharded sweep
    enumerates exactly the networks (and therefore cache keys) a local
    sweep would execute.  ``kind`` is a :data:`SWEEP_KINDS` key:
    ``bandwidth`` (Mbps), ``buffer`` (xBDP), ``rtt`` (ms), or ``loss``
    (fraction).
    """
    if kind not in SWEEP_KINDS:
        raise ValueError(
            f"unknown sweep kind {kind!r}; choices: {', '.join(SWEEP_KINDS)}"
        )
    base = base_network or NetworkConfig(bandwidth_bps=units.mbps(8))
    network = SWEEP_KINDS[kind].network
    return [(v, network(base, v)) for v in values]


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
    order :func:`sweep_points` slices results in, so :func:`run_sweep`
    and the fleet planner, which both enumerate through here, reduce
    index-aligned.
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


def sweep_points(
    values: Sequence[float],
    trials: int,
    results: Sequence[ExperimentResult],
    id_a: str,
    id_b: str,
) -> List[SweepPoint]:
    """Reduce a sweep's results, in :func:`pair_sweep_trials` order, to
    one :class:`SweepPoint` of medians per value.

    Side a is each result's contender, side b its incumbent - for a
    self-pair the ``#2`` instance.  A result that is not a trial of
    ``id_a`` vs ``id_b`` is a ``ValueError``, not a mislabelled curve.
    """
    points = []
    for index, value in enumerate(values):
        window = results[index * trials:(index + 1) * trials]
        for result in window:
            pair = (result.contender_id, result.incumbent_id.split("#")[0])
            if pair != (id_a, id_b):
                raise ValueError(
                    f"a {' vs '.join(pair)} trial in a sweep of "
                    f"{id_a} vs {id_b}"
                )
        points.append(
            SweepPoint(
                value,
                median([r.mmf_share[r.contender_id] for r in window]),
                median([r.mmf_share[r.incumbent_id] for r in window]),
                median([r.throughput_bps[r.contender_id] for r in window]),
                median([r.throughput_bps[r.incumbent_id] for r in window]),
                median([r.utilization for r in window]),
            )
        )
    return points


def run_sweep(
    kind: str,
    id_a: str,
    id_b: str,
    values: Sequence[float],
    config: ExperimentConfig,
    base_network: Optional[NetworkConfig] = None,
    trials: int = 3,
    base_seed: int = 1,
    backend: Optional[ExecutionBackend] = None,
) -> List[SweepPoint]:
    """Fairness of ``id_a`` vs ``id_b`` as one network setting moves.

    Runs the sweep's trials through ``backend`` (default:
    :func:`build_backend`, over the default catalog) and reduces them
    with :func:`sweep_points`.  A service outside the default catalog
    runs through a backend built over a catalog that registers it.
    """
    specs = pair_sweep_trials(
        id_a,
        id_b,
        expand_sweep_networks(kind, values, base_network),
        config,
        trials,
        base_seed,
    )
    results = (backend or build_backend()).run(specs)
    return sweep_points(values, trials, results, id_a, id_b)


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
