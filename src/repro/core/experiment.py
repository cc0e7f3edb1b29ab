"""Run one trial: N services (solo, pair, or many) through the testbed.

Every experiment produces per-service numbers - the MmF share attained by
each competing service (Section 2.2) - plus the network-level and QoE
metrics the Beyond-Throughput sections use.  One core executor,
:func:`run_trial_artifacts`, handles any number of services; the historic
``run_solo_experiment`` / ``run_pair_experiment`` / ``run_multi_experiment``
entry points are result-only wrappers over it.  Results serialise to JSON
for the result store, the trial cache, and the website artifacts.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from ..browser.environment import ClientEnvironment
from ..config import ExperimentConfig, NetworkConfig
from ..obs import tracing
from ..obs.metrics import get_registry
from ..services.catalog import ServiceSpec
from .metrics import mmf_share
from .mmf import max_min_allocation
from .testbed import Testbed

#: Trials with more external (upstream) loss than this are discarded
#: (Section 3.1 background-noise mitigation).
EXTERNAL_LOSS_LIMIT = 0.0005

#: Golden-ratio salt mixed into per-service seeds so trials with different
#: service counts draw from disjoint seed ranges (no cross-count collisions).
_SPEC_COUNT_SALT = 0x9E3779B1


def derive_service_seed(seed: int, index: int, n: int) -> int:
    """Per-service RNG seed for service ``index`` of an ``n``-service trial.

    One documented derivation shared by every execution path:

    - ``n == 1`` (solo runs) uses the trial seed unchanged, matching the
      historic calibration behaviour.
    - ``n == 2`` reduces to ``seed * 2 + index + 1`` - bit-compatible with
      every pair trial ever recorded by this codebase, so existing result
      stores and caches stay valid.
    - ``n >= 3`` adds a large per-count salt, keeping the seed ranges of
      different spec counts disjoint (the old ``seed*n + index + 1``
      formula collided across counts: e.g. ``(seed=1, n=2, index=1)`` and
      ``(seed=1, n=3, index=0)`` both produced 4).
    """
    if n < 1:
        raise ValueError("need at least one service")
    if not 0 <= index < n:
        raise ValueError(f"index {index} out of range for {n} services")
    if n == 1:
        return seed
    return seed * n + index + 1 + (n - 2) * _SPEC_COUNT_SALT


@dataclass
class ExperimentResult:
    """Everything measured in one trial.

    ``contender_id``/``incumbent_id`` follow the paper's naming: the
    incumbent is the service whose share is being read, but since every
    trial yields both services' numbers, the result stores per-service
    dictionaries and either service can be read as the incumbent.
    """

    contender_id: str
    incumbent_id: str
    bandwidth_bps: float
    buffer_packets: int
    seed: int
    duration_usec: int
    throughput_bps: Dict[str, float] = field(default_factory=dict)
    mmf_allocation_bps: Dict[str, float] = field(default_factory=dict)
    mmf_share: Dict[str, float] = field(default_factory=dict)
    loss_rate: Dict[str, float] = field(default_factory=dict)
    queueing_delay_usec: Dict[str, float] = field(default_factory=dict)
    service_metrics: Dict[str, Dict[str, float]] = field(default_factory=dict)
    utilization: float = 0.0
    external_loss_fraction: float = 0.0
    #: Early-termination annotation (repro.core.earlystop): present only
    #: on truncated trials (``truncated: true``, ``horizon_sim_sec``,
    #: ``model_id``) or audited full-length trials (``audit: true``,
    #: ``mispredict``).  None - and absent from the JSON - otherwise, so
    #: full-length results stay byte-identical to the seed schema.
    earlystop: Optional[Dict] = None

    @property
    def valid(self) -> bool:
        """False when upstream noise invalidates the trial."""
        return self.external_loss_fraction <= EXTERNAL_LOSS_LIMIT

    def throughput_mbps(self, service_id: str) -> float:
        """This service's measured throughput in Mbps."""
        return self.throughput_bps[service_id] / 1e6

    @property
    def truncated(self) -> bool:
        """True when early termination cut this trial's window short."""
        return bool(self.earlystop and self.earlystop.get("truncated"))

    def to_json(self) -> Dict:
        """Serialise to a JSON-compatible dict (artifact publication)."""
        payload = {
            "contender_id": self.contender_id,
            "incumbent_id": self.incumbent_id,
            "bandwidth_bps": self.bandwidth_bps,
            "buffer_packets": self.buffer_packets,
            "seed": self.seed,
            "duration_usec": self.duration_usec,
            "throughput_bps": self.throughput_bps,
            "mmf_allocation_bps": self.mmf_allocation_bps,
            "mmf_share": self.mmf_share,
            "loss_rate": self.loss_rate,
            "queueing_delay_usec": self.queueing_delay_usec,
            "service_metrics": self.service_metrics,
            "utilization": self.utilization,
            "external_loss_fraction": self.external_loss_fraction,
        }
        if self.earlystop is not None:
            payload["earlystop"] = self.earlystop
        return payload

    @classmethod
    def from_json(cls, payload: Dict) -> "ExperimentResult":
        """Deserialise, ignoring unknown keys.

        Old stores and caches must keep loading as fields are added to
        newer schema versions, so any key this dataclass does not know is
        dropped rather than crashing the constructor.
        """
        if payload.keys() <= _RESULT_FIELDS:
            return cls(**payload)
        return cls(
            **{k: v for k, v in payload.items() if k in _RESULT_FIELDS}
        )


_RESULT_FIELDS = frozenset(f.name for f in dataclasses.fields(ExperimentResult))


#: Bucket edges for the per-trial simulated-packet-rate histogram.
_PKTS_PER_SEC_EDGES = (
    1e3, 5e3, 1e4, 2.5e4, 5e4, 7.5e4, 1e5, 1.5e5, 2.5e5, 5e5, 1e6,
)


def _record_sim_metrics(
    testbed: Testbed,
    services: Sequence,
    wall_sec: float,
    sim_span,
) -> None:
    """Publish one finished trial's simulator counters (repro.obs).

    Runs strictly *after* the event loop drains - it only reads counters
    the simulator already maintains (packets sent, events scheduled,
    queue drops), so it cannot perturb simulation output and adds no
    per-packet work.
    """
    packets = sum(
        connection.packets_sent
        for service in services
        for connection in service.connections
    )
    events = testbed.bell.engine.events_scheduled
    drops = sum(testbed.bell.queue.drops.values())
    registry = get_registry()
    registry.counter("sim.trials").inc()
    registry.counter("sim.packets").inc(packets)
    registry.counter("sim.events").inc(events)
    registry.counter("sim.queue_drops").inc(drops)
    registry.histogram("sim.wall_sec").observe(wall_sec)
    if wall_sec > 0:
        registry.histogram(
            "sim.pkts_per_sec", _PKTS_PER_SEC_EDGES
        ).observe(packets / wall_sec)
    sim_span.set(packets=packets, events=events, queue_drops=drops)


def run_trial_artifacts(
    specs: Sequence[ServiceSpec],
    network: NetworkConfig,
    config: ExperimentConfig,
    seed: int = 0,
    env: Optional[ClientEnvironment] = None,
    trace_packets: bool = False,
    engine=None,
    flight=None,
    earlystop=None,
) -> "tuple[ExperimentResult, Testbed]":
    """The single trial core: N services contend once through the testbed.

    Solo is one service, a pair is two, N-way contention (the paper's
    Section 9 'beyond pairwise testing' direction) is many.  MmF
    allocations use N-way water-filling over the documented caps.
    Duplicate specs get ``#2``/``#3`` suffixes, like self-pairs.  Every
    public ``run_*_experiment`` wrapper and every execution backend
    funnels through here, so results are identical no matter which entry
    point or backend ran the trial.

    Returns both the result and the finished :class:`Testbed`, so callers
    that need the raw artifacts (packet trace, queue log - the golden
    bit-identity test, artifact publication and the figure benchmarks)
    share this exact code path with the ordinary result-only wrappers.
    ``trace_packets`` keeps the packet trace only this function returns.
    """
    if len(specs) < 1:
        raise ValueError("need at least one service")
    testbed = Testbed(
        network,
        seed=seed,
        trace_packets=trace_packets,
        engine=engine,
        flight=flight,
        earlystop=earlystop,
    )
    if flight is not None:
        flight.meta.setdefault("service_ids", [spec.service_id for spec in specs])
        flight.meta.setdefault("bandwidth_bps", network.bandwidth_bps)
        flight.meta.setdefault("buffer_packets", network.queue_packets)
        flight.meta.setdefault("seed", seed)
    seen: Dict[str, int] = {}
    services = []
    for index, spec in enumerate(specs):
        service = spec.create(
            seed=derive_service_seed(seed, index, len(specs)), env=env
        )
        count = seen.get(service.service_id, 0)
        seen[service.service_id] = count + 1
        if count:
            service.service_id = f"{service.service_id}#{count + 1}"
        testbed.add_service(service)
        services.append(service)
    with tracing.span(
        "sim.run",
        services="+".join(s.service_id for s in services),
        seed=seed,
    ) as sim_span:
        wall_start = time.perf_counter()
        testbed.start_all()
        testbed.run_window(config)
        sim_wall_sec = time.perf_counter() - wall_start
        _record_sim_metrics(testbed, services, sim_wall_sec, sim_span)

    allocation = max_min_allocation(
        network.bandwidth_bps, [spec.max_throughput_bps for spec in specs]
    )
    ids = [service.service_id for service in services]
    throughput = testbed.throughput_bps()
    result = ExperimentResult(
        contender_id=ids[0],
        incumbent_id=ids[-1],
        bandwidth_bps=network.bandwidth_bps,
        buffer_packets=network.queue_packets,
        seed=seed,
        duration_usec=testbed.window_usec,
        throughput_bps=throughput,
        mmf_allocation_bps=dict(zip(ids, allocation)),
        mmf_share={
            sid: mmf_share(throughput[sid], alloc)
            for sid, alloc in zip(ids, allocation)
        },
        loss_rate=testbed.loss_rates(),
        queueing_delay_usec=testbed.queueing_delays_usec(),
        service_metrics={
            service.service_id: service.metrics() for service in services
        },
        utilization=testbed.utilization(),
        external_loss_fraction=testbed.external_loss_fraction(),
    )
    if earlystop is not None:
        result.earlystop = earlystop.result_metadata(
            planned_window_usec=config.measure_duration_usec,
            window_usec=testbed.window_usec,
            throughput_bps=throughput,
        )
    return result, testbed


def run_multi_experiment(
    specs: "list[ServiceSpec]",
    network: NetworkConfig,
    config: ExperimentConfig,
    seed: int = 0,
    env: Optional[ClientEnvironment] = None,
) -> ExperimentResult:
    """N-way contention: every service in ``specs`` competes at once.

    A service that is fair against one competitor may not stay fair
    against several.  Result-only wrapper over :func:`run_trial_artifacts`.
    """
    return run_trial_artifacts(specs, network, config, seed=seed, env=env)[0]


def run_pair_experiment(
    spec_a: ServiceSpec,
    spec_b: ServiceSpec,
    network: NetworkConfig,
    config: ExperimentConfig,
    seed: int = 0,
    env: Optional[ClientEnvironment] = None,
) -> ExperimentResult:
    """One trial of ``spec_a`` vs ``spec_b`` at the given network setting.

    Self-competition (spec_a is spec_b) is supported: the second instance
    gets a distinct service id suffix so that bottleneck accounting can
    tell the two apart, exactly like running two OneDrive downloads.
    Result-only wrapper over :func:`run_trial_artifacts`.
    """
    return run_trial_artifacts(
        [spec_a, spec_b], network, config, seed=seed, env=env
    )[0]


def run_solo_experiment(
    spec: ServiceSpec,
    network: NetworkConfig,
    config: ExperimentConfig,
    seed: int = 0,
    env: Optional[ClientEnvironment] = None,
) -> ExperimentResult:
    """One uncontended run (calibration / throttle detection).

    Result-only wrapper over :func:`run_trial_artifacts` with a single
    service; the service RNG seed is the trial seed unchanged (see
    :func:`derive_service_seed`).
    """
    return run_trial_artifacts([spec], network, config, seed=seed, env=env)[0]
