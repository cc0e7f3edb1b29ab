"""Pluggable trial execution: one declarative spec, many substrates.

The paper notes (Section 9) that exploring more network settings "would
require modifying Prudentia to run multiple tests in parallel to ensure
they all finish within a feasible time-frame".  This module is that
modification, structured the way harness-style evaluation frameworks
(CoCo-Beholder and kin) do it: a declarative :class:`TrialSpec` names the
work, and interchangeable :class:`ExecutionBackend` implementations decide
*how* it runs - inline in this process, fanned out over a process pool,
or sharded across hosts (:mod:`repro.fleet`).  Every orchestration layer
in ``src/`` - the watchdog, calibration, sweeps, the CLI down to ``repro
solo`` - submits specs through a backend rather than calling an
experiment function directly, and gets that backend from
:func:`build_backend`, the one place a backend is constructed, so adding
a new execution substrate never adds a new execution path.  This module
only executes: which trials a cycle runs, in what order and under which
seeds is :mod:`repro.core.convergence`'s business (sweeps:
:mod:`repro.core.sweep`).

Backends share a :class:`~repro.core.cache.TrialCache` hook: trials whose
content hash is already cached are returned without simulating (the
simulator is deterministic, so cached results are bit-identical), with
hit/miss/wall-clock counters surfaced through :class:`RunnerStats`.
Re-reading recorded trials is not a backend's job at all: reports and
round folds go through :func:`replay`, service ingests through
:func:`lookup` (which leaves misses to the caller) - the same cache
lookup with nothing behind it that could simulate.

Trials address services by *id*; a backend resolves the ids through its
catalog (the default Table-1 catalog unless the caller hands it another)
and runs them in its client environment.  Catalog entries are data
(:class:`~repro.services.catalog.ServiceSpec` recipes), so the process
pool ships each trial's specs and environment to its workers as
arguments: every substrate runs the caller's catalog - submitted
services included - and keys its cache entries the same way.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, fields as dataclasses_fields
from typing import (
    ClassVar, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple,
)

from ..browser.environment import ClientEnvironment
from ..config import ExperimentConfig, NetworkConfig
from ..obs import tracing
from ..obs.flight import FlightRecorder
from ..obs.metrics import get_registry, reset_registry
from ..services.catalog import ServiceCatalog, ServiceSpec, default_catalog
from .cache import CachedTrial, TrialCache, trial_cache_key
from .earlystop import EarlyStopConfig, EarlyStopMonitor, audit_decision
from .experiment import ExperimentResult, run_trial_artifacts


@dataclass(frozen=True, init=False)
class TrialSpec:
    """The universal unit of trial work: N services, one seeded setting.

    Solo calibration is one service, a pair experiment is two, N-way
    contention is many - the same spec type describes all of them, and
    every backend executes them through the same core.

    A spec is immutable, so its faithful-environment cache key is a
    constant of the object: :func:`~repro.core.cache.trial_cache_key`
    derives it on first use and keeps it in ``_cache_key``.  That name
    is a class-level default, not a dataclass field, so ``==``, ``hash``,
    ``repr``, ``asdict`` and ``replace`` never see it; ``copy`` and
    ``pickle`` carry it along with the (equal) fields it was derived
    from.
    """

    service_ids: Tuple[str, ...]
    network: NetworkConfig
    config: ExperimentConfig
    seed: int

    _cache_key: ClassVar[Optional[str]] = None

    def __init__(
        self,
        service_ids: Sequence[str],
        network: NetworkConfig,
        config: ExperimentConfig,
        seed: int = 0,
    ) -> None:
        ids = tuple(service_ids)
        if not ids:
            raise ValueError("need at least one service id")
        object.__setattr__(self, "service_ids", ids)
        object.__setattr__(self, "network", network)
        object.__setattr__(self, "config", config)
        object.__setattr__(self, "seed", seed)

    @classmethod
    def solo(
        cls,
        service_id: str,
        network: NetworkConfig,
        config: ExperimentConfig,
        seed: int = 0,
    ) -> "TrialSpec":
        """A one-service (calibration-style) trial."""
        return cls((service_id,), network, config, seed)

    @classmethod
    def pair(
        cls,
        contender_id: str,
        incumbent_id: str,
        network: NetworkConfig,
        config: ExperimentConfig,
        seed: int = 0,
    ) -> "TrialSpec":
        """A two-service (paper-style pairwise) trial."""
        return cls((contender_id, incumbent_id), network, config, seed)

    @property
    def contender_id(self) -> str:
        """First service (the paper's contender slot)."""
        return self.service_ids[0]

    @property
    def incumbent_id(self) -> str:
        """Last service (the paper's incumbent slot)."""
        return self.service_ids[-1]

    @property
    def pair_key(self) -> Tuple[str, str]:
        """(contender, incumbent) tuple, the scheduler's pair key."""
        return (self.service_ids[0], self.service_ids[-1])


#: What a substrate yields per trial: the result and, when recording,
#: the flight recorder's payload.
Outcome = Tuple[ExperimentResult, Optional[Dict]]


def _simulate(
    spec: TrialSpec,
    services: Sequence[ServiceSpec],
    env: Optional[ClientEnvironment],
    earlystop: Optional[EarlyStopConfig],
    record_flight: bool,
) -> Outcome:
    """What a trial is, on every substrate: ``spec`` with its ids
    already resolved to ``services``, under a fresh flight recorder when
    recording and a fresh stop monitor when armed, through the trial core.

    The deterministic seed-hash audit draw (a pure function of the
    trial's cache key) decides whether an armed trial runs full-length in
    audit mode.
    """
    recorders = [FlightRecorder()] if record_flight else []
    monitor = None
    if earlystop is not None:
        monitor = EarlyStopMonitor(
            earlystop.model,
            audit=audit_decision(
                trial_cache_key(spec, env), earlystop.audit_fraction
            ),
        )
    with tracing.span(
        "trial.run",
        services="+".join(spec.service_ids),
        seed=spec.seed,
    ):
        result, _testbed = run_trial_artifacts(
            services,
            spec.network,
            spec.config,
            seed=spec.seed,
            env=env,
            recorders=recorders,
            earlystop=monitor,
        )
    return result, recorders[0].to_json() if recorders else None


class CacheMissError(RuntimeError):
    """A :func:`replay` met trials that are not in the cache.

    ``misses`` lists them in submission order.  Replay paths (fleet
    assembly, adaptive round folding, service ingest) rely on this to
    never silently re-simulate: replay is pure cache reads.
    """

    def __init__(self, misses: Sequence["TrialSpec"]) -> None:
        self.misses = list(misses)
        super().__init__(
            f"replay is missing {len(self.misses)} trial(s); it reads "
            "recorded trials and never simulates"
        )


@dataclass
class RunnerStats:
    """Execution counters surfaced by every backend.

    ``trials_run`` counts actual simulations; cache hits skip simulation
    entirely, so ``trials_run + cache_hits`` equals the number of trials
    requested.  ``wall_clock_sec`` measures only time spent simulating
    (cache lookups and writes are not included).
    """

    trials_run: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    wall_clock_sec: float = 0.0
    #: Early-termination counters (repro.core.earlystop); all zero - and
    #: absent from the JSON - when the feature is off, keeping receipts
    #: and reports byte-compatible with the seed schema.
    trials_truncated: int = 0
    sim_sec_saved: float = 0.0
    trials_audited: int = 0
    audit_mispredicts: int = 0

    @property
    def trials_total(self) -> int:
        """Trials requested: simulated plus served from cache."""
        return self.trials_run + self.cache_hits

    @property
    def audit_mispredict_rate(self) -> Optional[float]:
        """Fraction of audited full-length trials the rule mispredicted;
        ``None`` until one has been audited (no audits is not 0%)."""
        if self.trials_audited == 0:
            return None
        return self.audit_mispredicts / self.trials_audited

    def record_earlystop(self, meta: Optional[Dict]) -> None:
        """Fold one simulated result's ``earlystop`` block into counters."""
        if not meta:
            return
        if meta.get("truncated"):
            self.trials_truncated += 1
            self.sim_sec_saved += float(meta.get("sim_sec_saved", 0.0))
        elif meta.get("audit"):
            self.trials_audited += 1
            if meta.get("mispredict"):
                self.audit_mispredicts += 1

    def merged_with(self, other: "RunnerStats") -> "RunnerStats":
        """Element-wise sum of two counter sets."""
        return RunnerStats(
            **{
                name: getattr(self, name) + getattr(other, name)
                for name in _STATS_FIELDS
            }
        )

    @classmethod
    def total(cls, parts: Iterable["RunnerStats"]) -> "RunnerStats":
        """Every counter set in ``parts`` summed, in order."""
        return functools.reduce(cls.merged_with, parts, cls())

    def earlystop_rollup(self) -> Dict:
        """The early-termination counters as status roll-ups publish
        them (``fleet status``, ``fleet cycle``): rounded, the rate
        ``null`` until an audit has run."""
        rate = self.audit_mispredict_rate
        return {
            "trials_truncated": self.trials_truncated,
            "sim_sec_saved": round(self.sim_sec_saved, 3),
            "trials_audited": self.trials_audited,
            "audit_mispredicts": self.audit_mispredicts,
            "audit_mispredict_rate": (
                None if rate is None else round(rate, 4)
            ),
        }

    def earlystop_summary(self, audits: bool = True) -> str:
        """The one-line early-termination summary ``repro cycle`` and
        ``fleet status`` print; ``fleet cycle`` prints it without the
        audit count (``audits=False``)."""
        rate = self.audit_mispredict_rate
        audited = f"; {self.trials_audited} audited full-length"
        return (
            f"earlystop: {self.trials_truncated} trials truncated, "
            f"{self.sim_sec_saved:.1f} sim-seconds saved"
            + (audited if audits else "")
            + (f", mispredict rate {rate:.2%}" if rate is not None else "")
        )

    def to_json(self) -> Dict:
        """Serialise the counters (report/receipt publication)."""
        payload = {
            "trials_run": self.trials_run,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "wall_clock_sec": self.wall_clock_sec,
        }
        if (
            self.trials_truncated
            or self.trials_audited
            or self.audit_mispredicts
            or self.sim_sec_saved
        ):
            payload["trials_truncated"] = self.trials_truncated
            payload["sim_sec_saved"] = round(self.sim_sec_saved, 6)
            payload["trials_audited"] = self.trials_audited
            payload["audit_mispredicts"] = self.audit_mispredicts
        return payload

    @classmethod
    def from_json(cls, payload: Dict) -> "RunnerStats":
        """Deserialise, ignoring unknown keys (forward compatibility)."""
        return cls(
            **{k: v for k, v in payload.items() if k in _STATS_FIELDS}
        )


_STATS_FIELDS = frozenset(f.name for f in dataclasses_fields(RunnerStats))


def _lookup(
    cache: Optional[TrialCache],
    trials: Sequence[TrialSpec],
    env: Optional[ClientEnvironment],
    allow_truncated: bool,
    stats: RunnerStats,
) -> List[Optional[CachedTrial]]:
    """Serve ``trials`` from ``cache`` in one :meth:`TrialCache.read`,
    counting into ``stats``: the records in submission order, ``None``
    where the cache had nothing admissible (:meth:`ExecutionBackend.complete`
    simulates those misses, :func:`replay` refuses them)."""
    if cache is None or not trials:
        return [None] * len(trials)
    with tracing.span("cache.lookup", trials=len(trials)) as lookup_span:
        records = cache.read(trials, env, allow_truncated)
        misses = records.count(None)
        hits = len(trials) - misses
        lookup_span.set(hits=hits, misses=misses)
    stats.cache_hits += hits
    stats.cache_misses += misses
    return records


def lookup(
    cache: TrialCache, specs: Sequence[TrialSpec], allow_truncated: bool
) -> Tuple[List[Optional[CachedTrial]], RunnerStats]:
    """Re-read recorded trials, none simulated: the
    :class:`~repro.core.cache.CachedTrial` records in ``specs`` order,
    ``None`` where ``cache`` has nothing admissible, and the lookup's
    :class:`RunnerStats` (``trials_run == 0``).  ``allow_truncated``
    admits early-terminated entries as the measurements they are - pass
    it exactly where the run that wrote the cache was armed (a plan or
    cycle carrying an ``earlystop`` block; a service ingest folds
    whatever the fleet measured); anywhere else a truncated entry is a
    miss.
    """
    stats = RunnerStats()
    return _lookup(cache, specs, None, allow_truncated, stats), stats


def replay(
    cache: TrialCache, specs: Sequence[TrialSpec], allow_truncated: bool
) -> Tuple[List[CachedTrial], RunnerStats]:
    """:func:`lookup` of every spec, refused when one misses: raises
    :class:`CacheMissError` naming every spec the cache cannot serve,
    else ``cache_hits == len(specs)``.
    """
    records, stats = lookup(cache, specs, allow_truncated)
    misses = [spec for spec, record in zip(specs, records) if record is None]
    if misses:
        raise CacheMissError(misses)
    return records, stats  # type: ignore[return-value]


class ExecutionBackend:
    """The :meth:`run` interface every execution substrate implements.

    The base class owns cache consultation, completion and statistics
    (:meth:`complete`; :meth:`run` is that plus the results); subclasses
    implement :meth:`_execute` for the trials that missed the cache,
    each trial through :func:`_simulate`.

    Trial ids resolve through ``catalog`` (the default Table-1 catalog
    when omitted) and run in client environment ``env`` (``None`` = the
    faithful testbed), which every substrate also folds into its cache
    keys.  ``earlystop`` arms every simulated trial with the stop-rule
    monitor (see :mod:`repro.core.earlystop`); truncated cache entries
    count as hits exactly when it is armed, so plain runs re-simulate
    full-length and supersede truncations.

    ``record_flight`` runs each cache miss, on either substrate, under a
    fresh :class:`~repro.obs.flight.FlightRecorder`, whose payload is
    kept in :attr:`recordings` (by trial cache key; ``None`` when not
    recording) and written with the trial's record as its ``flight``
    sidecar.  Cache hits skip simulation AND recording: the original
    sidecar stays the recording of record, so merges are loss-free.
    Recording changes no result (the recorder only reads; see
    :mod:`repro.obs.flight`).
    """

    def __init__(
        self,
        catalog: Optional[ServiceCatalog] = None,
        env: Optional[ClientEnvironment] = None,
        cache: Optional[TrialCache] = None,
        earlystop: Optional[EarlyStopConfig] = None,
        record_flight: bool = False,
    ) -> None:
        self.catalog = catalog if catalog is not None else default_catalog()
        self.env = env
        self.cache = cache
        self.earlystop = earlystop
        self.recordings: Optional[Dict[str, Dict]] = (
            {} if record_flight else None
        )
        self.stats = RunnerStats()

    def run(self, trials: Sequence[TrialSpec]) -> List[ExperimentResult]:
        """Execute ``trials``; results in submission order: each cache
        hit's built from its record, each miss's just simulated."""
        records, simulated = self._complete(trials)
        return [
            simulated[i] if record is None else record.result
            for i, record in enumerate(records)
        ]

    def complete(self, trials: Sequence[TrialSpec]) -> None:
        """Make every trial in ``trials`` recorded, building no result
        for a cache hit (what a shard worker needs: its trials on disk)."""
        self._complete(trials)

    def _complete(
        self, trials: Sequence[TrialSpec]
    ) -> Tuple[List[Optional[CachedTrial]], Dict[int, ExperimentResult]]:
        """Serve ``trials`` from the cache and simulate the rest: the
        :func:`_lookup` records (``None`` where a trial missed) and the
        simulated results by index in ``trials``.

        The one place a simulated trial is completed, on any substrate:
        as each comes back, its record and its recording land in one
        write (the commit point), then it is counted.  A trial that
        raises ends the run with every earlier trial on disk."""
        env, cache, stats = self.env, self.cache, self.stats
        armed = self.earlystop is not None
        records = _lookup(cache, trials, env, armed, stats)
        misses = [
            (i, spec) for i, spec in enumerate(trials) if records[i] is None
        ]
        simulated: Dict[int, ExperimentResult] = {}
        if not misses:
            return records, simulated
        registry = get_registry()
        simulating = 0.0
        outcomes = self._execute([spec for _i, spec in misses])
        try:
            with tracing.span(
                "backend.dispatch",
                backend=type(self).__name__,
                trials=len(misses),
            ):
                for index, spec in misses:
                    start = time.perf_counter()
                    result, recording = next(outcomes)
                    simulating += time.perf_counter() - start
                    if cache is not None:
                        cache.put(spec, result, env=env, sidecars=(
                            recording and {"flight": recording}
                        ))
                    stats.trials_run += 1
                    stats.record_earlystop(result.earlystop)
                    if recording is not None:
                        key = trial_cache_key(spec, env)
                        self.recordings[key] = recording
                    simulated[index] = result
        finally:
            outcomes.close()
            stats.wall_clock_sec += simulating
            registry.histogram("runner.dispatch_sec").observe(simulating)
        return records, simulated

    def _execute(self, trials: Sequence[TrialSpec]) -> Iterator[Outcome]:
        """Simulate ``trials``, yielding an :data:`Outcome` per trial in
        order; subclasses supply the substrate."""
        raise NotImplementedError


class InlineBackend(ExecutionBackend):
    """Sequential in-process execution (the default substrate)."""

    def _execute(self, trials: Sequence[TrialSpec]) -> Iterator[Outcome]:
        """Run each trial in this process, one at a time."""
        record = self.recordings is not None
        for spec in trials:
            services = [self.catalog.get(sid) for sid in spec.service_ids]
            yield _simulate(spec, services, self.env, self.earlystop, record)


def _run_trial_json(args: Tuple) -> Tuple[Dict, Optional[Dict], Dict]:
    """Pool-worker entry point: run one trial from its shipped
    ``(spec, service specs, env, earlystop JSON, record_flight)``;
    returns its result JSON, flight recording (or ``None``) and the
    snapshot of the metrics this trial alone bumped."""
    spec, services, env, earlystop_json, record_flight = args
    earlystop = (
        EarlyStopConfig.from_json(earlystop_json)
        if earlystop_json is not None
        else None
    )
    registry = reset_registry()
    result, recording = _simulate(
        spec, services, env, earlystop, record_flight
    )
    return result.to_json(), recording, registry.snapshot()


class ProcessPoolBackend(ExecutionBackend):
    """Fans seeded trials out over a process pool.

    Results, entries and sidecars are :class:`InlineBackend`'s (each
    trial is an isolated, seeded simulation); only the wall-clock
    changes.  Each trial travels to its worker with its resolved
    :class:`~repro.services.catalog.ServiceSpec` recipes and the
    backend's client environment, so workers build nothing from names;
    the metrics it bumps there are folded into this process's registry.
    When a trial raises, the trials not yet started are cancelled.
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        catalog: Optional[ServiceCatalog] = None,
        env: Optional[ClientEnvironment] = None,
        cache: Optional[TrialCache] = None,
        earlystop: Optional[EarlyStopConfig] = None,
        record_flight: bool = False,
    ) -> None:
        super().__init__(catalog, env, cache, earlystop, record_flight)
        self.max_workers = max_workers

    def _execute(self, trials: Sequence[TrialSpec]) -> Iterator[Outcome]:
        """Map trials over worker processes, preserving order."""
        # Imported here: only a pool pays for loading multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        earlystop_json = (
            self.earlystop.to_json() if self.earlystop is not None else None
        )
        payload = [
            (
                spec,
                [self.catalog.get(sid) for sid in spec.service_ids],
                self.env,
                earlystop_json,
                self.recordings is not None,
            )
            for spec in trials
        ]
        registry = get_registry()
        pool = ProcessPoolExecutor(max_workers=self.max_workers)
        try:
            for result_json, recording, metrics in pool.map(
                _run_trial_json, payload
            ):
                registry.fold(metrics)
                yield ExperimentResult.from_json(result_json), recording
        finally:
            pool.shutdown(cancel_futures=True)


#: CLI / fleet-manifest names for the execution substrates.
BACKEND_KINDS = ("inline", "process")


def build_backend(
    kind: Optional[str] = None,
    workers: Optional[int] = None,
    cache: Optional[TrialCache] = None,
    catalog: Optional[ServiceCatalog] = None,
    env: Optional[ClientEnvironment] = None,
    earlystop: Optional[EarlyStopConfig] = None,
    record_flight: bool = False,
) -> ExecutionBackend:
    """Construct an execution backend - the one place ``src/`` does.

    ``kind=None`` keeps the historic behaviour: ``workers`` selects the
    process pool, otherwise execution is inline.  Explicit kinds pick the
    substrate directly, with ``workers`` bounding the pool size.  Every
    substrate runs ``catalog`` (default: the Table-1 catalog) in client
    environment ``env`` (default: the faithful testbed); the pool ships
    both to its workers with each trial.  ``earlystop`` arms every
    substrate's trials with the stop-rule monitor (the pool ships the
    model JSON to its workers), and ``record_flight`` flight-records
    every simulated trial on either substrate (see
    :class:`ExecutionBackend`): the pool writes the same entries and
    sidecars as inline.
    """
    if kind is None:
        kind = "process" if workers else "inline"
    if kind == "process":
        return ProcessPoolBackend(
            workers, catalog, env, cache, earlystop, record_flight
        )
    if kind == "inline":
        return InlineBackend(catalog, env, cache, earlystop, record_flight)
    raise ValueError(
        f"unknown backend kind {kind!r}; choices: {BACKEND_KINDS}"
    )
