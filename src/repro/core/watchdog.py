"""Prudentia itself: the continuously-running fairness watchdog.

Ties the pieces together: the service catalog, the two bandwidth settings,
solo calibration, the result store, and report generation.  One
``run_cycle`` is the simulated equivalent of the paper's two-week sweep
over all pairs in both settings: it advances a
:class:`~repro.core.convergence.CycleState` - the round-robin order, the
seeds and the CI stopping rule all live there - and its only own part is
*executing* a round, through an execution backend
(:meth:`Prudentia.backend`) into the result store.  The adaptive fleet driver
(:func:`repro.fleet.adaptive.run_adaptive_cycle`) is the same loop with
a different ``execute``.  ``run_continuously`` repeats cycles the way the
live deployment has since 2022.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..browser.environment import ClientEnvironment
from ..config import (
    ExperimentConfig,
    NetworkConfig,
    TrialPolicyConfig,
    highly_constrained,
    moderately_constrained,
    trial_policy_for,
)
from ..obs import tracing
from ..obs.heartbeat import HeartbeatWriter
from ..obs.metrics import get_registry
from ..services.catalog import ServiceCatalog, default_catalog
from .cache import TrialCache
from .calibration import SoloCalibration, calibrate_catalog, format_table1
from .convergence import CycleState
from .report import FairnessReport
from .results import ResultStore
from .runner import ExecutionBackend, RunnerStats, build_backend


class Prudentia:
    """The watchdog orchestrator.

    Args:
        catalog: service registry (defaults to the Table-1 catalog).
        networks: bandwidth settings to sweep (defaults to the paper's
            8 Mbps and 50 Mbps settings).
        experiment_config: per-trial protocol (duration/trim); defaults to
            the paper's 10-minute/2-minute-trim protocol - scale it down
            via ``ExperimentConfig().scaled(seconds)`` for quick runs.
        policy_overrides: per-bandwidth trial-policy configs; defaults to
            the paper's min-10/max-30 with CI thresholds per setting.
        env: client rendering environment (Section 3.3 fidelity).
        cache: content-addressed trial cache; repeated cycles, re-runs and
            re-queued batches skip trials already simulated under the same
            inputs.  Pass a :class:`TrialCache` or a cache directory path.
        earlystop: optional :class:`~repro.core.earlystop.EarlyStopConfig`;
            when set, every simulated trial is armed with the trial-level
            early-termination monitor and truncated samples feed the
            convergence tracker as windowed-rate estimates.
        heartbeat_path: when set, a JSON heartbeat file is atomically
            rewritten after every executed batch and at cycle boundaries
            (progress, ETA, staleness), so long ``run_continuously``
            deployments are inspectable from outside the process - read
            it with ``repro obs heartbeat``.
    """

    def __init__(
        self,
        catalog: Optional[ServiceCatalog] = None,
        networks: Optional[Sequence[NetworkConfig]] = None,
        experiment_config: Optional[ExperimentConfig] = None,
        policy_overrides: Optional[Dict[float, TrialPolicyConfig]] = None,
        env: Optional[ClientEnvironment] = None,
        base_seed: int = 0,
        cache: Optional[Union[TrialCache, Path, str]] = None,
        heartbeat_path: Optional[Union[Path, str]] = None,
        earlystop=None,
    ) -> None:
        self.catalog = catalog or default_catalog()
        self.networks = list(
            networks
            if networks is not None
            else [highly_constrained(), moderately_constrained()]
        )
        self.experiment_config = experiment_config or ExperimentConfig()
        self.policy_overrides = policy_overrides or {}
        self.env = env or ClientEnvironment.faithful_testbed()
        self.base_seed = base_seed
        if cache is not None and not isinstance(cache, TrialCache):
            cache = TrialCache(Path(cache))
        self.cache = cache
        self.earlystop = earlystop
        self.store = ResultStore()
        self.calibrations: Dict[float, Dict[str, SoloCalibration]] = {}
        self.cycles_completed = 0
        self.last_cycle_stats: Optional[RunnerStats] = None
        self.heartbeat: Optional[HeartbeatWriter] = (
            HeartbeatWriter(heartbeat_path)
            if heartbeat_path is not None
            else None
        )

    # ------------------------------------------------------------------
    # Calibration (Table 1)
    # ------------------------------------------------------------------

    def calibrate(
        self,
        network: Optional[NetworkConfig] = None,
        service_ids: Optional[List[str]] = None,
    ) -> Dict[str, SoloCalibration]:
        """Solo-run services to find max rates / upstream throttles.

        Runs in the client environment the cycles run in, unarmed: a
        solo ceiling is a full-length measurement.
        """
        net = network or self.networks[-1]
        calibrations = calibrate_catalog(
            self.catalog,
            net,
            self.experiment_config,
            service_ids=service_ids,
            seed=self.base_seed,
            backend=self.backend(armed=False),
        )
        self.calibrations[net.bandwidth_bps] = calibrations
        return calibrations

    def table1(self, network: Optional[NetworkConfig] = None) -> str:
        """Render the Table-1 service inventory from calibration data."""
        net = network or self.networks[-1]
        calibrations = self.calibrations.get(net.bandwidth_bps)
        if calibrations is None:
            calibrations = self.calibrate(net)
        return format_table1(self.catalog, calibrations)

    # ------------------------------------------------------------------
    # All-pairs sweeps
    # ------------------------------------------------------------------

    def backend(
        self,
        kind: Optional[str] = None,
        workers: Optional[int] = None,
        armed: bool = True,
    ) -> ExecutionBackend:
        """An execution backend over this watchdog's catalog, client
        environment, cache and stop rule (``armed=False`` leaves the rule
        off) - on every substrate, pool workers included.
        ``kind``/``workers`` pick the substrate as in
        :func:`~repro.core.runner.build_backend`;
        pass the result to :meth:`run_cycle` for a process-pool cycle
        (the Section-9 scaling direction)."""
        return build_backend(
            kind,
            workers,
            cache=self.cache,
            catalog=self.catalog,
            env=self.env,
            earlystop=self.earlystop if armed else None,
        )

    def run_cycle(
        self,
        service_ids: Optional[List[str]] = None,
        include_self_pairs: bool = True,
        networks: Optional[Sequence[NetworkConfig]] = None,
        backend: Optional[ExecutionBackend] = None,
    ) -> ResultStore:
        """One full all-pairs sweep over every configured setting.

        Sequential and parallel execution share one code path: the
        :class:`CycleState` emits each round's trials (every setting's
        queued batches, round-robin), an :class:`ExecutionBackend` runs
        them, valid results land in the store and every outcome feeds
        the trial policy.  ``backend`` defaults to :meth:`backend`'s
        inline one; a process pool (``self.backend(workers=4)``) leaves
        the policy and its re-queueing behaviour unchanged, since each
        round completes before the next is planned.  Execution counters
        for the cycle (trials simulated, cache hits/misses, simulation
        wall-clock) land in ``self.last_cycle_stats``.
        """
        runner = backend or self.backend()
        ids = service_ids or self.catalog.heatmap_ids()
        settings = list(networks or self.networks)
        state = CycleState(
            ids,
            settings,
            self.experiment_config,
            [
                self.policy_overrides.get(network.bandwidth_bps)
                or trial_policy_for(network)
                for network in settings
            ],
            base_seed=self.base_seed + self.cycles_completed,
            include_self_pairs=include_self_pairs,
        )
        registry = get_registry()
        with tracing.span(
            "cycle.run",
            cycle=self.cycles_completed,
            services=len(ids),
        ) as cycle_span:
            while specs := state.next_specs():
                with tracing.span(
                    "cycle.round",
                    cycle=self.cycles_completed,
                    round=state.round_index,
                    trials=len(specs),
                    pairs_open=state.open_pairs_total(),
                ):
                    results = runner.run(specs)
                    self.store.extend(results, valid_only=True)
                    state.record(specs, results)
                registry.gauge("planner.pairs_open").set(
                    state.open_pairs_total()
                )
                if self.heartbeat is not None:
                    self.heartbeat.batch_done(len(specs))
            registry.counter("planner.trials_saved").inc(state.trials_saved())
            cycle_span.set(trials=state.trials_done_total())
        self.cycles_completed += 1
        self.last_cycle_stats = runner.stats
        if self.heartbeat is not None:
            self.heartbeat.cycle_done()
        return self.store

    def run_continuously(
        self,
        cycles: Optional[int] = None,
        service_ids: Optional[List[str]] = None,
        stop: Optional[Callable[[], bool]] = None,
        stop_file: Optional[Union[str, Path]] = None,
    ) -> ResultStore:
        """Repeat all-pairs sweeps (the live-deployment mode).

        ``cycles=None`` runs open-ended - the deployment shape, where
        the watchdog measures until told to stop - and then requires a
        stop condition: a ``stop`` callback and/or a ``stop_file`` path
        whose existence ends the loop, both checked *between* cycles so
        a cycle is never abandoned mid-sweep.  With a bounded ``cycles``
        the stop conditions are optional early exits.

        With a ``heartbeat_path`` configured, the heartbeat file tracks
        per-cycle progress; its ETA is ``None`` when the horizon is
        unbounded rather than a fabricated number.
        """
        if cycles is not None and cycles < 1:
            raise ValueError("need at least one cycle")
        if cycles is None and stop is None and stop_file is None:
            raise ValueError(
                "open-ended run (cycles=None) needs a stop callback "
                "or stop_file"
            )
        stop_path = Path(stop_file) if stop_file is not None else None

        def _should_stop() -> bool:
            if stop is not None and stop():
                return True
            return stop_path is not None and stop_path.exists()

        if self.heartbeat is not None:
            self.heartbeat.starting(cycles_total=cycles)
        completed = 0
        while cycles is None or completed < cycles:
            if _should_stop():
                break
            self.run_cycle(service_ids=service_ids)
            completed += 1
        if self.heartbeat is not None and cycles is None:
            self.heartbeat.finished()
        return self.store

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def report(
        self,
        network: NetworkConfig,
        service_ids: Optional[List[str]] = None,
    ) -> FairnessReport:
        """A fairness report over everything measured at this setting.

        The most recent cycle's execution counters ride along, so the
        published report records how much of the cycle was simulated
        versus served from cache.
        """
        ids = service_ids or self.catalog.heatmap_ids()
        return FairnessReport(
            self.store,
            ids,
            network.bandwidth_bps,
            runner_stats=self.last_cycle_stats,
        )
