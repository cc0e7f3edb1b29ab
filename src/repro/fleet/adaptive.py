"""Adaptive multi-round fleet cycles: plan -> run -> merge -> re-plan.

The fixed-count fleet pipeline (:func:`~repro.fleet.plan.plan_cycle`)
enumerates every trial up front, so the Section 3.4 stopping rule never
saves a simulation at fleet scale.  This module closes that gap: an
:class:`AdaptiveCycleState` owns one
:class:`~repro.core.convergence.ConvergenceTracker` per network setting -
the same convergence authority ``Prudentia.run_cycle`` uses locally - and
iterates rounds:

1. **plan**   - :meth:`AdaptiveCycleState.plan_round` emits a
   round-scoped :class:`~repro.fleet.plan.FleetPlan` covering only the
   still-open pairs' next batches (round index + parent cycle id in the
   schema);
2. **run**    - shard manifests dispatch through the ordinary
   :func:`~repro.fleet.worker.run_shard` worker (or any dispatcher);
   shards whose receipts never arrive are re-dispatched with
   attempt-bumped manifests (:func:`~repro.fleet.status.fleet_status`
   decides who is missing, the merge's supersede rule resolves the
   duplicate receipts);
3. **merge**  - receipts fold into one cumulative cycle cache;
4. **evaluate / re-plan** - :meth:`AdaptiveCycleState.fold_round`
   replays the round's trials from the cache (``cache_only`` - folding
   never simulates) into the trackers, which retire converged/unstable
   pairs and queue the next batches.

Rounds repeat until every pair is converged or at the max-trial cap.
Because per-trial seeds are pure functions of (base seed, pair, trial
index), every round's trials carry the same content-addressed cache keys
a fixed-count plan would have used - re-planning on a warm cache is free,
and a fully-converged adaptive cycle assembles into a report
bit-identical to the fixed-policy path for the pairs it measured.

Deterministic replay is the trick behind :meth:`assembly_plan`: verdicts
are pure functions of the recorded throughputs (data-derived bootstrap
seeds), so the full executed trial list - in single-host execution
order - can be reconstructed from the trackers' recorded series and
handed to the standard zero-simulation assembler.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..atomicio import atomic_write
from ..config import (
    ExperimentConfig,
    NetworkConfig,
    TrialPolicyConfig,
    trial_policy_for,
)
from ..core.cache import CACHE_SCHEMA_VERSION, TrialCache
from ..core.convergence import ConvergenceTracker
from ..core.policy import TrialPolicy
from ..core.runner import InlineBackend, RunnerStats, TrialSpec
from ..core.scheduler import RoundRobinScheduler
from ..obs import tracing
from ..obs.log import get_logger
from ..obs.metrics import get_registry
from ..services.catalog import ServiceCatalog
from .merge import MergeReport, merge_shards
from .plan import (
    FleetError,
    FleetPlan,
    _canonical,
    _dataclass_from_json,
    _planned,
    load_json_artifact,
    network_fingerprint,
    write_manifest,
)
from .status import DEFAULT_STALL_SEC, fleet_status
from .worker import run_shard

_log = get_logger("fleet.adaptive")

#: Cycle-state filename inside an adaptive cycle's output directory.
STATE_FILENAME = "cycle-state.json"

#: Assembly-plan filename written once the cycle converges.
ASSEMBLY_PLAN_FILENAME = "assembly-plan.json"

#: Bump when the cycle-state JSON layout changes incompatibly.
ADAPTIVE_STATE_SCHEMA_VERSION = 1

#: A dispatcher runs one shard manifest into a cache directory.  The
#: default ships the manifest through :func:`run_shard` in-process;
#: tests and real deployments substitute their own transport.
Dispatcher = Callable[[Dict, Path], None]


class AdaptiveCycleState:
    """Cross-round state of one adaptive fleet cycle.

    One :class:`ConvergenceTracker` per network setting accumulates
    per-pair trial series across rounds; ``round_index`` counts folded
    rounds and ``history`` keeps one summary entry per round.  The whole
    object round-trips through strict JSON (:meth:`save`/:meth:`load`),
    so a cycle can be resumed - or its next round planned - on any host.
    """

    def __init__(
        self,
        service_ids: Sequence[str],
        networks: Sequence[NetworkConfig],
        config: ExperimentConfig,
        policies: Sequence[TrialPolicyConfig],
        base_seed: int = 0,
        include_self_pairs: bool = True,
        earlystop: Optional[Dict] = None,
    ) -> None:
        if len(policies) != len(networks):
            raise ValueError("need one trial policy per network")
        self.service_ids = sorted(service_ids)
        self.networks = list(networks)
        self.config = config
        self.policies = list(policies)
        self.base_seed = base_seed
        self.include_self_pairs = include_self_pairs
        #: Optional earlystop config JSON (model artifact + audit
        #: fraction); rides into every round's manifests and binds the
        #: cycle identity (truncated samples change the recorded series).
        self.earlystop = earlystop
        self.trackers: List[ConvergenceTracker] = [
            ConvergenceTracker.for_services(
                self.service_ids,
                TrialPolicy(policy),
                include_self_pairs=include_self_pairs,
                base_seed=base_seed,
            )
            for policy in self.policies
        ]
        self.round_index = 0
        self.history: List[Dict] = []

    @classmethod
    def create(
        cls,
        service_ids: Sequence[str],
        networks: Sequence[NetworkConfig],
        config: ExperimentConfig,
        policies: Optional[Sequence[TrialPolicyConfig]] = None,
        base_seed: int = 0,
        include_self_pairs: bool = True,
        earlystop: Optional[Dict] = None,
    ) -> "AdaptiveCycleState":
        """New cycle state; policies default to the paper's per-setting
        CI thresholds (:func:`~repro.config.trial_policy_for`)."""
        if policies is None:
            policies = [trial_policy_for(network) for network in networks]
        return cls(
            service_ids,
            networks,
            config,
            policies,
            base_seed=base_seed,
            include_self_pairs=include_self_pairs,
            earlystop=earlystop,
        )

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------

    @property
    def cycle_id(self) -> str:
        """Content identity of the whole adaptive cycle.

        A pure function of the cycle's inputs (services, networks,
        protocol, policies, seed) - not of any execution state - so
        every round's plan binds to the same parent id.
        """
        payload = {
            "kind": "adaptive-cycle",
            "cache_schema": CACHE_SCHEMA_VERSION,
            "service_ids": self.service_ids,
            "networks": [dataclasses.asdict(n) for n in self.networks],
            "config": dataclasses.asdict(self.config),
            "policies": [p.to_json() for p in self.policies],
            "base_seed": self.base_seed,
            "include_self_pairs": self.include_self_pairs,
        }
        if self.earlystop is not None:
            # Truncated samples change the recorded series, so an armed
            # cycle is a different cycle; omitted when disabled so
            # pre-earlystop cycle ids are unchanged.
            payload["earlystop"] = self.earlystop
        return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Convergence rollups
    # ------------------------------------------------------------------

    @property
    def done(self) -> bool:
        """True once no tracker has queued trials left."""
        return not any(tracker.pending() for tracker in self.trackers)

    def open_pairs_total(self) -> int:
        """Pairs not yet retired, across every network setting."""
        return sum(len(t.open_pairs()) for t in self.trackers)

    def trials_done_total(self) -> int:
        """Trials executed so far, across every network setting."""
        return sum(t.trials_done_total() for t in self.trackers)

    def trials_cap_total(self) -> int:
        """What a fixed max-trial plan would run for the same matrix."""
        return sum(t.trials_cap_total() for t in self.trackers)

    def trials_saved(self) -> int:
        """Trials the stopping rule skipped (retired pairs only)."""
        return sum(t.trials_saved() for t in self.trackers)

    # ------------------------------------------------------------------
    # Round planning
    # ------------------------------------------------------------------

    def plan_round(self, num_shards: int) -> Optional[FleetPlan]:
        """The next round's work as a round-scoped fleet plan.

        Covers only still-open pairs' queued batches, in the same
        network-major, offset-major (round-robin) order the local
        scheduler would execute them.  Seeds come from
        :meth:`ConvergenceTracker.seed_for`, so every planned trial's
        cache key equals the one the fixed-count path would compute for
        the same trial index.  Returns ``None`` when the cycle is done.
        """
        specs: List[TrialSpec] = []
        for net_index, network in enumerate(self.networks):
            states = self.trackers[net_index].states
            tracker = self.trackers[net_index]
            max_queued = max(
                (s.trials_queued for s in states.values()), default=0
            )
            for offset in range(max_queued):
                for pair, state in states.items():
                    if offset < state.trials_queued:
                        specs.append(
                            TrialSpec.pair(
                                pair[0],
                                pair[1],
                                network,
                                self.config,
                                seed=tracker.seed_for(
                                    pair, state.trials_done + offset
                                ),
                            )
                        )
        if not specs:
            return None
        return FleetPlan(
            "cycle",
            num_shards,
            _planned(specs, num_shards),
            params=self._plan_params(),
            cycle_id=self.cycle_id,
            round_index=self.round_index,
        )

    def _plan_params(self) -> Dict:
        params = {
            "service_ids": list(self.service_ids),
            "networks": [dataclasses.asdict(n) for n in self.networks],
            "config": dataclasses.asdict(self.config),
            "base_seed": self.base_seed,
            "include_self_pairs": self.include_self_pairs,
            "adaptive": True,
        }
        if self.earlystop is not None:
            params["earlystop"] = self.earlystop
        return params

    # ------------------------------------------------------------------
    # Folding results back in
    # ------------------------------------------------------------------

    def fold_round(
        self,
        plan: FleetPlan,
        cache: TrialCache,
        catalog: Optional[ServiceCatalog] = None,
        merge_report: Optional[MergeReport] = None,
    ) -> Dict:
        """Fold one merged round into the trackers; advance the round.

        Replays the round plan's trials from the cumulative cache
        through a ``cache_only`` backend - folding never simulates; a
        missing entry raises :class:`~repro.core.runner.CacheMissError`
        - and feeds every outcome to the owning tracker, which retires
        converged/unstable pairs and queues next batches.  Returns the
        round's history entry.
        """
        if plan.cycle_id != self.cycle_id:
            raise FleetError(
                f"round plan belongs to cycle {str(plan.cycle_id)[:12]}..., "
                f"not this cycle {self.cycle_id[:12]}..."
            )
        if plan.round_index != self.round_index:
            raise FleetError(
                f"round plan is round {plan.round_index}, state expects "
                f"round {self.round_index} (fold rounds in order)"
            )
        tracker_for = {
            network_fingerprint(network): self.trackers[index]
            for index, network in enumerate(self.networks)
        }
        backend = InlineBackend(
            catalog=catalog,
            cache=cache,
            cache_only=True,
            accept_truncated=self.earlystop is not None,
        )
        results = backend.run([t.spec for t in plan.trials])
        for planned, result in zip(plan.trials, results):
            tracker = tracker_for[network_fingerprint(planned.spec.network)]
            tracker.record_trial(
                planned.spec.pair_key,
                result.throughput_bps,
                truncated=result.truncated,
            )
        entry = {
            "round": self.round_index,
            "trials": len(plan.trials),
            "plan_id": plan.plan_id,
            "verdicts": [t.counts() for t in self.trackers],
            "pairs_open_after": self.open_pairs_total(),
        }
        if merge_report is not None:
            entry["fleet_stats"] = merge_report.stats.to_json()
        self.history.append(entry)
        self.round_index += 1
        return entry

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------

    def assembly_plan(self, num_shards: int = 1) -> FleetPlan:
        """The converged cycle's full trial list as an ordinary plan.

        Replays a fresh :class:`RoundRobinScheduler` per network against
        the *recorded* throughputs: because bootstrap seeds derive from
        the data, the replayed stopping decisions are identical to the
        live ones, and the emitted trial list equals - in single-host
        execution order - exactly what the rounds executed.  Feeding the
        result to :func:`~repro.fleet.assemble.assemble_reports` against
        the cycle cache rebuilds the report with zero simulations,
        bit-identical to a local adaptive ``run_cycle``.
        """
        if not self.done:
            raise FleetError(
                "cycle still has open pairs; finish its rounds before "
                "assembling"
            )
        specs: List[TrialSpec] = []
        for net_index, network in enumerate(self.networks):
            scheduler = RoundRobinScheduler(
                list(self.service_ids),
                TrialPolicy(self.policies[net_index]),
                include_self_pairs=self.include_self_pairs,
                base_seed=self.base_seed,
            )
            recorded = self.trackers[net_index].states
            cursor = {pair: 0 for pair in scheduler.pairs}
            while scheduler.pending():
                batch = scheduler.next_batch(network, self.config)
                specs.extend(batch)
                for spec in batch:
                    pair = spec.pair_key
                    index = cursor[pair]
                    cursor[pair] += 1
                    series = recorded[pair].throughputs_bps
                    scheduler.record_result(
                        pair,
                        {sid: values[index] for sid, values in series.items()},
                    )
        return FleetPlan(
            "cycle",
            num_shards,
            _planned(specs, num_shards),
            params=self._plan_params(),
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_json(self) -> Dict:
        """Schema-versioned strict-JSON snapshot of the cycle state."""
        return {
            "schema": ADAPTIVE_STATE_SCHEMA_VERSION,
            "kind": "adaptive-cycle-state",
            "cycle_id": self.cycle_id,
            "service_ids": list(self.service_ids),
            "networks": [dataclasses.asdict(n) for n in self.networks],
            "config": dataclasses.asdict(self.config),
            "policies": [p.to_json() for p in self.policies],
            "base_seed": self.base_seed,
            "include_self_pairs": self.include_self_pairs,
            "round_index": self.round_index,
            "history": list(self.history),
            "trackers": [t.to_json() for t in self.trackers],
            **(
                {"earlystop": self.earlystop}
                if self.earlystop is not None
                else {}
            ),
        }

    @classmethod
    def from_json(cls, payload: Dict) -> "AdaptiveCycleState":
        """Rebuild cycle state, rejecting schema skew and id tampering."""
        schema = payload.get("schema")
        if schema != ADAPTIVE_STATE_SCHEMA_VERSION:
            raise FleetError(
                f"cycle state schema {schema!r} != supported "
                f"{ADAPTIVE_STATE_SCHEMA_VERSION}"
            )
        state = cls(
            service_ids=payload["service_ids"],
            networks=[
                _dataclass_from_json(NetworkConfig, entry)
                for entry in payload["networks"]
            ],
            config=_dataclass_from_json(ExperimentConfig, payload["config"]),
            policies=[
                TrialPolicyConfig.from_json(entry)
                for entry in payload["policies"]
            ],
            base_seed=payload["base_seed"],
            include_self_pairs=payload["include_self_pairs"],
            earlystop=payload.get("earlystop"),
        )
        state.trackers = [
            ConvergenceTracker.from_json(entry)
            for entry in payload["trackers"]
        ]
        state.round_index = payload["round_index"]
        state.history = list(payload.get("history", []))
        stated = payload.get("cycle_id")
        if stated is not None and stated != state.cycle_id:
            raise FleetError(
                f"cycle_id mismatch: file says {stated[:12]}..., "
                f"recomputed {state.cycle_id[:12]}... (edited state or "
                "library version skew)"
            )
        return state

    def save(self, out_dir: Union[str, Path]) -> Path:
        """Write ``cycle-state.json`` into the cycle's output directory."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        path = out / STATE_FILENAME
        atomic_write(path, json.dumps(self.to_json(), indent=1))
        return path

    @classmethod
    def load(cls, out_dir: Union[str, Path]) -> "AdaptiveCycleState":
        """Read ``cycle-state.json`` from a cycle's output directory.

        A file that is not this library's cycle state - cut short,
        corrupted, another JSON shape, missing fields, written by a
        newer schema - raises :class:`FleetError` naming the file and
        the defect, never a raw decode or lookup error.
        """
        path = Path(out_dir) / STATE_FILENAME
        if not path.exists():
            raise FleetError(
                f"no {STATE_FILENAME} in {out_dir} - not an adaptive "
                "cycle directory"
            )
        return load_json_artifact(path, cls.from_json, "cycle state")

    # ------------------------------------------------------------------
    # Progress rendering (fleet status)
    # ------------------------------------------------------------------

    def progress_json(self) -> Dict:
        """Machine-readable convergence progress (``fleet status --json``).

        The progress view of the cycle: identity and round counters plus
        per-network convergence counts and the per-round history - but
        not the trackers' full per-pair state, which belongs to
        ``cycle-state.json``, not a status probe.
        """
        networks = []
        for index, network in enumerate(self.networks):
            tracker = self.trackers[index]
            counts = tracker.counts()
            networks.append(
                {
                    "bandwidth_bps": network.bandwidth_bps,
                    "pairs": len(tracker.states),
                    "converged": counts["converged"],
                    "unstable": counts["unstable"],
                    "open": counts["open"],
                    "trials_done": tracker.trials_done_total(),
                    "trials_saved": tracker.trials_saved(),
                    "max_trials_per_pair": tracker.policy.config.max_trials,
                }
            )
        progress = {
            "kind": "adaptive-cycle-progress",
            "cycle_id": self.cycle_id,
            "done": self.done,
            "round_index": self.round_index,
            "pairs_open": self.open_pairs_total(),
            "trials_done": self.trials_done_total(),
            "trials_saved": self.trials_saved(),
            "networks": networks,
            "rounds": list(self.history),
        }
        if self.earlystop is not None:
            stats = [
                entry["fleet_stats"]
                for entry in self.history
                if "fleet_stats" in entry
            ]
            audited = sum(s.get("trials_audited", 0) for s in stats)
            mispredicts = sum(s.get("audit_mispredicts", 0) for s in stats)
            progress["earlystop"] = {
                "model_id": (self.earlystop.get("model") or {}).get(
                    "model_id"
                ),
                "trials_truncated": sum(
                    s.get("trials_truncated", 0) for s in stats
                ),
                "sim_sec_saved": round(
                    sum(s.get("sim_sec_saved", 0.0) for s in stats), 3
                ),
                "trials_audited": audited,
                "audit_mispredicts": mispredicts,
                "audit_mispredict_rate": (
                    round(mispredicts / audited, 4) if audited else None
                ),
            }
        return progress

    def render_progress(self) -> str:
        """Per-round convergence progress for ``fleet status``."""
        lines = [
            f"adaptive cycle {self.cycle_id[:12]}...: "
            f"{'converged' if self.done else 'in progress'} after "
            f"{self.round_index} round(s)"
        ]
        for index, network in enumerate(self.networks):
            tracker = self.trackers[index]
            counts = tracker.counts()
            mbps = network.bandwidth_bps / 1e6
            lines.append(
                f"  {mbps:g} Mbps: {counts['converged']} converged, "
                f"{counts['unstable']} unstable, {counts['open']} open "
                f"of {len(tracker.states)} pairs; "
                f"{tracker.trials_done_total()} trials run, "
                f"{tracker.trials_saved()} saved vs the "
                f"{tracker.policy.config.max_trials}-trial cap"
            )
        for entry in self.history:
            after = entry.get("pairs_open_after")
            lines.append(
                f"  round {entry['round']}: {entry['trials']} trials, "
                f"{after} pair(s) still open after folding"
            )
        return "\n".join(lines)


def run_adaptive_cycle(
    out_dir: Union[str, Path],
    service_ids: Sequence[str],
    networks: Sequence[NetworkConfig],
    config: ExperimentConfig,
    policies: Optional[Sequence[TrialPolicyConfig]] = None,
    num_shards: int = 2,
    base_seed: int = 0,
    include_self_pairs: bool = True,
    backend_kind: Optional[str] = None,
    workers: Optional[int] = None,
    catalog: Optional[ServiceCatalog] = None,
    dispatch: Optional[Dispatcher] = None,
    max_retries: int = 2,
    max_rounds: Optional[int] = None,
    stall_sec: float = DEFAULT_STALL_SEC,
    earlystop: Optional[Dict] = None,
) -> AdaptiveCycleState:
    """Drive one adaptive fleet cycle to convergence.

    Layout under ``out_dir``: ``cycle-state.json`` (cross-round state),
    ``cache/`` (cumulative merged cache), one ``round-NNN/`` directory
    per round holding the round plan, shard manifests (including
    attempt-bumped retries), and per-shard cache directories, and -
    once converged - ``assembly-plan.json`` for zero-simulation report
    assembly (``fleet report --plan out/assembly-plan.json --cache-dir
    out/cache``).

    Shards whose receipts never arrive are re-dispatched up to
    ``max_retries`` times with attempt-bumped manifests into fresh
    directories; a shard still missing afterwards fails the cycle.
    ``dispatch`` substitutes the transport (default: in-process
    :func:`run_shard`); it receives ``(manifest dict, cache dir)``.

    ``earlystop`` (config JSON: model artifact + audit fraction) arms
    every round's trials with the trial-level early-termination monitor
    - manifests carry the block, workers honour it, the merge resolves
    truncated-vs-full duplicates, and fold feeds truncated samples to
    the trackers as windowed-rate estimates.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    state = AdaptiveCycleState.create(
        service_ids,
        networks,
        config,
        policies=policies,
        base_seed=base_seed,
        include_self_pairs=include_self_pairs,
        earlystop=earlystop,
    )
    cache_dir = out / "cache"
    registry = get_registry()

    if dispatch is None:

        def dispatch(manifest: Dict, shard_cache: Path) -> None:
            run_shard(
                manifest,
                shard_cache,
                backend_kind=backend_kind,
                workers=workers,
            )

    while True:
        if max_rounds is not None and state.round_index >= max_rounds:
            raise FleetError(
                f"cycle did not converge within {max_rounds} rounds "
                f"({state.open_pairs_total()} pair(s) still open)"
            )
        plan = state.plan_round(num_shards)
        if plan is None:
            break
        round_dir = out / f"round-{state.round_index:03d}"
        round_dir.mkdir(parents=True, exist_ok=True)
        write_manifest(round_dir / "plan.json", plan.to_json())
        with tracing.span(
            "cycle.round",
            cycle=state.cycle_id[:12],
            round=state.round_index,
            trials=len(plan.trials),
            pairs_open=state.open_pairs_total(),
        ):
            shard_dirs: List[Path] = []
            for shard in range(num_shards):
                manifest = plan.manifest_for(shard)
                write_manifest(round_dir / f"shard-{shard}.json", manifest)
                shard_cache = round_dir / f"shard-{shard}"
                shard_cache.mkdir(exist_ok=True)
                shard_dirs.append(shard_cache)
                dispatch(manifest, shard_cache)
            # Receipt recovery: re-dispatch attempt-bumped manifests for
            # every shard whose receipt has not landed.
            for attempt in range(1, max_retries + 1):
                status = fleet_status(plan, shard_dirs, stall_sec=stall_sec)
                lagging = [
                    row.shard_index
                    for row in status.shards
                    if row.state != "done"
                ]
                if not lagging:
                    break
                _log.warning(
                    "fleet.retry",
                    round=state.round_index,
                    attempt=attempt,
                    shards=lagging,
                )
                for shard in lagging:
                    manifest = plan.manifest_for(shard, attempt=attempt)
                    name = f"shard-{shard}-attempt{attempt}"
                    write_manifest(round_dir / f"{name}.json", manifest)
                    shard_cache = round_dir / name
                    shard_cache.mkdir(exist_ok=True)
                    shard_dirs.append(shard_cache)
                    dispatch(manifest, shard_cache)
            status = fleet_status(plan, shard_dirs, stall_sec=stall_sec)
            if not status.complete:
                missing = [
                    row.shard_index
                    for row in status.shards
                    if row.state != "done"
                ]
                raise FleetError(
                    f"round {state.round_index}: shard(s) {missing} "
                    f"still have no receipt after {max_retries} "
                    "retries - aborting the cycle"
                )
            # Merge only each shard's winning directory; losing attempts
            # (receipt-less partial runs) contribute nothing the winner
            # does not already have.
            merge_report = merge_shards(
                plan,
                [row.directory for row in status.shards if row.directory],
                cache_dir,
            )
            state.fold_round(
                plan,
                TrialCache(cache_dir),
                catalog=catalog,
                merge_report=merge_report,
            )
        registry.gauge("planner.pairs_open").set(state.open_pairs_total())
        state.save(out)
        _log.info(
            "fleet.round_done",
            round=state.round_index - 1,
            trials=len(plan.trials),
            pairs_open=state.open_pairs_total(),
        )
    registry.counter("planner.trials_saved").inc(state.trials_saved())
    state.save(out)
    assembly = state.assembly_plan(num_shards)
    write_manifest(out / ASSEMBLY_PLAN_FILENAME, assembly.to_json())
    return state
