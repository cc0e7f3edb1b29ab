"""Adaptive multi-round fleet cycles: plan -> run -> merge -> re-plan.

The fixed-count fleet pipeline (:func:`~repro.fleet.plan.plan_cycle`)
enumerates every trial up front, so the Section 3.4 stopping rule never
saves a simulation at fleet scale.  This module closes that gap by
running the library's one cycle loop
(:class:`~repro.core.convergence.CycleState`: ``while specs :=
state.next_specs(): state.record(specs, execute(specs))``) with an
``execute`` that spans hosts.  :class:`AdaptiveCycleState` is that state
plus what a cycle spread over hosts needs - an identity, a history, a
JSON form - and :func:`run_adaptive_cycle` executes each round as:

1. **plan**   - :meth:`AdaptiveCycleState.plan_round` wraps the round's
   specs in a round-scoped :class:`~repro.fleet.plan.FleetPlan` (round
   index + parent cycle id in the schema);
2. **run**    - shard manifests dispatch through the ordinary
   :func:`~repro.fleet.worker.run_shard` worker (or any dispatcher);
   shards whose receipts never arrive are re-dispatched with
   attempt-bumped manifests (:func:`~repro.fleet.status.fleet_status`
   decides who is missing, the merge's supersede rule resolves the
   duplicate receipts);
3. **merge**  - receipts fold into one cumulative cycle cache;
4. **fold**   - :meth:`AdaptiveCycleState.fold_round` re-reads the
   round's trials from the cache (:func:`~repro.core.runner.replay` -
   folding never simulates) and records them, which retires
   converged/unstable pairs and queues the next batches.

Rounds repeat until every pair is converged or at the max-trial cap.
Because per-trial seeds are pure functions of (base seed, pair, trial
index), every round's trials carry the same content-addressed cache keys
a fixed-count plan would have used - re-planning on a warm cache is free,
and a fully-converged adaptive cycle assembles into a report
bit-identical to the fixed-policy path for the pairs it measured.

:meth:`AdaptiveCycleState.assembly_plan` needs no replay of the stopping
rule: how many trials each pair ran *is* the rule's recorded decision,
and batch sizes are a function of the trials before them, so the full
executed trial list - in single-host execution order - is cut from
``trials_done`` alone
(:meth:`~repro.core.convergence.ConvergenceTracker.executed_specs`) and
handed to the standard zero-simulation assembler.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from ..atomicio import atomic_write
from ..config import ExperimentConfig, NetworkConfig, TrialPolicyConfig
from ..core.cache import CACHE_SCHEMA_VERSION, TrialCache
from ..core.convergence import ConvergenceTracker, CycleState
from ..core.runner import RunnerStats, replay
from ..obs import tracing
from ..obs.log import get_logger
from ..obs.metrics import get_registry
from .merge import MergeReport, merge_shards
from .plan import (
    FleetError,
    FleetPlan,
    _canonical,
    _dataclass_from_json,
    _planned,
    load_json_artifact,
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


class AdaptiveCycleState(CycleState):
    """Cross-round state of one adaptive fleet cycle.

    The :class:`~repro.core.convergence.CycleState` every driver
    advances, plus what a cycle spread over hosts needs: a content
    identity (``cycle_id``) binding every round's plan, one ``history``
    entry per folded round, and a strict-JSON form
    (:meth:`save`/:meth:`load`), so a cycle can be resumed - or its next
    round planned - on any host.
    """

    def __init__(
        self,
        service_ids: Sequence[str],
        networks: Sequence[NetworkConfig],
        config: ExperimentConfig,
        policies: Optional[Sequence[TrialPolicyConfig]] = None,
        base_seed: int = 0,
        include_self_pairs: bool = True,
        earlystop: Optional[Dict] = None,
    ) -> None:
        super().__init__(
            service_ids,
            networks,
            config,
            policies,
            base_seed=base_seed,
            include_self_pairs=include_self_pairs,
        )
        #: Optional earlystop config JSON (model artifact + audit
        #: fraction); rides into every round's manifests and binds the
        #: cycle identity (truncated samples change the recorded series).
        self.earlystop = earlystop
        self.history: List[Dict] = []

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
        # Truncated samples change the recorded series, so an armed
        # cycle is a different cycle; the block is omitted when disabled
        # so pre-earlystop cycle ids are unchanged.
        payload = {
            "kind": "adaptive-cycle",
            "cache_schema": CACHE_SCHEMA_VERSION,
            **self._inputs_json(),
            **self._earlystop_json(),
        }
        return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Round planning
    # ------------------------------------------------------------------

    def plan_round(self, num_shards: int) -> Optional[FleetPlan]:
        """The next round (:meth:`next_specs`) as a round-scoped fleet
        plan, or ``None`` when the cycle is done.

        Every planned trial's cache key equals the one the fixed-count
        path computes for the same trial index, so re-planning on a warm
        cache is free.
        """
        specs = self.next_specs()
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

    def _inputs_json(self) -> Dict:
        """The cycle's inputs, as its id and its state file state them."""
        return {
            "service_ids": list(self.service_ids),
            "networks": [dataclasses.asdict(n) for n in self.networks],
            "config": dataclasses.asdict(self.config),
            "policies": [p.to_json() for p in self.policies],
            "base_seed": self.base_seed,
            "include_self_pairs": self.include_self_pairs,
        }

    def _earlystop_json(self) -> Dict:
        if self.earlystop is None:
            return {}
        return {"earlystop": self.earlystop}

    def _plan_params(self) -> Dict:
        params = {
            **self._inputs_json(),
            "adaptive": True,
            **self._earlystop_json(),
        }
        del params["policies"]  # a plan's trials already embody them
        return params

    # ------------------------------------------------------------------
    # Folding results back in
    # ------------------------------------------------------------------

    def fold_round(
        self,
        plan: FleetPlan,
        cache: TrialCache,
        merge_report: Optional[MergeReport] = None,
    ) -> Dict:
        """Fold one merged round into the trackers; advance the round.

        Re-reads the round plan's trials from the cumulative cache
        (:func:`~repro.core.runner.replay`: folding never simulates; a
        missing entry raises :class:`~repro.core.runner.CacheMissError`,
        and truncated entries are admissible exactly when the cycle is
        armed) and records them (:meth:`record`).  Returns the round's
        history entry.
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
        specs = [t.spec for t in plan.trials]
        records, _stats = replay(
            cache, specs, allow_truncated=self.earlystop is not None
        )
        self.record(specs, [r.result for r in records])
        entry = {
            "round": plan.round_index,
            "trials": len(specs),
            "plan_id": plan.plan_id,
            "verdicts": [t.counts() for t in self.trackers],
            "pairs_open_after": self.open_pairs_total(),
        }
        if merge_report is not None:
            entry["fleet_stats"] = merge_report.stats.to_json()
        self.history.append(entry)
        return entry

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------

    def assembly_plan(self, num_shards: int = 1) -> FleetPlan:
        """The converged cycle's full trial list as an ordinary plan.

        :meth:`executed_specs` cuts it from the recorded trial counts -
        no stopping decision is re-derived, no summary asked for - in
        single-host (network-major) execution order.  Feeding the result
        to :func:`~repro.fleet.assemble.assemble_reports` against the
        cycle cache rebuilds the report with zero simulations,
        bit-identical to a local adaptive ``run_cycle``.
        """
        if not self.done:
            raise FleetError(
                "cycle still has open pairs; finish its rounds before "
                "assembling"
            )
        return FleetPlan(
            "cycle",
            num_shards,
            _planned(self.executed_specs(), num_shards),
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
            **self._inputs_json(),
            "round_index": self.round_index,
            "history": list(self.history),
            "trackers": [t.to_json() for t in self.trackers],
            **self._earlystop_json(),
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
        for network, tracker in zip(self.networks, self.trackers):
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
            progress["earlystop"] = {
                "model_id": (self.earlystop.get("model") or {}).get(
                    "model_id"
                ),
                **RunnerStats.total(
                    RunnerStats.from_json(entry["fleet_stats"])
                    for entry in self.history
                    if "fleet_stats" in entry
                ).earlystop_rollup(),
            }
        return progress

    def render_progress(self) -> str:
        """Per-round convergence progress for ``fleet status``."""
        lines = [
            f"adaptive cycle {self.cycle_id[:12]}...: "
            f"{'converged' if self.done else 'in progress'} after "
            f"{self.round_index} round(s)"
        ]
        for row in self.progress_json()["networks"]:
            lines.append(
                f"  {row['bandwidth_bps'] / 1e6:g} Mbps: "
                f"{row['converged']} converged, "
                f"{row['unstable']} unstable, {row['open']} open "
                f"of {row['pairs']} pairs; "
                f"{row['trials_done']} trials run, "
                f"{row['trials_saved']} saved vs the "
                f"{row['max_trials_per_pair']}-trial cap"
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
    if max_retries < 0:
        raise ValueError(f"max_retries is a count >= 0, not {max_retries}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    state = AdaptiveCycleState(
        service_ids,
        networks,
        config,
        policies,
        base_seed=base_seed,
        include_self_pairs=include_self_pairs,
        earlystop=earlystop,
    )
    cache_dir = out / "cache"
    registry = get_registry()

    if dispatch is None:
        dispatch = functools.partial(
            run_shard, backend_kind=backend_kind, workers=workers
        )

    while (plan := state.plan_round(num_shards)) is not None:
        if max_rounds is not None and state.round_index >= max_rounds:
            raise FleetError(
                f"cycle did not converge within {max_rounds} rounds "
                f"({state.open_pairs_total()} pair(s) still open)"
            )
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
            # Attempt 0 dispatches every shard; each later attempt
            # re-dispatches, with attempt-bumped manifests into fresh
            # directories, the shards whose receipt has not landed.
            shard_dirs: List[Path] = []
            lagging = list(range(num_shards))
            for attempt in range(max_retries + 1):
                if attempt:
                    _log.warning(
                        "fleet.retry",
                        round=state.round_index,
                        attempt=attempt,
                        shards=lagging,
                    )
                for shard in lagging:
                    name = f"shard-{shard}" + (
                        f"-attempt{attempt}" if attempt else ""
                    )
                    manifest = plan.manifest_for(shard, attempt)
                    write_manifest(round_dir / f"{name}.json", manifest)
                    shard_cache = round_dir / name
                    shard_cache.mkdir(exist_ok=True)
                    shard_dirs.append(shard_cache)
                    dispatch(manifest, shard_cache)
                status = fleet_status(plan, shard_dirs, stall_sec=stall_sec)
                lagging = [
                    row.shard_index
                    for row in status.shards
                    if row.state != "done"
                ]
                if not lagging:
                    break
            if lagging:
                raise FleetError(
                    f"round {state.round_index}: shard(s) {lagging} "
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
                plan, TrialCache(cache_dir), merge_report=merge_report
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
