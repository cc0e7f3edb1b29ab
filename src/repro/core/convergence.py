"""The shared convergence authority, the one trial enumeration and the
one cycle loop behind every execution path.

One question drives the whole stack - *has this pair's measurement
converged, and if not, how many more trials does it get?* - and exactly
one object answers it: the :class:`ConvergenceTracker`.  It also owns
the only enumeration of a cycle's trials: ``window_specs`` is where the
Section 3.4 round-robin order (trial *k* of every pair before trial
*k+1* of any) and :meth:`ConvergenceTracker.seed_for` meet
:meth:`TrialSpec.pair`; ``queued_specs`` (what to run next) and
``executed_specs`` (what the rounds ran) are views of it.

:class:`CycleState` holds one tracker per network setting and is the
state every driver advances::

    while specs := state.next_specs():
        state.record(specs, execute(specs))

``Prudentia.run_cycle`` executes through its backend, the adaptive fleet
driver through plan -> dispatch -> merge -> cache-only replay, and the
fixed planner enumerates the single round of a
:meth:`TrialPolicyConfig.fixed` policy without executing at all - so
the stopping rule, the trial order and the seeds are the same whether a
cycle runs in one process or across a fleet of hosts.

The tracker is round-aware and serialisable: it owns per-pair state
(trials so far, the per-service throughput series, the latest
:class:`~repro.core.policy.PolicyDecision`, and the derived
open/converged/unstable verdict) and round-trips through strict JSON, so
an adaptive fleet cycle can persist its convergence state between rounds
and resume on any host.  Verdicts are pure functions of the recorded data:
the bootstrap CI seeds derive from the sample values and the pair key
(:func:`~repro.core.stats.derive_bootstrap_seed`), never from wall-clock
or call order.

Trial seeds are equally deterministic - :meth:`ConvergenceTracker.seed_for`
is a pure function of (base seed, pair, trial index) - which is what makes
adaptive re-planning free on a warm cache: round *k* plans exactly the
trial indices a fixed-policy plan would have enumerated, so every
re-planned trial shares its content-addressed cache key with the one-shot
path.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..config import (
    ExperimentConfig,
    NetworkConfig,
    TrialPolicyConfig,
    trial_policy_for,
)
from .experiment import ExperimentResult
from .policy import (
    VERDICT_CONVERGED,
    VERDICT_OPEN,
    VERDICT_UNSTABLE,
    PolicyDecision,
    TrialPolicy,
)
from .runner import TrialSpec

PairKey = Tuple[str, str]

#: pair -> (start trial index, count): one contiguous run of a pair's
#: trials, the unit :meth:`ConvergenceTracker.window_specs` enumerates.
Windows = Dict[PairKey, Tuple[int, int]]

#: Bump when the tracker's JSON layout changes incompatibly.
CONVERGENCE_SCHEMA_VERSION = 1


@dataclass
class PairState:
    """Convergence and scheduling state for one (contender, incumbent)
    pair, accumulated across rounds."""

    pair: PairKey
    trials_done: int = 0
    trials_queued: int = 0
    done: bool = False
    decision: Optional[PolicyDecision] = None
    throughputs_bps: Dict[str, List[float]] = field(default_factory=dict)
    #: Trials in the series that early termination cut short
    #: (repro.core.earlystop).  Their throughputs are windowed-rate
    #: estimates over the truncated horizon.
    trials_truncated: int = 0

    def record_trial(
        self, throughputs_bps: Dict[str, float], truncated: bool = False
    ) -> None:
        """Append one trial's per-service throughputs to the state.

        ``truncated`` marks an early-terminated trial.  Its throughputs
        are *windowed-rate estimates*: delivered bytes over the truncated
        measurement horizon, the same delivered/elapsed estimator as a
        full window, just over fewer seconds - so they enter the series
        unscaled and the CI machinery treats them like any other sample
        (the audit fraction bounds the estimator's bias).
        """
        self.trials_done += 1
        self.trials_queued -= 1
        if truncated:
            self.trials_truncated += 1
        for service_id, value in throughputs_bps.items():
            self.throughputs_bps.setdefault(service_id, []).append(value)

    @property
    def verdict(self) -> str:
        """This pair's round verdict: open / converged / unstable."""
        if self.decision is None:
            return VERDICT_OPEN
        if self.decision.converged:
            return VERDICT_CONVERGED
        if self.done:
            return VERDICT_UNSTABLE
        return VERDICT_OPEN

    def to_json(self) -> Dict:
        """Strict-JSON snapshot of this pair's cumulative state."""
        payload = {
            "pair": list(self.pair),
            "trials_done": self.trials_done,
            "trials_queued": self.trials_queued,
            "done": self.done,
            "verdict": self.verdict,
            "decision": (
                self.decision.to_json() if self.decision is not None else None
            ),
            "throughputs_bps": {
                sid: list(series)
                for sid, series in self.throughputs_bps.items()
            },
        }
        if self.trials_truncated:
            payload["trials_truncated"] = self.trials_truncated
        return payload

    @classmethod
    def from_json(cls, payload: Dict) -> "PairState":
        """Rebuild a pair's state from its JSON snapshot."""
        decision = payload.get("decision")
        return cls(
            pair=tuple(payload["pair"]),
            trials_done=payload["trials_done"],
            trials_queued=payload["trials_queued"],
            done=payload["done"],
            decision=(
                PolicyDecision.from_json(decision)
                if decision is not None
                else None
            ),
            throughputs_bps={
                sid: list(series)
                for sid, series in payload.get("throughputs_bps", {}).items()
            },
            trials_truncated=payload.get("trials_truncated", 0),
        )


class ConvergenceTracker:
    """Round-aware Section 3.4 convergence state for a set of pairs.

    Wraps a :class:`TrialPolicy` around per-pair trial series: feed every
    executed trial through :meth:`record_trial`, and the tracker applies
    the stopping rule each time a pair's queued batch drains - queueing
    the next batch for still-open pairs, marking converged pairs done,
    and flagging pairs that hit the cap without converging as unstable
    (Observation 15).  :meth:`next_batches` exposes the currently queued
    work as explicit ``(start trial index, count)`` windows and
    :meth:`queued_specs` as the executable trials every driver runs.
    """

    def __init__(
        self,
        pairs: Sequence[PairKey],
        policy: TrialPolicy,
        base_seed: int = 0,
    ) -> None:
        if not pairs:
            raise ValueError("need at least one pair")
        self.policy = policy
        self.base_seed = base_seed
        self.states: Dict[PairKey, PairState] = {
            tuple(pair): PairState(pair=tuple(pair)) for pair in pairs
        }
        if len(self.states) != len(pairs):
            raise ValueError("duplicate pairs")
        for state in self.states.values():
            state.trials_queued = policy.next_batch_size(0)

    @classmethod
    def for_services(
        cls,
        service_ids: Sequence[str],
        policy: TrialPolicy,
        include_self_pairs: bool = True,
        base_seed: int = 0,
    ) -> "ConvergenceTracker":
        """All-pairs tracker over a service set (the watchdog's shape)."""
        pairs: List[PairKey] = list(
            itertools.combinations(sorted(service_ids), 2)
        )
        if include_self_pairs:
            pairs.extend((sid, sid) for sid in sorted(service_ids))
        return cls(pairs, policy, base_seed=base_seed)

    # ------------------------------------------------------------------
    # Deterministic per-trial seeds
    # ------------------------------------------------------------------

    def seed_for(self, pair: PairKey, trial_index: int) -> int:
        """The seed of one pair's ``trial_index``-th trial.

        A pure function of (base seed, pair, index): round *k* of an
        adaptive cycle therefore plans exactly the seeds - and so exactly
        the content-addressed cache keys - that a fixed-count plan over
        the same indices would, making re-planning free on a warm cache.
        """
        digest = zlib.crc32("|".join(pair).encode("utf-8")) & 0xFFFF
        return self.base_seed * 7_919 + digest * 101 + trial_index

    # ------------------------------------------------------------------
    # Recording and evaluation
    # ------------------------------------------------------------------

    def record_trial(
        self,
        pair: PairKey,
        throughputs_bps: Dict[str, float],
        truncated: bool = False,
    ) -> Optional[PolicyDecision]:
        """Feed one executed trial's outcome into the tracker.

        When the pair's queued batch drains, the policy evaluates the
        cumulative series and either queues the next batch (still open)
        or retires the pair (converged, or unstable at the cap).  Returns
        the fresh decision at batch boundaries, else ``None``.
        ``truncated`` samples are accepted as windowed-rate estimates
        (see :meth:`PairState.record_trial`).
        """
        state = self.states[tuple(pair)]
        state.record_trial(throughputs_bps, truncated=truncated)
        if state.trials_queued > 0:
            return None  # batch still draining
        decision = self.evaluate_pair(pair)
        state.decision = decision
        if decision.needs_more:
            state.trials_queued = self.policy.next_batch_size(
                state.trials_done
            )
            if state.trials_queued == 0:
                state.done = True
        else:
            state.done = True
        return decision

    def evaluate_pair(self, pair: PairKey) -> PolicyDecision:
        """Apply the stopping rule to one pair's trials-so-far.

        Each per-service series is keyed by pair + service id, so its
        bootstrap seed - and therefore the verdict - is host- and
        order-independent (see :func:`~repro.core.stats.derive_bootstrap_seed`).
        """
        state = self.states[tuple(pair)]
        keys = [
            f"{pair[0]}|{pair[1]}|{sid}" for sid in state.throughputs_bps
        ]
        return self.policy.evaluate(
            list(state.throughputs_bps.values()), keys=keys
        )

    # ------------------------------------------------------------------
    # Round planning
    # ------------------------------------------------------------------

    def pending(self) -> bool:
        """True while any pair still has queued trials."""
        return any(s.trials_queued > 0 for s in self.states.values())

    def next_batches(self) -> Windows:
        """The next round's work: pair -> (start trial index, count).

        Only still-open pairs appear; the window's trial indices feed
        :meth:`seed_for`, so a round plan built from these windows is
        deterministic and cache-aligned with the fixed-count path.
        """
        return {
            pair: (state.trials_done, state.trials_queued)
            for pair, state in self.states.items()
            if state.trials_queued > 0
        }

    def window_specs(
        self,
        network: NetworkConfig,
        config: ExperimentConfig,
        windows: Windows,
    ) -> List[TrialSpec]:
        """The trials of ``windows`` as executable specs, round-robin.

        Section 3.4's order - the windows' first trials pair by pair,
        then their second trials, ... - with each trial seeded by
        :meth:`seed_for` from its absolute index.  This is the only
        enumerator of a cycle's trials: every cycle plan, round and
        replay is some set of windows passed through it, which is why
        they agree spec for spec (and so cache key for cache key).
        """
        specs: List[TrialSpec] = []
        depth = max((count for _start, count in windows.values()), default=0)
        for offset in range(depth):
            for pair, (start, count) in windows.items():
                if offset < count:
                    specs.append(
                        TrialSpec.pair(
                            pair[0],
                            pair[1],
                            network,
                            config,
                            seed=self.seed_for(pair, start + offset),
                        )
                    )
        return specs

    def queued_specs(
        self, network: NetworkConfig, config: ExperimentConfig
    ) -> List[TrialSpec]:
        """The currently queued trials (:meth:`next_batches`), in
        execution order; feed each outcome back through
        :meth:`record_trial` and ask again until nothing is queued."""
        return self.window_specs(network, config, self.next_batches())

    def executed_specs(
        self, network: NetworkConfig, config: ExperimentConfig
    ) -> List[TrialSpec]:
        """Every recorded trial, in the order the rounds ran them.

        A pair is queued in every round from round 0 until it retires,
        and the size of each batch is a function of the trials before it
        (:meth:`TrialPolicy.next_batch_size`), so a pair's *k*-th batch
        window - cut from ``trials_done`` alone - is what round *k* ran
        for it.  No verdict is re-derived: the recorded trial counts
        already are the stopping rule's decisions.
        """
        specs: List[TrialSpec] = []
        cursor = dict.fromkeys(self.states, 0)
        while True:
            windows: Windows = {}
            for pair, state in self.states.items():
                start = cursor[pair]
                count = min(
                    self.policy.next_batch_size(start),
                    state.trials_done - start,
                )
                if count > 0:
                    windows[pair] = (start, count)
                    cursor[pair] = start + count
            if not windows:
                return specs
            specs.extend(self.window_specs(network, config, windows))

    # ------------------------------------------------------------------
    # Verdicts and accounting
    # ------------------------------------------------------------------

    def pairs(self) -> List[PairKey]:
        """Every tracked pair, in scheduling order."""
        return list(self.states)

    def verdicts(self) -> Dict[PairKey, str]:
        """Every pair's current open/converged/unstable verdict."""
        return {pair: s.verdict for pair, s in self.states.items()}

    def open_pairs(self) -> List[PairKey]:
        """Pairs the policy has not retired yet."""
        return [p for p, s in self.states.items() if not s.done]

    def unstable_pairs(self) -> List[PairKey]:
        """Pairs that hit the trial cap without converging (Fig 10)."""
        return [
            p for p, s in self.states.items() if s.verdict == VERDICT_UNSTABLE
        ]

    def counts(self) -> Dict[str, int]:
        """How many pairs hold each verdict (all verdicts present)."""
        out = {v: 0 for v in (VERDICT_OPEN, VERDICT_CONVERGED,
                              VERDICT_UNSTABLE)}
        for state in self.states.values():
            out[state.verdict] += 1
        return out

    def trials_done_total(self) -> int:
        """Trials executed so far across every pair."""
        return sum(s.trials_done for s in self.states.values())

    def trials_cap_total(self) -> int:
        """What a fixed max-trial plan would run for the same pairs."""
        return self.policy.config.max_trials * len(self.states)

    def trials_saved(self) -> int:
        """Trials the stopping rule skipped versus the max-trial plan.

        Counts only retired pairs, so mid-cycle reads never overstate
        the saving (an open pair may still consume its full cap).
        """
        cap = self.policy.config.max_trials
        return sum(
            cap - s.trials_done for s in self.states.values() if s.done
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_json(self) -> Dict:
        """Schema-versioned strict-JSON snapshot of the whole tracker."""
        return {
            "schema": CONVERGENCE_SCHEMA_VERSION,
            "kind": "convergence-tracker",
            "base_seed": self.base_seed,
            "policy": self.policy.config.to_json(),
            "pairs": [state.to_json() for state in self.states.values()],
        }

    @classmethod
    def from_json(cls, payload: Dict) -> "ConvergenceTracker":
        """Rebuild a tracker snapshot, rejecting schema skew."""
        schema = payload.get("schema")
        if schema != CONVERGENCE_SCHEMA_VERSION:
            raise ValueError(
                f"convergence tracker schema {schema!r} != supported "
                f"{CONVERGENCE_SCHEMA_VERSION}"
            )
        states = [PairState.from_json(entry) for entry in payload["pairs"]]
        tracker = cls.__new__(cls)
        tracker.policy = TrialPolicy(
            TrialPolicyConfig.from_json(payload["policy"])
        )
        tracker.base_seed = payload["base_seed"]
        tracker.states = {state.pair: state for state in states}
        return tracker


class CycleState:
    """One all-pairs cycle: the state every driver's loop advances
    (module docstring).

    Holds the cycle's inputs (services, network settings, protocol, one
    trial policy per network, base seed) and one
    :class:`ConvergenceTracker` per network.  ``policies`` default to
    the paper's per-setting CI thresholds
    (:func:`~repro.config.trial_policy_for`).
    """

    def __init__(
        self,
        service_ids: Sequence[str],
        networks: Sequence[NetworkConfig],
        config: ExperimentConfig,
        policies: Optional[Sequence[TrialPolicyConfig]] = None,
        base_seed: int = 0,
        include_self_pairs: bool = True,
    ) -> None:
        if policies is None:
            policies = [trial_policy_for(network) for network in networks]
        if len(policies) != len(networks):
            raise ValueError("need one trial policy per network")
        if len(set(networks)) != len(networks):
            # record() finds a trial's tracker by its network.
            raise ValueError("network settings must be distinct")
        self.service_ids = sorted(service_ids)
        self.networks = list(networks)
        self.config = config
        self.policies = list(policies)
        self.base_seed = base_seed
        self.include_self_pairs = include_self_pairs
        self.trackers: List[ConvergenceTracker] = [
            ConvergenceTracker.for_services(
                self.service_ids,
                TrialPolicy(policy),
                include_self_pairs=include_self_pairs,
                base_seed=base_seed,
            )
            for policy in self.policies
        ]
        #: Rounds recorded so far.
        self.round_index = 0

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------

    def next_specs(self) -> List[TrialSpec]:
        """The next round: every network's queued trials, network-major.
        Empty once the cycle is done."""
        return [
            spec
            for network, tracker in zip(self.networks, self.trackers)
            for spec in tracker.queued_specs(network, self.config)
        ]

    def record(
        self,
        specs: Sequence[TrialSpec],
        results: Sequence[ExperimentResult],
    ) -> None:
        """Fold one executed round into the trackers, which retire
        converged/unstable pairs and queue the next batches."""
        tracker_for = dict(zip(self.networks, self.trackers))
        for spec, result in zip(specs, results):
            tracker_for[spec.network].record_trial(
                spec.pair_key,
                result.throughput_bps,
                truncated=result.truncated,
            )
        self.round_index += 1

    def executed_specs(self) -> List[TrialSpec]:
        """Every recorded trial, network-major and in round order within
        a network (:meth:`ConvergenceTracker.executed_specs`)."""
        return [
            spec
            for network, tracker in zip(self.networks, self.trackers)
            for spec in tracker.executed_specs(network, self.config)
        ]

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
