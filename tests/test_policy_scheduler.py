"""Trial policy (Section 3.4 stopping rule) and round-robin scheduling."""

import pytest

from repro import units
from repro.config import ExperimentConfig, TrialPolicyConfig, highly_constrained
from repro.core.convergence import ConvergenceTracker
from repro.core.policy import TrialPolicy

NET = highly_constrained()
FAST = ExperimentConfig().scaled(10)


def make_policy(min_trials=3, max_trials=9, batch=3, ci_mbps=0.5):
    return TrialPolicy(
        TrialPolicyConfig(
            min_trials=min_trials,
            max_trials=max_trials,
            batch_size=batch,
            ci_halfwidth_bps=units.mbps(ci_mbps),
        )
    )


class TestTrialPolicy:
    def test_below_minimum_needs_more(self):
        policy = make_policy()
        decision = policy.evaluate([[1e6], [2e6]])
        assert decision.needs_more
        assert not decision.converged

    def test_stable_series_converges(self):
        policy = make_policy()
        stable = [[10e6, 10.01e6, 9.99e6], [5e6, 5.01e6, 4.99e6]]
        decision = policy.evaluate(stable)
        assert decision.converged
        assert not decision.needs_more

    def test_noisy_series_needs_more(self):
        policy = make_policy()
        noisy = [[1e6, 20e6, 5e6], [1e6, 1e6, 1e6]]
        decision = policy.evaluate(noisy)
        assert not decision.converged
        assert decision.needs_more

    def test_unstable_at_cap(self):
        policy = make_policy(min_trials=3, max_trials=3)
        noisy = [[1e6, 30e6, 5e6]]
        decision = policy.evaluate(noisy)
        assert decision.exhausted
        assert decision.unstable

    def test_mismatched_counts_rejected(self):
        policy = make_policy()
        with pytest.raises(ValueError):
            policy.evaluate([[1e6, 2e6], [1e6]])

    def test_batch_sizes(self):
        policy = make_policy(min_trials=10, max_trials=30, batch=10)
        assert policy.next_batch_size(0) == 10
        assert policy.next_batch_size(10) == 10
        assert policy.next_batch_size(25) == 5
        assert policy.next_batch_size(30) == 0


def run_queued(tracker, throughputs):
    """The cycle loop over one tracker with a fake ``execute``: every
    queued spec, in execution order, answered by ``throughputs(spec)``."""
    executed = []
    while specs := tracker.queued_specs(NET, FAST):
        for spec in specs:
            executed.append(spec)
            tracker.record_trial(spec.pair_key, throughputs(spec))
    return executed


class TestScheduler:
    def test_pair_enumeration(self):
        tracker = ConvergenceTracker.for_services(
            ["a", "b", "c"], make_policy()
        )
        pairs = set(tracker.pairs())
        assert ("a", "b") in pairs
        assert ("a", "c") in pairs
        assert ("b", "c") in pairs
        assert ("a", "a") in pairs  # self-pairs included by default
        assert len(pairs) == 6

    def test_no_self_pairs(self):
        tracker = ConvergenceTracker.for_services(
            ["a", "b"], make_policy(), include_self_pairs=False
        )
        assert tracker.pairs() == [("a", "b")]

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ConvergenceTracker.for_services([], make_policy())

    def test_round_robin_interleaving(self):
        """Trial k of every pair runs before trial k+1 of any pair."""
        policy = make_policy(min_trials=3, max_trials=3, batch=3)
        tracker = ConvergenceTracker.for_services(
            ["a", "b", "c"], policy, include_self_pairs=False
        )
        order = [
            spec.pair_key
            for spec in run_queued(
                tracker, lambda spec: dict.fromkeys(spec.pair_key, 10e6)
            )
        ]
        # 3 pairs x 3 trials, interleaved.
        assert len(order) == 9
        assert order[:3] == [("a", "b"), ("a", "c"), ("b", "c")]
        assert order[3:6] == order[:3]

    def test_stable_pair_stops_at_min_trials(self):
        policy = make_policy(min_trials=3, max_trials=9, batch=3)
        tracker = ConvergenceTracker.for_services(
            ["a", "b"], policy, include_self_pairs=False
        )
        executed = run_queued(tracker, lambda spec: {"a": 10e6, "b": 10e6})
        assert len(executed) == 3
        assert tracker.states[("a", "b")].done
        assert tracker.unstable_pairs() == []

    def test_noisy_pair_requeued_to_cap(self):
        policy = make_policy(min_trials=3, max_trials=9, batch=3)
        tracker = ConvergenceTracker.for_services(
            ["a", "b"], policy, include_self_pairs=False
        )
        import random

        rng = random.Random(0)
        executed = run_queued(
            tracker, lambda spec: {"a": rng.uniform(1e6, 50e6), "b": 10e6}
        )
        assert len(executed) == 9
        assert [spec.seed for spec in executed] == [
            tracker.seed_for(("a", "b"), index) for index in range(9)
        ]
        assert tracker.unstable_pairs() == [("a", "b")]

    def test_seeds_distinct_per_trial(self):
        policy = make_policy(min_trials=3, max_trials=3, batch=3)
        tracker = ConvergenceTracker.for_services(
            ["a", "b"], policy, include_self_pairs=False
        )
        executed = run_queued(tracker, lambda spec: {"a": 1e6, "b": 1e6})
        assert len({spec.seed for spec in executed}) == 3


class TestPolicyBandEdge:
    def test_halfwidth_exactly_at_threshold_converges(self):
        """Section 3.4 says *within* the band: a CI half-width exactly
        at the threshold counts as converged (<=, not <)."""
        import math

        from repro.core.policy import PolicyDecision

        probe = make_policy(min_trials=3, max_trials=9)
        noisy = [[1e6, 20e6, 5e6]]
        worst = probe.evaluate(noisy).worst_ci_halfwidth_bps
        assert 0 < worst < float("inf")

        def with_threshold(threshold):
            return TrialPolicy(
                TrialPolicyConfig(
                    min_trials=3,
                    max_trials=9,
                    batch_size=3,
                    ci_halfwidth_bps=threshold,
                )
            )

        at_edge = with_threshold(worst).evaluate(noisy)
        assert at_edge.converged
        assert isinstance(at_edge, PolicyDecision)
        just_below = with_threshold(math.nextafter(worst, 0.0))
        assert not just_below.evaluate(noisy).converged

    def test_decision_json_round_trips_inf_halfwidth(self):
        """The inf half-width of an under-minimum evaluation maps to
        JSON null and back (strict JSON has no Infinity)."""
        import json as jsonlib

        from repro.core.policy import PolicyDecision

        policy = make_policy()
        decision = policy.evaluate([[1e6], [2e6]])  # below min: inf CI
        payload = jsonlib.loads(jsonlib.dumps(decision.to_json()))
        assert payload["worst_ci_halfwidth_bps"] is None
        restored = PolicyDecision.from_json(payload)
        assert restored.worst_ci_halfwidth_bps == float("inf")
        assert restored == decision

    def test_policy_config_json_round_trips_inf(self):
        import json as jsonlib

        config = TrialPolicyConfig(
            min_trials=2,
            max_trials=2,
            batch_size=2,
            ci_halfwidth_bps=float("inf"),
        )
        assert TrialPolicyConfig.fixed(2) == config
        payload = jsonlib.loads(jsonlib.dumps(config.to_json()))
        assert TrialPolicyConfig.from_json(payload) == config


class TestConvergenceTracker:
    def make_tracker(self, policy=None, base_seed=0):
        from repro.core.convergence import ConvergenceTracker

        return ConvergenceTracker.for_services(
            ["a", "b"],
            policy or make_policy(min_trials=3, max_trials=9, batch=3),
            include_self_pairs=False,
            base_seed=base_seed,
        )

    def feed(self, tracker, pair, value_a, value_b=10e6):
        return tracker.record_trial(pair, {"a": value_a, "b": value_b})

    def test_stable_pair_retires_at_min_trials(self):
        tracker = self.make_tracker()
        pair = ("a", "b")
        assert self.feed(tracker, pair, 10e6) is None  # mid-batch
        assert self.feed(tracker, pair, 10e6) is None
        decision = self.feed(tracker, pair, 10e6)  # batch drains
        assert decision is not None and decision.converged
        assert not tracker.pending()
        assert tracker.counts() == {
            "open": 0, "converged": 1, "unstable": 0,
        }
        assert tracker.trials_saved() == 9 - 3

    def test_noisy_pair_runs_to_cap_and_flags_unstable(self):
        import random

        tracker = self.make_tracker()
        rng = random.Random(0)
        pair = ("a", "b")
        fed = 0
        while tracker.pending():
            self.feed(tracker, pair, rng.uniform(1e6, 50e6))
            fed += 1
        assert fed == 9  # min 3, then batches of 3 to the cap
        assert tracker.unstable_pairs() == [pair]
        assert tracker.trials_saved() == 0

    def test_next_batches_window_follows_trials_done(self):
        tracker = self.make_tracker()
        pair = ("a", "b")
        assert tracker.next_batches() == {pair: (0, 3)}
        import random

        rng = random.Random(1)
        for _ in range(3):
            self.feed(tracker, pair, rng.uniform(1e6, 50e6))
        assert tracker.next_batches() == {pair: (3, 3)}

    def test_json_round_trip_mid_batch_resumes_identically(self):
        import json as jsonlib
        import random

        from repro.core.convergence import ConvergenceTracker

        rng = random.Random(2)
        values = [rng.uniform(1e6, 50e6) for _ in range(9)]
        original = self.make_tracker()
        pair = ("a", "b")
        for value in values[:4]:  # one full batch + one trial of the next
            self.feed(original, pair, value)
        clone = ConvergenceTracker.from_json(
            jsonlib.loads(jsonlib.dumps(original.to_json()))
        )
        assert clone.next_batches() == original.next_batches()
        assert clone.verdicts() == original.verdicts()
        for value in values[4:]:
            left = self.feed(original, pair, value)
            right = self.feed(clone, pair, value)
            assert (left is None) == (right is None)
            if left is not None:
                assert left == right
        assert original.verdicts() == clone.verdicts()
        assert original.seed_for(pair, 7) == clone.seed_for(pair, 7)

    def test_from_json_rejects_schema_skew(self):
        payload = self.make_tracker().to_json()
        payload["schema"] = 999
        from repro.core.convergence import ConvergenceTracker

        with pytest.raises(ValueError, match="schema"):
            ConvergenceTracker.from_json(payload)

    def test_rejects_duplicate_pairs(self):
        from repro.core.convergence import ConvergenceTracker

        with pytest.raises(ValueError, match="duplicate"):
            ConvergenceTracker(
                [("a", "b"), ("a", "b")], make_policy()
            )
