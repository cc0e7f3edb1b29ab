"""Network/experiment configuration: the paper's settings must come out
exactly (queue sizes, CI thresholds, measurement windows)."""

import math

import pytest

from repro import units
from repro.config import (
    ExperimentConfig,
    NetworkConfig,
    TrialPolicyConfig,
    highly_constrained,
    moderately_constrained,
    trial_policy_for,
)


class TestNetworkConfig:
    def test_highly_constrained_bandwidth(self):
        assert highly_constrained().bandwidth_bps == units.mbps(8)

    def test_moderately_constrained_bandwidth(self):
        assert moderately_constrained().bandwidth_bps == units.mbps(50)

    def test_default_rtt_is_50ms(self):
        assert highly_constrained().base_rtt_usec == units.msec(50)

    def test_paper_queue_size_8mbps(self):
        # Section 3.1 / Fig 8: 4xBDP at 8 Mbps is a 128-packet queue.
        assert highly_constrained().queue_packets == 128

    def test_paper_queue_size_50mbps(self):
        # Fig 8 caption: "4xBDP (1024 packet) buffer".
        assert moderately_constrained().queue_packets == 1024

    def test_double_buffer_50mbps(self):
        # Fig 8 caption: "8xBDP (2048 packet) buffer".
        net = moderately_constrained().with_buffer_multiple(8.0)
        assert net.queue_packets == 2048

    def test_queue_without_power_of_two(self):
        net = NetworkConfig(
            bandwidth_bps=units.mbps(50), power_of_two_queue=False
        )
        assert net.queue_packets == 833

    def test_queue_override(self):
        net = NetworkConfig(
            bandwidth_bps=units.mbps(50), queue_packets_override=77
        )
        assert net.queue_packets == 77

    def test_with_bandwidth_returns_new_config(self):
        base = highly_constrained()
        other = base.with_bandwidth(units.mbps(30))
        assert other.bandwidth_bps == units.mbps(30)
        assert base.bandwidth_bps == units.mbps(8)

    def test_bdp_packets(self):
        assert highly_constrained().bdp_packets == pytest.approx(33.33, abs=0.01)


class TestExperimentConfig:
    def test_paper_defaults(self):
        # 10-minute runs, first/last 2 minutes ignored.
        config = ExperimentConfig()
        assert config.duration_usec == units.seconds(600)
        assert config.measure_start_usec == units.seconds(120)
        assert config.measure_end_usec == units.seconds(480)
        assert config.measure_duration_usec == units.seconds(360)

    def test_scaled_preserves_proportions(self):
        config = ExperimentConfig().scaled(60)
        assert config.duration_usec == units.seconds(60)
        assert config.warmup_usec == units.seconds(12)
        assert config.measure_duration_usec == units.seconds(36)

    def test_rejects_empty_window(self):
        with pytest.raises(ValueError):
            ExperimentConfig(
                duration_usec=units.seconds(10),
                warmup_usec=units.seconds(6),
                cooldown_usec=units.seconds(6),
            )


class TestTrialPolicyConfig:
    def test_paper_defaults(self):
        config = TrialPolicyConfig()
        assert config.min_trials == 10
        assert config.max_trials == 30
        assert config.batch_size == 10

    def test_ci_threshold_highly_constrained(self):
        policy = trial_policy_for(highly_constrained())
        assert policy.ci_halfwidth_bps == units.mbps(0.5)

    def test_ci_threshold_moderately_constrained(self):
        policy = trial_policy_for(moderately_constrained())
        assert policy.ci_halfwidth_bps == units.mbps(1.5)

    def test_rejects_bad_trial_counts(self):
        with pytest.raises(ValueError):
            TrialPolicyConfig(min_trials=5, max_trials=3)
        with pytest.raises(ValueError):
            TrialPolicyConfig(min_trials=0)
        with pytest.raises(ValueError):
            TrialPolicyConfig(batch_size=0)

    @pytest.mark.parametrize(
        "changes",
        [
            {"ci_halfwidth_bps": math.nan},
            {"ci_halfwidth_bps": -1.0},
            {"ci_halfwidth_bps": -math.inf},
            {"confidence": 0.0},
            {"confidence": 1.0},
            {"confidence": 1.5},
            {"confidence": math.nan},
        ],
        ids=[
            "ci-nan", "ci-negative", "ci-neg-inf", "confidence-0",
            "confidence-1", "confidence-above-1", "confidence-nan",
        ],
    )
    def test_rejects_a_half_width_or_confidence_no_interval_has(
        self, changes
    ):
        """A NaN half-width passes no comparison, so every pair would
        run to its cap as if it never converged."""
        with pytest.raises(ValueError, match=next(iter(changes))):
            TrialPolicyConfig(**changes)

    @pytest.mark.parametrize("ci", [0.0, math.inf])
    def test_a_half_width_no_or_every_interval_meets_is_a_policy(self, ci):
        """0: every pair runs to the cap; ``inf``: ``fixed``."""
        assert TrialPolicyConfig(ci_halfwidth_bps=ci).ci_halfwidth_bps == ci
