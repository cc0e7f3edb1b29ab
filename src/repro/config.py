"""Experiment and network configuration objects.

``NetworkConfig`` describes the emulated bottleneck (what the paper
configures through the BESS switch); ``ExperimentConfig`` describes the
measurement protocol (durations, warmup trimming, trial policy thresholds).

The two paper settings are exposed as :func:`highly_constrained` (8 Mbps)
and :func:`moderately_constrained` (50 Mbps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields as dataclass_fields, replace
from typing import Dict, Optional

from . import units


@dataclass(frozen=True)
class NetworkConfig:
    """Bottleneck-link emulation parameters (the BESS switch stand-in).

    Attributes:
        bandwidth_bps: bottleneck link rate in bits per second.
        base_rtt_usec: normalised round-trip time (the paper normalises all
            services to 50 ms by inserting delay at the switch).
        buffer_bdp_multiple: drop-tail queue size as a multiple of the BDP.
        power_of_two_queue: apply the BESS power-of-two queue-size quirk.
        queue_packets_override: explicit queue size in packets; bypasses the
            BDP-derived sizing when set.
        mss_bytes: wire packet size used for queue sizing and transfers.
        external_loss_rate: random loss *outside* the testbed (upstream of
            the bottleneck).  The paper discards trials with >0.05% external
            loss; we keep this at 0 by default and use it for fault
            injection in tests.
        normalize_rtt: insert delay so every service sees ``base_rtt_usec``
            (the paper's methodology).  Setting this False gives the
            Section 9 'vantage point' mode: services keep their native
            RTTs, so CDN-close services enjoy a real RTT advantage.
    """

    bandwidth_bps: float
    base_rtt_usec: int = units.msec(50)
    normalize_rtt: bool = True
    buffer_bdp_multiple: float = 4.0
    power_of_two_queue: bool = True
    queue_packets_override: Optional[int] = None
    mss_bytes: int = units.MSS_BYTES
    external_loss_rate: float = 0.0

    @property
    def bdp_packets(self) -> float:
        """Bandwidth-delay product in packets."""
        return units.bdp_packets(
            self.bandwidth_bps, self.base_rtt_usec, self.mss_bytes
        )

    @property
    def queue_packets(self) -> int:
        """Drop-tail queue capacity in packets."""
        if self.queue_packets_override is not None:
            return self.queue_packets_override
        raw = self.buffer_bdp_multiple * self.bdp_packets
        if self.power_of_two_queue:
            return units.nearest_power_of_two(raw)
        return max(1, int(round(raw)))

    def with_bandwidth(self, bandwidth_bps: float) -> "NetworkConfig":
        """A copy of this config at a different bottleneck bandwidth."""
        return replace(self, bandwidth_bps=bandwidth_bps)

    def with_buffer_multiple(self, multiple: float) -> "NetworkConfig":
        """A copy of this config with a different buffer-size multiple."""
        return replace(self, buffer_bdp_multiple=multiple)


@dataclass(frozen=True)
class ExperimentConfig:
    """Measurement-protocol parameters for a single trial.

    The paper runs 10-minute experiments and ignores the first and last two
    minutes.  Those values are the defaults here; the benchmark harness uses
    shorter durations (the protocol is unchanged, only scaled).
    """

    duration_usec: int = units.seconds(600)
    warmup_usec: int = units.seconds(120)
    cooldown_usec: int = units.seconds(120)
    seed: int = 0

    @property
    def measure_start_usec(self) -> int:
        return self.warmup_usec

    @property
    def measure_end_usec(self) -> int:
        return self.duration_usec - self.cooldown_usec

    @property
    def measure_duration_usec(self) -> int:
        return self.measure_end_usec - self.measure_start_usec

    def __post_init__(self) -> None:
        if self.measure_duration_usec <= 0:
            raise ValueError(
                "warmup + cooldown must leave a positive measurement window"
            )

    def scaled(self, duration_sec: float) -> "ExperimentConfig":
        """A copy with a new duration, keeping 20%/20% warmup/cooldown."""
        duration = units.seconds(duration_sec)
        trim = duration // 5
        return replace(
            self,
            duration_usec=duration,
            warmup_usec=trim,
            cooldown_usec=trim,
        )


@dataclass(frozen=True)
class TrialPolicyConfig:
    """Statistical trial policy from Section 3.4 of the paper.

    Trials are run in batches of ``batch_size`` starting from
    ``min_trials``, and more batches are added (up to ``max_trials``) until
    the 95% confidence interval of the median throughput is within
    ``ci_halfwidth_bps`` of the median.
    """

    min_trials: int = 10
    max_trials: int = 30
    batch_size: int = 10
    ci_halfwidth_bps: float = units.mbps(0.5)
    confidence: float = 0.95

    def __post_init__(self) -> None:
        if self.min_trials < 1 or self.max_trials < self.min_trials:
            raise ValueError("need 1 <= min_trials <= max_trials")
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")
        # 0: no pair converges before its cap; inf: all do (``fixed``).
        if not self.ci_halfwidth_bps >= 0:  # NaN included
            raise ValueError(f"ci_halfwidth_bps {self.ci_halfwidth_bps!r} < 0")
        if not 0 < self.confidence < 1:
            raise ValueError(f"confidence {self.confidence!r} not in (0, 1)")

    @classmethod
    def fixed(cls, trials: int) -> "TrialPolicyConfig":
        """Exactly ``trials`` per pair, no early stop: one batch that is
        floor and cap, and an infinite half-width so the CI test always
        passes.  The whole cycle is then one round, enumerable before
        anything runs (fixed-count fleet plans, ``repro cycle --trials``).
        """
        return cls(
            min_trials=trials,
            max_trials=trials,
            batch_size=trials,
            ci_halfwidth_bps=math.inf,
        )

    def to_json(self) -> Dict:
        """Strict-JSON payload for plans/cycle-state files.

        A fixed-trial policy disables the CI test with an infinite
        half-width; JSON has no Infinity, so ``inf`` serialises as
        ``null`` (mirroring :meth:`PolicyDecision.to_json`).
        """
        ci: Optional[float] = self.ci_halfwidth_bps
        if ci is not None and math.isinf(ci):
            ci = None
        return {
            "min_trials": self.min_trials,
            "max_trials": self.max_trials,
            "batch_size": self.batch_size,
            "ci_halfwidth_bps": ci,
            "confidence": self.confidence,
        }

    @classmethod
    def from_json(cls, payload: Dict) -> "TrialPolicyConfig":
        """Rebuild a policy config, ignoring unknown keys (fwd compat);
        a ``null`` CI half-width maps back to ``inf``."""
        known = {f.name for f in dataclass_fields(cls)}
        kwargs = {k: v for k, v in payload.items() if k in known}
        if kwargs.get("ci_halfwidth_bps", 0.0) is None:
            kwargs["ci_halfwidth_bps"] = float("inf")
        return cls(**kwargs)


#: CI half-widths from the paper: +/-0.5 Mbps at 8 Mbps, +/-1.5 Mbps at
#: 50 Mbps.
HIGHLY_CONSTRAINED_CI_BPS = units.mbps(0.5)
MODERATELY_CONSTRAINED_CI_BPS = units.mbps(1.5)


def highly_constrained(**overrides) -> NetworkConfig:
    """The paper's 8 Mbps 'highly-constrained' setting (4xBDP = 128 pkts)."""
    return NetworkConfig(bandwidth_bps=units.mbps(8), **overrides)


def moderately_constrained(**overrides) -> NetworkConfig:
    """The paper's 50 Mbps 'moderately-constrained' setting (4xBDP = 1024 pkts)."""
    return NetworkConfig(bandwidth_bps=units.mbps(50), **overrides)


def trial_policy_for(network: NetworkConfig) -> TrialPolicyConfig:
    """The paper's CI threshold for a given bandwidth setting."""
    if network.bandwidth_bps <= units.mbps(10):
        ci = HIGHLY_CONSTRAINED_CI_BPS
    else:
        ci = MODERATELY_CONSTRAINED_CI_BPS
    return TrialPolicyConfig(ci_halfwidth_bps=ci)
