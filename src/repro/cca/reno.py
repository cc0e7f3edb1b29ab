"""TCP NewReno (RFC 5681 / RFC 6582): slow start + AIMD.

This is the CCA Netflix's servers run per Table 1, and the ``iPerf (Reno)``
baseline.
"""

from __future__ import annotations

from typing import Optional

from ..transport.connection import INITIAL_WINDOW
from ..transport.rate_sampler import RateSample
from .base import CongestionControl

_MIN_CWND = 2.0


class NewReno(CongestionControl):
    """Classic loss-based AIMD congestion control."""

    name = "newreno"
    uses_rate_samples = False

    def __init__(self, initial_cwnd: float = INITIAL_WINDOW) -> None:
        super().__init__(initial_cwnd)
        self.ssthresh = float("inf")

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd_packets < self.ssthresh

    @property
    def pacing_rate_bps(self) -> Optional[float]:
        return None

    def flight_state(self) -> "tuple[str, float, float]":
        ssthresh = self.ssthresh
        if self.cwnd_packets < ssthresh:
            phase = "slow_start"
        else:
            phase = "avoidance"
        return (phase, -1.0 if ssthresh == float("inf") else ssthresh, 0.0)

    def on_ack(self, conn, packet, rtt_usec, rate_sample: RateSample) -> None:
        if conn.in_recovery:
            # Window already deflated for this episode; hold it until the
            # recovery point is passed (NewReno's partial-ACK behaviour is
            # approximated by the SACK scoreboard retransmitting holes).
            return
        # Hot path: one cwnd read, one write (in_slow_start inlined).
        cwnd = self.cwnd_packets
        if cwnd < self.ssthresh:
            self.cwnd_packets = cwnd + 1.0
        else:
            self.cwnd_packets = cwnd + 1.0 / cwnd

    def on_loss_event(self, conn, now: int) -> None:
        self.ssthresh = max(self.cwnd_packets / 2.0, _MIN_CWND)
        self.cwnd_packets = self.ssthresh

    def on_rto(self, conn, now: int) -> None:
        self.ssthresh = max(self.cwnd_packets / 2.0, _MIN_CWND)
        self.cwnd_packets = 1.0

    def on_idle_restart(self, conn, idle_usec: int) -> None:
        # RFC 2861 congestion-window validation: restart from the initial
        # window after a long idle period instead of blasting a stale cwnd.
        self.cwnd_packets = min(self.cwnd_packets, float(INITIAL_WINDOW))
