"""TCP Cubic (RFC 8312), including fast convergence and the
TCP-friendly (Reno-emulation) region.

Cubic is OneDrive's CCA per Table 1 (Microsoft's 'extended' variant is
modelled at the service level as a server-side rate cap on top of this
implementation) and the ``iPerf (Cubic)`` baseline.
"""

from __future__ import annotations

from typing import Optional

from .. import units
from ..transport.connection import INITIAL_WINDOW
from ..transport.rate_sampler import RateSample
from .base import CongestionControl

_MIN_CWND = 2.0


class Cubic(CongestionControl):
    """Cubic window growth: W(t) = C*(t-K)^3 + W_max."""

    name = "cubic"
    uses_rate_samples = False

    #: RFC 8312 constants.
    C = 0.4
    BETA = 0.7

    def __init__(self, initial_cwnd: float = INITIAL_WINDOW) -> None:
        super().__init__(initial_cwnd)
        self.ssthresh = float("inf")
        self.w_max = 0.0
        self._epoch_start_usec: Optional[int] = None
        self._k_sec = 0.0
        self._origin_point = 0.0
        self._ack_count = 0.0
        self._w_est = 0.0
        # Per-ACK constant of the TCP-friendly region (RFC 8312 eq. 4);
        # evaluated with the exact expression the per-ACK code used so the
        # float is bit-identical.
        self._w_est_gain = 3.0 * (1.0 - self.BETA) / (1.0 + self.BETA)

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
        elif self._epoch_start_usec is None:
            phase = "epoch_reset"
        else:
            phase = "cubic_growth"
        return (phase, self.w_max,
                -1.0 if ssthresh == float("inf") else ssthresh)

    def _reset_epoch(self, now: int) -> None:
        self._epoch_start_usec = now
        if self.cwnd_packets < self.w_max:
            self._k_sec = ((self.w_max - self.cwnd_packets) / self.C) ** (1.0 / 3.0)
            self._origin_point = self.w_max
        else:
            self._k_sec = 0.0
            self._origin_point = self.cwnd_packets
        self._ack_count = 0.0
        self._w_est = self.cwnd_packets

    def on_ack(self, conn, packet, rtt_usec: int, rate_sample: RateSample) -> None:
        # Hot path: every attribute read below is hoisted into a local and
        # cwnd is written back once; the arithmetic (and its order) is the
        # seed code's, so results stay bit-identical.
        if conn.in_recovery:
            return
        cwnd = self.cwnd_packets
        if cwnd < self.ssthresh:  # in_slow_start
            self.cwnd_packets = cwnd + 1.0
            return
        now = conn.engine.now
        if self._epoch_start_usec is None:
            self._reset_epoch(now)
        usec_per_sec = units.USEC_PER_SEC
        t_sec = (now - self._epoch_start_usec) / usec_per_sec
        rtt_sec = max(rtt_usec, 1) / usec_per_sec
        # Cubic target one RTT in the future.
        offs = t_sec + rtt_sec - self._k_sec
        w_cubic = self.C * offs * offs * offs + self._origin_point
        # TCP-friendly region (RFC 8312 section 4.2).
        self._ack_count += 1.0
        w_est = self._w_est + self._w_est_gain / cwnd
        self._w_est = w_est
        target = w_cubic if w_cubic > w_est else w_est
        if target > cwnd:
            self.cwnd_packets = cwnd + (target - cwnd) / cwnd
        else:
            # Max-probing region: grow very slowly to probe for bandwidth.
            self.cwnd_packets = cwnd + 0.01 / cwnd

    def on_loss_event(self, conn, now: int) -> None:
        self._epoch_start_usec = None
        if self.cwnd_packets < self.w_max:
            # Fast convergence: release bandwidth faster when the window
            # stopped short of its previous maximum.
            self.w_max = self.cwnd_packets * (1.0 + self.BETA) / 2.0
        else:
            self.w_max = self.cwnd_packets
        self.cwnd_packets = max(self.cwnd_packets * self.BETA, _MIN_CWND)
        self.ssthresh = self.cwnd_packets

    def on_rto(self, conn, now: int) -> None:
        self._epoch_start_usec = None
        self.w_max = self.cwnd_packets
        self.ssthresh = max(self.cwnd_packets * self.BETA, _MIN_CWND)
        self.cwnd_packets = 1.0

    def on_idle_restart(self, conn, idle_usec: int) -> None:
        self.cwnd_packets = min(self.cwnd_packets, float(INITIAL_WINDOW))
        self._epoch_start_usec = None
