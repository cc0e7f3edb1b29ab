"""TCP Vegas: the classic delay-based congestion controller.

Not used by any Table-1 service, but the related-work CCA taxonomy the
paper leans on (Turkovic et al.'s loss-based / delay-based / hybrid
grouping) needs a delay-based representative: the classifier labels this
family, coexistence tests use it as the canonical 'backs off on queueing'
baseline, and it rounds out the CCA library for downstream users.
"""

from __future__ import annotations

from typing import Optional

from .. import units
from ..transport.connection import INITIAL_WINDOW
from ..transport.rate_sampler import RateSample
from .base import CongestionControl

_MIN_CWND = 2.0


class Vegas(CongestionControl):
    """Brakmo & Peterson's Vegas: keep alpha..beta packets in the queue.

    diff = cwnd * (rtt - base_rtt) / rtt estimates how many of our own
    packets are queued; grow while diff < alpha, shrink while diff > beta.
    """

    name = "vegas"
    uses_rate_samples = False

    def __init__(
        self,
        initial_cwnd: float = INITIAL_WINDOW,
        alpha_packets: float = 2.0,
        beta_packets: float = 4.0,
    ) -> None:
        if not 0 < alpha_packets <= beta_packets:
            raise ValueError("need 0 < alpha <= beta")
        super().__init__(initial_cwnd)
        self.alpha = alpha_packets
        self.beta = beta_packets
        self.ssthresh = float("inf")
        self.base_rtt_usec: Optional[int] = None
        self._acks_this_rtt = 0

    @property
    def in_slow_start(self) -> bool:
        return self.cwnd_packets < self.ssthresh

    def flight_state(self) -> "tuple[str, float, float]":
        ssthresh = self.ssthresh
        if self.cwnd_packets < ssthresh:
            phase = "slow_start"
        else:
            phase = "avoidance"
        base_rtt = self.base_rtt_usec
        return (
            phase,
            -1.0 if base_rtt is None else float(base_rtt),
            -1.0 if ssthresh == float("inf") else ssthresh,
        )

    def on_ack(self, conn, packet, rtt_usec: int, rate_sample: RateSample) -> None:
        # Hot path: state hoisted into locals, one cwnd write per branch.
        base_rtt = self.base_rtt_usec
        if base_rtt is None or rtt_usec < base_rtt:
            self.base_rtt_usec = base_rtt = rtt_usec
        if conn.in_recovery:
            return
        cwnd = self.cwnd_packets
        # Expected vs actual rate, expressed as queued-packet surplus.
        diff = cwnd * (rtt_usec - base_rtt) / max(rtt_usec, 1)
        if cwnd < self.ssthresh:  # in_slow_start
            # Vegas slow start: exit as soon as queueing appears.
            if diff > self.alpha:
                self.ssthresh = cwnd
            else:
                self.cwnd_packets = cwnd + 0.5  # slower-than-Reno doubling
            return
        if diff < self.alpha:
            self.cwnd_packets = cwnd + 1.0 / cwnd
        elif diff > self.beta:
            self.cwnd_packets = max(cwnd - 1.0 / cwnd, _MIN_CWND)
        # else: hold - the operating point is inside [alpha, beta].

    def on_loss_event(self, conn, now: int) -> None:
        self.ssthresh = max(self.cwnd_packets * 0.75, _MIN_CWND)
        self.cwnd_packets = self.ssthresh

    def on_rto(self, conn, now: int) -> None:
        self.ssthresh = max(self.cwnd_packets / 2.0, _MIN_CWND)
        self.cwnd_packets = 2.0

    def on_idle_restart(self, conn, idle_usec: int) -> None:
        self.cwnd_packets = min(self.cwnd_packets, float(INITIAL_WINDOW))
