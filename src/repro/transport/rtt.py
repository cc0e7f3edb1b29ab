"""Round-trip-time estimation and retransmission timeout (RFC 6298)."""

from __future__ import annotations

from typing import Optional

from .. import units


class RttEstimator:
    """SRTT / RTTVAR smoothing plus RTO with exponential backoff."""

    MIN_RTO_USEC = units.msec(200)
    MAX_RTO_USEC = units.seconds(60)
    ALPHA = 1 / 8
    BETA = 1 / 4

    def __init__(self) -> None:
        self.srtt_usec: Optional[float] = None
        self.rttvar_usec: float = 0.0
        self.latest_rtt_usec: Optional[int] = None
        self.min_rtt_usec: Optional[int] = None
        self._backoff = 1
        #: Current retransmission timeout, including backoff.  A plain
        #: attribute (not a property): it is read once per ACK by the
        #: connection's rearm path, so it is recomputed on state changes
        #: (sample/backoff) rather than per read.
        self.rto_usec = self._compute_rto()

    def on_rtt_sample(self, rtt_usec: int) -> None:
        """Feed one RTT measurement (never from retransmitted packets).

        Runs once per ACK: state is read into locals once and the clamps
        are written as comparisons (same operands, same results as
        ``abs`` / ``max`` / ``min``, without the builtin calls).
        """
        if rtt_usec <= 0:
            raise ValueError("RTT samples must be positive")
        self.latest_rtt_usec = rtt_usec
        min_rtt = self.min_rtt_usec
        if min_rtt is None or rtt_usec < min_rtt:
            self.min_rtt_usec = rtt_usec
        srtt = self.srtt_usec
        if srtt is None:
            srtt = float(rtt_usec)
            rttvar = rtt_usec / 2.0
        else:
            delta = srtt - rtt_usec
            if delta < 0:
                delta = -delta
            alpha = self.ALPHA
            beta = self.BETA
            rttvar = (1 - beta) * self.rttvar_usec + beta * delta
            srtt = (1 - alpha) * srtt + alpha * rtt_usec
        self.srtt_usec = srtt
        self.rttvar_usec = rttvar
        self._backoff = 1
        # _compute_rto with backoff 1 and srtt set.
        spread = 4 * rttvar
        rto = int(srtt + (spread if spread > 1000 else 1000))
        if rto < self.MIN_RTO_USEC:
            rto = self.MIN_RTO_USEC
        elif rto > self.MAX_RTO_USEC:
            rto = self.MAX_RTO_USEC
        self.rto_usec = rto

    def _compute_rto(self) -> int:
        if self.srtt_usec is None:
            base = units.seconds(1)
        else:
            base = int(self.srtt_usec + max(4 * self.rttvar_usec, 1000))
        rto = max(self.MIN_RTO_USEC, base) * self._backoff
        return min(rto, self.MAX_RTO_USEC)

    def backoff(self) -> None:
        """Double the RTO after a timeout fires."""
        self._backoff = min(self._backoff * 2, 64)
        self.rto_usec = self._compute_rto()
