"""Delivery-rate sampling (draft-cheng-iccrg-delivery-rate-estimation).

Each outgoing packet snapshots the connection's ``delivered`` byte counter
and timestamps.  When the packet is ACKed, the sampler computes how fast
data was delivered over the interval the packet was in flight, which is the
bandwidth signal BBR's filters consume.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import units
from ..netsim.packet import Packet


@dataclass
class RateSample:
    """One delivery-rate measurement attached to an ACK.

    Attributes:
        delivery_rate_bps: estimated delivery rate over the sample interval.
        delivered_bytes: bytes newly delivered in the interval.
        interval_usec: sample interval length.
        is_app_limited: the sample was taken while the sender had no data to
            send (BBR must not let such samples reduce its estimate).
        rtt_usec: RTT measured on the sampled packet.
    """

    delivery_rate_bps: float
    delivered_bytes: int
    interval_usec: int
    is_app_limited: bool
    rtt_usec: int


class RateSampler:
    """Per-connection delivery-rate bookkeeping.

    ``on_ack`` returns one **reused** :class:`RateSample` instance per
    sampler, mutated in place: consumers (the CCAs) read the fields inside
    their ``on_ack`` and never retain the object, so reuse saves one
    allocation per ACK on the hot path.  Callers that want to keep a
    sample must copy it.
    """

    __slots__ = (
        "delivered",
        "delivered_time",
        "first_sent_time",
        "app_limited_until",
        "_sample",
    )

    def __init__(self) -> None:
        self.delivered = 0
        self.delivered_time = 0
        self.first_sent_time = 0
        # ``delivered`` watermark below which samples count as app-limited.
        self.app_limited_until = 0
        self._sample = RateSample(0.0, 0, 0, False, 0)

    def on_sent(self, packet: Packet, now: int, inflight_bytes: int) -> None:
        """Snapshot sampler state into an outgoing packet."""
        if inflight_bytes == 0:
            self.first_sent_time = now
            self.delivered_time = now
        packet.first_sent_time = self.first_sent_time
        packet.delivered = self.delivered
        packet.delivered_time = self.delivered_time
        packet.is_app_limited = self.app_limited_until > self.delivered

    def mark_app_limited(self, inflight_bytes: int) -> None:
        """The application ran out of data with the window unfilled."""
        self.app_limited_until = self.delivered + max(inflight_bytes, 1)

    def on_ack(self, packet: Packet, now: int, rtt_usec: int) -> RateSample:
        """Compute the rate sample for a freshly ACKed packet."""
        self.delivered = delivered = self.delivered + packet.size_bytes
        self.delivered_time = now
        sent_time = packet.sent_time
        send_elapsed = sent_time - packet.first_sent_time
        ack_elapsed = now - packet.delivered_time
        # Per the draft: the next sample's send interval starts at this
        # packet's send time.
        self.first_sent_time = sent_time
        interval = send_elapsed if send_elapsed >= ack_elapsed else ack_elapsed
        delivered_bytes = delivered - packet.delivered
        if interval <= 0:
            rate = 0.0
        else:
            rate = delivered_bytes * 8 * units.USEC_PER_SEC / interval
        sample = self._sample
        sample.delivery_rate_bps = rate
        sample.delivered_bytes = delivered_bytes
        sample.interval_usec = interval
        sample.is_app_limited = packet.is_app_limited
        sample.rtt_usec = rtt_usec
        return sample
