"""The shared bottleneck link: drop-tail queue plus serialiser.

Packets arriving from any server enter the drop-tail queue; a single
serialiser drains the queue at the configured link rate, then hands each
packet to its flow's receiver after the downstream propagation delay.

Hot-path note (see DESIGN.md, "simulator hot path"): the serialiser keeps
exactly one pending event in the engine heap - the finish time of the
packet currently on the wire - and each ``_finish`` both delivers its
packet and starts the next serialisation in the same callback frame.
Successive dequeue times within a busy burst are pure integer arithmetic
over a per-size serialisation-time cache; no closures, floats, or repeated
rate conversions per packet.  Events carry the packet as the engine's
4-tuple ``arg`` so nothing is allocated per event.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Optional

from .. import units
from .engine import CalendarEngine
from .packet import Packet
from .queue import DropTailQueue
from .trace import PacketTrace, Probe


class BottleneckLink:
    """Rate-limited link with an attached drop-tail FIFO.

    Attributes:
        rate_bps: serialisation rate.
        post_delay_usec: propagation delay from the switch to the client.
        queue: the attached :class:`DropTailQueue`.
        trace: the :class:`~repro.netsim.trace.PacketTrace` recording
            every delivered and tail-dropped packet, ``None`` unless one
            is attached.
        delivered_bytes: per-service delivered-byte counters (wire bytes,
            including retransmissions) since the last ``reset_stats``.
        probe: the :class:`~repro.netsim.trace.Probe` every sim-clock
            observer of this link subscribes to.
    """

    __slots__ = (
        "engine",
        "rate_bps",
        "post_delay_usec",
        "queue",
        "trace",
        "delivered_bytes",
        "busy_usec",
        "probe",
        "_busy",
        "_last_busy_start",
        "_ser_usec",
        "_probe_next",
    )

    def __init__(
        self,
        engine: CalendarEngine,
        rate_bps: float,
        queue: DropTailQueue,
        post_delay_usec: int = 0,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("link rate must be positive")
        self.engine = engine
        self.rate_bps = rate_bps
        self.post_delay_usec = post_delay_usec
        self.queue = queue
        self.trace: Optional[PacketTrace] = None
        self.delivered_bytes: Dict[str, int] = defaultdict(int)
        self.busy_usec = 0
        self._busy = False
        self._last_busy_start = 0
        # The probe's next deadline: ``send`` pays one integer compare
        # against it per packet, whatever is (or is not) subscribed.
        self.probe = Probe()
        self._probe_next = Probe.IDLE
        # size_bytes -> serialisation time in usec.  One or two packet
        # sizes dominate any trial, so this is effectively a constant fold
        # of ``units.serialization_time_usec`` for the drain loop.
        self._ser_usec: Dict[int, int] = {}

    def subscribe(
        self, period_usec: int, fn: Callable[[int, "BottleneckLink"], None]
    ) -> None:
        """Run ``fn(now, link)`` at the first send at or after each
        ``period_usec`` boundary (see :class:`~repro.netsim.trace.Probe`)."""
        self._probe_next = self.probe.subscribe(period_usec, fn)

    def serialization_usec(self, size_bytes: int) -> int:
        """Cached integer serialisation time for a packet of this size."""
        ser = self._ser_usec.get(size_bytes)
        if ser is None:
            ser = self._ser_usec[size_bytes] = units.serialization_time_usec(
                size_bytes, self.rate_bps
            )
        return ser

    def send(self, packet: Packet) -> None:
        """Packet arrives at the switch; queue it and kick the serialiser."""
        now = self.engine.now
        queue = self.queue
        accepted = queue.offer(packet, now)
        if now >= self._probe_next:
            self._probe_next = self.probe.fire(now, self)
        if not accepted:
            flow = packet.flow
            trace = self.trace
            if trace is not None:
                trace.record_drop(now, flow.service_id)
            flow.on_packet_dropped(packet)
            return
        if not self._busy:
            self._busy = True
            self._last_busy_start = now
            self._serialize_next()

    def _serialize_next(self) -> None:
        """Start serialising the queue head (or go idle)."""
        now = self.engine.now
        packet = self.queue.pop(now)
        if packet is None:
            self._busy = False
            self.busy_usec += now - self._last_busy_start
            return
        ser = self._ser_usec.get(packet.size_bytes)
        if ser is None:
            ser = self.serialization_usec(packet.size_bytes)
        self.engine.schedule(ser, self._finish, packet)

    def _finish(self, packet: Packet) -> None:
        """Packet fully serialised: deliver it and drain the next one.

        This *is* the burst drain loop: while the queue stays non-empty
        each ``_finish`` immediately computes the next integer dequeue
        time and schedules the next finish, so a busy burst is a chain of
        single pre-resolved events with exact per-packet timestamps for
        the queue-delay accounting.
        """
        engine = self.engine
        now = engine.now
        flow = packet.flow
        service_id = flow.service_id
        size = packet.size_bytes
        self.delivered_bytes[service_id] += size
        post = self.post_delay_usec
        trace = self.trace
        if trace is not None:
            trace.record(now + post, service_id, size)
        if post:
            engine.schedule(post, flow.on_packet_arrived, packet)
        else:
            flow.on_packet_arrived(packet)
        # Drain the next packet in the same frame (dequeue time == now).
        nxt = self.queue.pop(now)
        if nxt is None:
            self._busy = False
            self.busy_usec += now - self._last_busy_start
            return
        ser = self._ser_usec.get(nxt.size_bytes)
        if ser is None:
            ser = self.serialization_usec(nxt.size_bytes)
        engine.schedule(ser, self._finish, nxt)

    def utilization(self, window_usec: int) -> float:
        """Fraction of ``window_usec`` worth of capacity actually delivered."""
        if window_usec <= 0:
            raise ValueError("window must be positive")
        total_bytes = sum(self.delivered_bytes.values())
        capacity_bytes = self.rate_bps * window_usec / units.USEC_PER_SEC / 8
        return total_bytes / capacity_bytes if capacity_bytes else 0.0

    def reset_stats(self) -> None:
        """Clear delivery counters (when the measurement window opens)."""
        now = self.engine.now
        self.delivered_bytes.clear()
        self.queue.reset_stats()
        self.busy_usec = 0
        if self._busy:
            self._last_busy_start = now
        self.probe.window_open_usec = now
