"""Drop-tail FIFO bottleneck queue with per-service accounting.

This mirrors what the paper measures at the BESS switch: arrivals, drops,
occupancy over time, and per-packet queueing delay, all attributable to the
service that sent the packet.

Hot-path note: the counters are ``defaultdict(int)`` so ``offer``/``pop``
increment them with a single C-level ``+=`` instead of a ``get``-then-store
pair, and both methods keep their per-call state in locals.  Counter dicts
still compare/serialise exactly like plain dicts, and missing services
read as zero via ``.get`` in the accessors (reads never insert keys).
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Deque, Dict, Optional

from .packet import Packet


class DropTailQueue:
    """Fixed-capacity (in packets) drop-tail FIFO.

    Attributes:
        capacity_packets: maximum number of queued packets; arrivals beyond
            this are dropped (tail drop).
        arrivals / drops: per-service counters keyed by ``service_id``.
    """

    __slots__ = (
        "capacity_packets",
        "_queue",
        "arrivals",
        "drops",
        "queue_delay_sum_usec",
        "queue_delay_samples",
    )

    def __init__(self, capacity_packets: int) -> None:
        if capacity_packets < 1:
            raise ValueError("queue capacity must be at least one packet")
        self.capacity_packets = capacity_packets
        self._queue: Deque[Packet] = deque()
        self.arrivals: Dict[str, int] = defaultdict(int)
        self.drops: Dict[str, int] = defaultdict(int)
        self.queue_delay_sum_usec: Dict[str, int] = defaultdict(int)
        self.queue_delay_samples: Dict[str, int] = defaultdict(int)

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def occupancy(self) -> int:
        """Current number of queued packets."""
        return len(self._queue)

    def offer(self, packet: Packet, now: int) -> bool:
        """Enqueue ``packet``; returns False (and counts a drop) if full."""
        service_id = packet.flow.service_id
        self.arrivals[service_id] += 1
        queue = self._queue
        if len(queue) >= self.capacity_packets:
            self.drops[service_id] += 1
            return False
        packet.arrival_time = now
        queue.append(packet)
        return True

    def pop(self, now: int) -> Optional[Packet]:
        """Dequeue the head packet, recording its queueing delay."""
        queue = self._queue
        if not queue:
            return None
        packet = queue.popleft()
        packet.dequeue_time = now
        service_id = packet.flow.service_id
        self.queue_delay_sum_usec[service_id] += now - packet.arrival_time
        self.queue_delay_samples[service_id] += 1
        return packet

    def loss_rate(self, service_id: str) -> float:
        """Fraction of this service's arrivals that were tail-dropped."""
        arrived = self.arrivals.get(service_id, 0)
        if arrived == 0:
            return 0.0
        return self.drops.get(service_id, 0) / arrived

    def mean_queueing_delay_usec(self, service_id: str) -> float:
        """Average queueing delay of this service's delivered packets."""
        samples = self.queue_delay_samples.get(service_id, 0)
        if samples == 0:
            return 0.0
        return self.queue_delay_sum_usec[service_id] / samples

    def reset_stats(self) -> None:
        """Clear counters (used when the measurement window opens)."""
        self.arrivals.clear()
        self.drops.clear()
        self.queue_delay_sum_usec.clear()
        self.queue_delay_samples.clear()
