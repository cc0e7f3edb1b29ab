"""Dumbbell topology: per-service servers, one shared bottleneck, one client.

Figure 1 of the paper: two (or more) services send to clients through the
BESS switch, which is the only constrained element.  RTT normalisation is
done here: every service declares its *native* RTT (<= the 50 ms target) and
the topology inserts the difference as extra propagation delay, exactly as
the paper does at the switch.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, Optional

from .. import units
from ..config import NetworkConfig
from .engine import _NO_ARG, CalendarEngine, day_shift
from .link import BottleneckLink
from .packet import Packet
from .queue import DropTailQueue


class Path:
    """One service's path: server -> switch -> client, plus reverse path.

    The forward direction is the only congested one (downloads); requests
    and ACKs ride the uncongested reverse path as pure delays.
    """

    __slots__ = (
        "engine",
        "link",
        "pre_delay_usec",
        "rev_delay_usec",
        "external_loss_rate",
        "external_losses",
        "external_arrivals",
        "_rng",
        "_rng_random",
        "_link_send",
        "_ack_dither_scale",
    )

    def __init__(
        self,
        engine: CalendarEngine,
        link: BottleneckLink,
        pre_delay_usec: int,
        rev_delay_usec: int,
        external_loss_rate: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.engine = engine
        self.link = link
        self.pre_delay_usec = pre_delay_usec
        self.rev_delay_usec = rev_delay_usec
        self.external_loss_rate = external_loss_rate
        self.external_losses = 0
        self.external_arrivals = 0
        self._rng = rng or random.Random(0)
        # Hot-path caches: the per-packet dither scale is a pure function
        # of the (fixed) link rate, and the bound methods below are looked
        # up once instead of once per packet/ACK.
        self._rng_random = self._rng.random
        self._link_send = link.send
        self._ack_dither_scale = units.serialization_time_usec(
            units.MSS_BYTES, link.rate_bps
        )

    @property
    def base_rtt_usec(self) -> int:
        """Propagation RTT excluding serialisation and queueing."""
        return self.pre_delay_usec + self.link.post_delay_usec + self.rev_delay_usec

    def transmit(self, packet: Packet) -> None:
        """Send a data packet from the server towards the client."""
        self.external_arrivals += 1
        if (
            self.external_loss_rate > 0.0
            and self._rng.random() < self.external_loss_rate
        ):
            # Lost upstream of the testbed: silently vanishes (the flow's
            # loss detection will notice the gap).
            self.external_losses += 1
            return
        self.engine.schedule(self.pre_delay_usec, self._link_send, packet)

    def send_reverse(self, callback, arg=_NO_ARG) -> int:
        """Deliver an ACK/request to the server after the reverse delay.

        A random dither of up to one packet service time is added.  This
        is the classic fix for drop-tail *phase effects* (Floyd &
        Jacobson): without it, deterministic ACK clocking phase-locks a
        flow's arrivals to queue-overflow instants and produces wildly
        biased loss synchronisation.  The dither never exceeds the ACK
        spacing, so same-flow reordering stays within the dupthresh.

        ``arg``, when given, is forwarded to the engine's 4-tuple event
        form so hot callers (per-packet ACKs) need no closure.
        """
        dither = int(self._rng_random() * self._ack_dither_scale)
        delay = self.rev_delay_usec + dither
        self.engine.schedule(delay, callback, arg)
        return self.engine.now + delay

    def send_reverse_ordered(
        self, callback, not_before_usec: int = 0
    ) -> int:
        """Reverse delivery that never overtakes an earlier one.

        Application *requests* ride an ordered byte stream in reality, so
        unlike ACK dithering they must stay FIFO; callers thread the
        returned arrival time into the next call's ``not_before_usec``.
        """
        dither = int(self._rng_random() * self._ack_dither_scale)
        arrival = max(
            self.engine.now + self.rev_delay_usec + dither, not_before_usec
        )
        self.engine.schedule_at(arrival, callback)
        return arrival

    @property
    def external_loss_fraction(self) -> float:
        if self.external_arrivals == 0:
            return 0.0
        return self.external_losses / self.external_arrivals


class Dumbbell:
    """The full emulated testbed for one experiment.

    Construction wires up the queue (power-of-two sized per the BESS
    quirk) and the bottleneck link; it records nothing - a queue log,
    packet trace or flight recorder is attached to ``link`` by whoever
    wants one.  Services then request paths via :meth:`path_for_service`.
    """

    #: Portion of the forward one-way delay placed downstream of the switch.
    POST_DELAY_USEC = units.msec(1)

    def __init__(
        self,
        network: NetworkConfig,
        seed: int = 0,
        engine: Optional[CalendarEngine] = None,
    ) -> None:
        self.network = network
        # Tests inject the heap oracle here (tests/naive_engine.py).
        self.engine = (
            engine if engine is not None
            else CalendarEngine(day_shift(network.bandwidth_bps))
        )
        self.queue = DropTailQueue(network.queue_packets)
        self.link = BottleneckLink(
            self.engine,
            rate_bps=network.bandwidth_bps,
            queue=self.queue,
            post_delay_usec=self.POST_DELAY_USEC,
        )
        self._seed = seed
        self._paths: Dict[str, Path] = {}

    def rng_for(self, label: str) -> random.Random:
        """A deterministic per-component RNG stream.

        Uses crc32 rather than ``hash`` so streams are stable across
        processes (str hashing is randomised per interpreter run).
        """
        digest = zlib.crc32(f"{self._seed}:{label}".encode("utf-8"))
        return random.Random(digest)

    def path_for_service(
        self, service_id: str, native_rtt_usec: Optional[int] = None
    ) -> Path:
        """Create (or fetch) the RTT-normalised path for a service.

        ``native_rtt_usec`` is the service's RTT before normalisation; the
        topology inserts ``target - native`` extra delay.  Services with a
        native RTT above the target raise, mirroring the paper's note that
        delay can only be added, never removed.
        """
        if service_id in self._paths:
            return self._paths[service_id]
        target = self.network.base_rtt_usec
        native = native_rtt_usec if native_rtt_usec is not None else target
        if not self.network.normalize_rtt:
            # Vantage-point mode (Section 9): no delay insertion; services
            # keep their native RTT.  Services that never measured one get
            # a seeded draw from the paper's observed 10-40 ms range.
            if native_rtt_usec is None:
                native = units.msec(
                    self.rng_for(f"native-rtt:{service_id}").uniform(10, 40)
                )
            target = native
        elif native > target:
            raise ValueError(
                f"service {service_id!r} native RTT {native}us exceeds the "
                f"{target}us normalisation target; delay cannot be removed"
            )
        # Split the forward/reverse delay so the propagation RTT equals the
        # target: fixed 1 ms after the switch, the rest split between the
        # server->switch hop and the reverse path.  A small seeded jitter
        # (<1%) models the residual RTT variation the live testbed sees
        # even after normalisation, and decorrelates repeated trials.
        jitter = self.rng_for(f"rtt:{service_id}").uniform(-0.008, 0.008)
        remaining = int((target - self.POST_DELAY_USEC) * (1.0 + jitter))
        pre = remaining // 2
        rev = remaining - pre
        path = Path(
            self.engine,
            self.link,
            pre_delay_usec=pre,
            rev_delay_usec=rev,
            external_loss_rate=self.network.external_loss_rate,
            rng=self.rng_for(f"path:{service_id}"),
        )
        self._paths[service_id] = path
        return path

    @property
    def paths(self) -> Dict[str, Path]:
        return dict(self._paths)

    def external_loss_fraction(self) -> float:
        """Aggregate external (upstream) loss across all services' paths."""
        arrivals = sum(p.external_arrivals for p in self._paths.values())
        losses = sum(p.external_losses for p in self._paths.values())
        return losses / arrivals if arrivals else 0.0

    def run(self, until_usec: int) -> None:
        """Advance the simulation to the given absolute time."""
        self.engine.run(until_usec)
