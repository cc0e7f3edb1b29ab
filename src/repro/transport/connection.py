"""A reliable, congestion-controlled connection (the TCP/QUIC stand-in).

One ``Connection`` is one flow in the Table-1 sense: an ACK-clocked,
optionally paced byte stream with SACK-style loss detection, fast
retransmit, RTO with backoff, and a pluggable congestion controller.

Data flows server -> client through the shared bottleneck; ACKs and
requests ride the uncongested reverse path.  The application interface is
request-oriented (``request(nbytes, on_complete)``) because every service
in the paper is a download workload.

Hot-path notes (see DESIGN.md, "simulator hot path"):

* The RTO uses the engine's lazy-cancellation :class:`~repro.netsim.engine.Timer`
  handle, so rearming on every ACK is two attribute stores instead of a
  heap push.
* ``Connection`` declares ``__slots__``: it carries more instance
  attributes than CPython's shared-key table holds (30 on 3.11), so
  without them every ``self.x`` here would miss the inline-values path.
* ``_handle_ack`` / ``_send_loop`` hoist loop-invariant reads (cwnd,
  pacing rate, the clock) into locals; the pacing gap is cached keyed on
  the pacing rate, which only changes when the CCA moves it.  A packet
  is built, registered and handed to the path inside ``_send_loop``'s
  own frame, and ``cca.on_sent`` is called only when the controller
  overrides the base no-op.
* Delivery-rate sampling runs only for controllers that read it
  (``CongestionControl.uses_rate_samples``): otherwise the connection
  has no sampler, packets carry no snapshot and ``on_ack`` receives
  ``None`` for its rate sample.
* ``_handle_ack`` runs the per-ACK sequence in one frame: loss
  detection and the RTO rearm are written out in it, and the CCA
  callback goes through a bound method cached at init (``cca`` is never
  reassigned).  The RTT estimator and the rate sampler are plain calls:
  inlining either bought under 2% of a cold cycle (DESIGN.md section 6),
  so ``src/`` keeps one copy of each.
* Retired :class:`~repro.netsim.packet.Packet` objects are recycled
  through a flow-owned free list (``PACKET_POOL_SIZE``; set to 0 to
  disable).  A packet is recycled only once its network/ACK event chain
  has completed (``_chain_done``) *and* the loss-detection deque no longer
  holds it (``_in_order``) *and* it is not the live in-flight entry for
  its sequence number; this matters because loss detection compares
  in-flight entries by identity.  Packets lost upstream of the testbed
  never finish a chain and are simply left to the garbage collector.

None of these change scheduling order or arithmetic: simulations remain
bit-identical with the straightforward implementation.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Set, Tuple

from .. import units
from ..netsim.engine import CalendarEngine
from ..netsim.packet import Packet
from ..netsim.topology import Path
from .rate_sampler import RateSampler
from .rtt import RttEstimator

#: Packet-reordering threshold for fast retransmit (RFC 5681's 3 dupacks).
DUPTHRESH = 3

#: Initial congestion window in packets (Linux default since 2.6.39).
INITIAL_WINDOW = 10


class Connection:
    """A single reliable flow between a service's server and the client.

    Attributes:
        service_id: owning service's identifier (used for per-service
            accounting at the bottleneck).
        flow_id: unique id of this flow within the experiment.
        cca: the congestion-control instance steering this flow.
        server_rate_cap_bps: optional server-side pacing cap, modelling
            upstream throttles such as OneDrive's 45 Mbps ceiling.
    """

    #: Maximum retired packets kept for reuse (0 disables the free list).
    PACKET_POOL_SIZE = 2048

    __slots__ = (
        "engine",
        "path",
        "cca",
        "service_id",
        "flow_id",
        "mss_bytes",
        "server_rate_cap_bps",
        "_next_seq",
        "_pending_packets",
        "_committed_packets",
        "_inflight",
        "_order",
        "_rtx_queue",
        "_tx_counter",
        "_highest_acked_tx",
        "highest_acked",
        "_recovery_until_tx",
        "rtt",
        "sampler",
        "_rcv_cum",
        "_ooo",
        "_requests",
        "packets_sent",
        "packets_acked",
        "packets_marked_lost",
        "packets_received_unique",
        "rto_count",
        "bytes_acked",
        "_next_request_arrival",
        "_rto_timer",
        "_next_send_time",
        "_send_event_pending",
        "_last_activity",
        "_gap_rate",
        "_gap_usec",
        "_ack_cb",
        "_send_loop_cb",
        "_cca_on_ack",
        "_cca_on_sent",
        "_pool",
        "_pool_max",
    )

    def __init__(
        self,
        engine: CalendarEngine,
        path: Path,
        cca: "CongestionControl",
        service_id: str,
        flow_id: str,
        mss_bytes: int = units.MSS_BYTES,
        server_rate_cap_bps: Optional[float] = None,
    ) -> None:
        self.engine = engine
        self.path = path
        self.cca = cca
        self.service_id = service_id
        self.flow_id = flow_id
        self.mss_bytes = mss_bytes
        self.server_rate_cap_bps = server_rate_cap_bps

        # --- sender state ---
        self._next_seq = 0
        self._pending_packets = 0
        self._committed_packets = 0
        self._inflight: Dict[int, Packet] = {}
        self._order: Deque[Packet] = deque()
        self._rtx_queue: Deque[int] = deque()
        self._tx_counter = 0
        self._highest_acked_tx = -1
        self.highest_acked = -1
        self._recovery_until_tx = -1
        self.rtt = RttEstimator()
        #: Delivery-rate sampler, or None when the controller reads no
        #: rate samples (decided here, once per connection).
        self.sampler = RateSampler() if cca.uses_rate_samples else None

        # --- receiver state ---
        self._rcv_cum = -1
        self._ooo: Set[int] = set()
        self._requests: Deque[Tuple[int, Optional[Callable[[], None]]]] = deque()

        # --- counters ---
        self.packets_sent = 0
        self.packets_acked = 0
        self.packets_marked_lost = 0
        self.packets_received_unique = 0
        self.rto_count = 0
        self.bytes_acked = 0

        # --- timers & pacing ---
        self._next_request_arrival = 0
        self._rto_timer = engine.timer(self._rto_expired)
        self._next_send_time = 0
        self._send_event_pending = False
        self._last_activity = 0
        # Pacing-gap cache: serialization_time_usec(mss, rate) keyed on the
        # current pacing rate (the CCA holds it constant between updates).
        self._gap_rate = -1.0
        self._gap_usec = 0

        # Bound-method caches so per-packet scheduling allocates nothing,
        # and so the per-ACK path skips repeated attribute resolution
        # (cca/rtt/sampler are assigned once, here, and never replaced).
        self._ack_cb = self._handle_ack
        self._send_loop_cb = self._send_loop
        self._cca_on_ack = cca.on_ack
        # None when ``on_sent`` is the base class's empty hook.
        on_sent = cca.on_sent
        self._cca_on_sent = None if getattr(on_sent, "is_noop", False) else on_sent

        # Free list of retired packets (see module docstring).
        self._pool: list = []
        self._pool_max = self.PACKET_POOL_SIZE

        # Per-flow telemetry is sampled off the bottleneck link's probe
        # (repro.netsim.trace.Probe), never from this flow's own events.
        path.link.probe.connections.append(self)

        cca.on_connection_init(self)

    # ------------------------------------------------------------------
    # Application interface
    # ------------------------------------------------------------------

    def request(
        self, nbytes: int, on_complete: Optional[Callable[[], None]] = None
    ) -> None:
        """Client asks the server for ``nbytes``; completes at the client.

        The request crosses the reverse path first (one-way request
        latency), then the server starts sending.  ``on_complete`` fires
        when the final byte has been received *in order* at the client.
        """
        if nbytes <= 0:
            raise ValueError("request size must be positive")
        self._next_request_arrival = self.path.send_reverse_ordered(
            lambda: self._server_write(nbytes, on_complete),
            not_before_usec=self._next_request_arrival,
        )

    def _server_write(
        self, nbytes: int, on_complete: Optional[Callable[[], None]]
    ) -> None:
        npackets = max(1, -(-nbytes // self.mss_bytes))
        end_seq = self._committed_packets + npackets - 1
        self._committed_packets += npackets
        self._pending_packets += npackets
        self._requests.append((end_seq, on_complete))
        now = self.engine.now
        if not self._inflight and self._last_activity:
            idle = now - self._last_activity
            if idle > max(self.rtt.rto_usec, units.msec(200)):
                self.cca.on_idle_restart(self, idle)
        self._try_send()

    @property
    def bytes_received(self) -> int:
        """Unique application bytes delivered to the client."""
        return self.packets_received_unique * self.mss_bytes

    @property
    def inflight_packets(self) -> int:
        return len(self._inflight)

    @property
    def inflight_bytes(self) -> int:
        return len(self._inflight) * self.mss_bytes

    @property
    def in_recovery(self) -> bool:
        return self._highest_acked_tx < self._recovery_until_tx

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------

    def _try_send(self) -> None:
        if self._send_event_pending:
            return
        self._send_loop()

    def _send_loop(self) -> None:
        self._send_event_pending = False
        inflight = self._inflight
        rtx_queue = self._rtx_queue
        # The clock, cwnd and the pacing rate only move between events and
        # in CCA callbacks (ACK, loss, RTO), none of which can run inside
        # this loop, so hoist them.
        now = self.engine.now
        cca = self.cca
        cwnd = cca.cwnd_packets
        # min(rate, cap) written out so equal values pick the same operand.
        pacing = cca.pacing_rate_bps
        cap = self.server_rate_cap_bps
        if pacing is None:
            pacing = cap
        elif cap is not None and cap < pacing:
            pacing = cap
        if pacing is not None and pacing > 0:
            if pacing != self._gap_rate:
                self._gap_rate = pacing
                self._gap_usec = units.serialization_time_usec(
                    self.mss_bytes, pacing
                )
            gap = self._gap_usec
        else:
            # Unpaced; a real gap is at least 1 usec.
            gap = 0
        mss = self.mss_bytes
        sampler = self.sampler
        pool = self._pool
        while (self._pending_packets or rtx_queue) and len(inflight) < cwnd:
            if gap:
                next_send = self._next_send_time
                if now < next_send:
                    self._send_event_pending = True
                    self.engine.schedule_at(next_send, self._send_loop_cb)
                    return
                self._next_send_time = (
                    next_send if next_send > now else now
                ) + gap
            if rtx_queue:
                seq = rtx_queue.popleft()
                is_rtx = True
            else:
                seq = self._next_seq
                self._next_seq = seq + 1
                self._pending_packets -= 1
                is_rtx = False
            if pool:
                # Recycle a retired packet: only fields the free list does
                # not guarantee are reset (flow/size are invariant per
                # connection; tx_index and, where sampled, the sampler
                # snapshot are written below).
                packet = pool.pop()
                packet.seq = seq
                packet.sent_time = now
                packet.is_retransmit = is_rtx
                packet.arrival_time = None
                packet.dequeue_time = None
                packet._chain_done = False
            else:
                packet = Packet(self, seq, mss, now, is_retransmit=is_rtx)
            tx = self._tx_counter
            packet.tx_index = tx
            self._tx_counter = tx + 1
            if sampler is not None:
                sampler.on_sent(packet, now, len(inflight) * mss)
            inflight[seq] = packet
            packet._in_order = True
            self._order.append(packet)
            self.packets_sent += 1
            self._last_activity = now
            if self._cca_on_sent is not None:
                self._cca_on_sent(self, packet)
            self.path.transmit(packet)
            rto_timer = self._rto_timer
            if rto_timer.deadline is None:
                rto_timer.schedule_at(now + self.rtt.rto_usec)
        if (
            sampler is not None
            and not (self._pending_packets or rtx_queue)
            and len(inflight) < cwnd
        ):
            # The sender ran out of data with the window open: mark the
            # sampler app-limited so BBR ignores the lull.
            sampler.mark_app_limited(len(inflight) * mss)

    # ------------------------------------------------------------------
    # Receiver side (client)
    # ------------------------------------------------------------------

    def on_packet_arrived(self, packet: Packet) -> None:
        """Called by the bottleneck link when a data packet reaches the client."""
        seq = packet.seq
        rcv_cum = self._rcv_cum
        if seq == rcv_cum + 1:
            rcv_cum += 1
            self.packets_received_unique += 1
            ooo = self._ooo
            if ooo:
                while (rcv_cum + 1) in ooo:
                    ooo.remove(rcv_cum + 1)
                    rcv_cum += 1
            self._rcv_cum = rcv_cum
            requests = self._requests
            if requests and rcv_cum >= requests[0][0]:
                self._fire_completions()
        elif seq > rcv_cum and seq not in self._ooo:
            self._ooo.add(seq)
            self.packets_received_unique += 1
        else:
            # Duplicate delivery (a retransmission raced the original);
            # nothing new for the application.
            pass
        # ACK every packet (no delayed ACKs: BBR's rate samples want the
        # per-packet signal, and ACKs are free on the reverse path).
        self.path.send_reverse(self._ack_cb, packet)

    def on_packet_dropped(self, packet: Packet) -> None:
        """Tail drop at the bottleneck; TCP learns about it via dupacks."""
        # The packet's event chain ends here; loss detection (which still
        # holds it in ``_order``/``_inflight``) may now recycle it.
        packet._chain_done = True

    def _fire_completions(self) -> None:
        while self._requests and self._rcv_cum >= self._requests[0][0]:
            _end, callback = self._requests.popleft()
            if callback is not None:
                callback()

    # ------------------------------------------------------------------
    # ACK processing & loss detection (sender)
    # ------------------------------------------------------------------

    def _handle_ack(self, packet: Packet) -> None:
        """Per-ACK bookkeeping: RTT sample, rate sample, CCA callback,
        loss detection, RTO rearm, send restart.

        Loss detection and the RTO rearm are written out in this frame
        and exist nowhere else in ``src/``
        (``tests/naive_loss_detection.py`` holds the differential oracle
        for the former).
        """
        now = self.engine.now
        self._last_activity = now
        seq = packet.seq
        inflight = self._inflight
        current = inflight.get(seq)
        if current is packet:
            del inflight[seq]
            self.packets_acked += 1
            self.bytes_acked += packet.size_bytes
            rtt_sample = now - packet.sent_time
            if not packet.is_retransmit:
                # rtt_sample > 0: the path's propagation delay is positive.
                self.rtt.on_rtt_sample(rtt_sample)
            sampler = self.sampler
            rate_sample = (
                None if sampler is None
                else sampler.on_ack(packet, now, rtt_sample)
            )
            self._cca_on_ack(self, packet, rtt_sample, rate_sample)
        if seq > self.highest_acked:
            self.highest_acked = seq
        tx = packet.tx_index
        if tx > self._highest_acked_tx:
            self._highest_acked_tx = tx
        # This ACK is the end of the packet's event chain.
        packet._chain_done = True
        was_in_order = packet._in_order
        # SACK-style loss marking in *transmission* order.  The path is
        # FIFO, so once a transmission is acknowledged every earlier one
        # has either arrived or been dropped; the classic 3-packet
        # reordering tolerance (dupthresh) applies before a hole is
        # declared lost, matching fast-retransmit timing.  Every in-order
        # ACK walks this loop to retire its own packet.
        order = self._order
        if order:
            threshold = self._highest_acked_tx - DUPTHRESH
            pool = self._pool
            pool_max = self._pool_max
            while order:
                pkt = order[0]
                pkt_seq = pkt.seq
                live = inflight.get(pkt_seq)
                if live is not pkt:
                    # Already acknowledged (or superseded by a retransmission).
                    order.popleft()
                    pkt._in_order = False
                    if pkt._chain_done and len(pool) < pool_max:
                        pool.append(pkt)
                    continue
                if pkt.tx_index <= threshold:
                    order.popleft()
                    pkt._in_order = False
                    del inflight[pkt_seq]
                    self._rtx_queue.append(pkt_seq)
                    self.packets_marked_lost += 1
                    self._on_loss(pkt_seq)
                    # A marked-lost packet with a finished chain was
                    # dropped at the bottleneck; nothing else can
                    # reference it.  (A chain still in flight - ACK-dither
                    # reordering or an upstream loss - keeps the packet
                    # out of the pool.)
                    if pkt._chain_done and len(pool) < pool_max:
                        pool.append(pkt)
                else:
                    break
        # Rearm the RTO (inlined Timer.schedule_at): with the lazy timer
        # this is just a deadline store on the common path, because the
        # single heap event already exists while data is outstanding.
        rto_timer = self._rto_timer
        if inflight or self._rtx_queue:
            when = now + self.rtt.rto_usec
            rto_timer.deadline = when
            if rto_timer._event_at is None:
                rto_timer._event_at = when
                self.engine.schedule_at(when, rto_timer._fire)
        else:
            rto_timer.deadline = None
        if not self._send_event_pending:
            self._send_loop()
        # Recycle: safe only if loss detection could not have freed it
        # above (it never saw the packet if it was not in ``_order``) and
        # it is not the live in-flight entry for this sequence number.
        if not was_in_order and inflight.get(seq) is not packet:
            pool = self._pool
            if len(pool) < self._pool_max:
                pool.append(packet)

    def _on_loss(self, seq: int) -> None:
        if not self.in_recovery:
            # Recovery lasts until a transmission issued after this point
            # is acknowledged (one loss event per window of data).
            self._recovery_until_tx = self._tx_counter - 1
            self.cca.on_loss_event(self, self.engine.now)

    # ------------------------------------------------------------------
    # RTO
    # ------------------------------------------------------------------

    def _rto_expired(self) -> None:
        """The engine Timer's deadline truly expired (not superseded)."""
        if not self._inflight:
            return
        now = self.engine.now
        # Timeout: everything outstanding is presumed lost.
        self.rto_count += 1
        self.rtt.backoff()
        inflight = self._inflight
        order = self._order
        pool = self._pool
        pool_max = self._pool_max
        lost = sorted(inflight)
        for pkt in order:
            pkt._in_order = False
            if (
                pkt._chain_done
                and inflight.get(pkt.seq) is not pkt
                and len(pool) < pool_max
            ):
                pool.append(pkt)
        order.clear()
        existing = set(self._rtx_queue)
        for seq in lost:
            if seq not in existing:
                self._rtx_queue.append(seq)
        for pkt in inflight.values():
            if pkt._chain_done and len(pool) < pool_max:
                pool.append(pkt)
        inflight.clear()
        self.packets_marked_lost += len(lost)
        self._recovery_until_tx = self._tx_counter - 1
        self.cca.on_rto(self, now)
        self._next_send_time = now
        self._try_send()
