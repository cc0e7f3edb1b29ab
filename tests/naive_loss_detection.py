"""Reference oracle: loss detection as its own step of the ACK path.

``Connection._handle_ack`` carries SACK-style loss marking written out
in its own frame (every in-order ACK walks it to retire its packet, so
the call it saves is paid per packet), and ``src/`` holds only that
copy.  :func:`detect_losses` is the method body ``Connection`` carried
up to PR 17, verbatim, and :class:`ReferenceConnection` is a connection
whose ACK path is the seed code's sequence of calls around it;
``tests/test_loss_detection_oracle.py`` drives both through generated
ACK orders and holds the flat path to this one, step for step.
"""

from repro.transport.connection import DUPTHRESH, Connection


def detect_losses(conn) -> None:
    """SACK-style loss marking in *transmission* order.

    The path is FIFO, so once a transmission is acknowledged every
    earlier transmission must have either arrived or been dropped.  We
    keep the classic 3-packet reordering tolerance (dupthresh) before
    declaring a hole lost, matching fast-retransmit timing.
    """
    order = conn._order
    if not order:
        return
    threshold = conn._highest_acked_tx - DUPTHRESH
    inflight = conn._inflight
    pool = conn._pool
    pool_max = conn._pool_max
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
            conn._rtx_queue.append(pkt_seq)
            conn.packets_marked_lost += 1
            conn._on_loss(pkt_seq)
            # A marked-lost packet with a finished chain was dropped at
            # the bottleneck; nothing else can reference it.  (A chain
            # still in flight - ACK-dither reordering or an upstream
            # loss - keeps the packet out of the pool.)
            if pkt._chain_done and len(pool) < pool_max:
                pool.append(pkt)
        else:
            break


class ReferenceConnection(Connection):
    """A connection whose per-ACK path is one call per sub-step."""

    def _handle_ack(self, packet) -> None:
        now = self.engine.now
        self._last_activity = now
        seq = packet.seq
        if self._inflight.get(seq) is packet:
            del self._inflight[seq]
            self.packets_acked += 1
            self.bytes_acked += packet.size_bytes
            rtt_sample = now - packet.sent_time
            if not packet.is_retransmit:
                self.rtt.on_rtt_sample(rtt_sample)
            rate_sample = (
                None if self.sampler is None
                else self.sampler.on_ack(packet, now, rtt_sample)
            )
            self.cca.on_ack(self, packet, rtt_sample, rate_sample)
        self.highest_acked = max(self.highest_acked, seq)
        self._highest_acked_tx = max(self._highest_acked_tx, packet.tx_index)
        packet._chain_done = True
        was_in_order = packet._in_order
        detect_losses(self)
        self._rearm_rto(now)
        self._try_send()
        if (
            not was_in_order
            and self._inflight.get(seq) is not packet
            and len(self._pool) < self._pool_max
        ):
            self._pool.append(packet)

    def _rearm_rto(self, now: int) -> None:
        # The same direct deadline stores as the flat path: the timer is
        # not what this oracle is about.
        timer = self._rto_timer
        if self._inflight or self._rtx_queue:
            when = now + self.rtt.rto_usec
            timer.deadline = when
            if timer._event_at is None:
                timer._event_at = when
                self.engine.schedule_at(when, timer._fire)
        else:
            timer.deadline = None
