"""Reference oracle: BBRv1's per-ACK update as a chain of named steps.

``BBRv1.on_ack`` runs this sequence flattened into one call frame (the
frames it saves are worth over 2% of a cold cycle, DESIGN.md section 6),
and ``src/`` holds only that flat body.  The step-by-step form it was
flattened from lives here, as the differential oracle
``tests/test_bbr_internals.py`` drives beside it: every model field must
agree after every ACK.  The steps still call the controller's own
helpers (``_enter_probe_bw``, ``_advance_cycle_if_due``,
``_handle_probe_rtt``, ``_update_cwnd``, ``_bdp_packets``), which the
flat body calls too.
"""

from repro import units
from repro.cca.bbr import DRAIN, PROBE_BW, PROBE_RTT, STARTUP


def update_round(cca, conn, packet) -> None:
    if packet.delivered >= cca._next_round_delivered:
        cca._next_round_delivered = conn.sampler.delivered
        cca._round_count += 1
        cca._round_start = True
    else:
        cca._round_start = False


def update_btlbw(cca, rate_sample) -> None:
    if rate_sample.delivery_rate_bps <= 0:
        return
    if cca._state == DRAIN and (
        rate_sample.delivery_rate_bps < cca._btlbw.get()
    ):
        # Drain deliberately under-paces; letting its low samples age
        # the max filter out collapses the model before PROBE_BW ever
        # starts (the window is only 10 rounds).
        return
    if (
        rate_sample.delivery_rate_bps >= cca._btlbw.get()
        or not rate_sample.is_app_limited
    ):
        cca._btlbw.update(rate_sample.delivery_rate_bps, cca._round_count)


def update_min_rtt(cca, now: int, rtt_usec: int) -> bool:
    """Update the RTprop filter; returns True if the window expired."""
    expired = now - cca._min_rtt_stamp > cca.params.min_rtt_window_usec
    if cca._min_rtt_usec is None or rtt_usec <= cca._min_rtt_usec or expired:
        cca._min_rtt_usec = rtt_usec
        cca._min_rtt_stamp = now
    return expired


def check_full_pipe(cca, rate_sample) -> None:
    if cca._filled_pipe or not cca._round_start or rate_sample.is_app_limited:
        return
    bw = cca._btlbw.get()
    if bw >= cca._full_bw * cca.params.full_bw_threshold:
        cca._full_bw = bw
        cca._full_bw_count = 0
        return
    cca._full_bw_count += 1
    if cca._full_bw_count >= cca.params.full_bw_rounds:
        cca._filled_pipe = True


def maybe_enter_probe_rtt(cca, min_rtt_expired: bool) -> None:
    if cca._state == PROBE_RTT:
        return
    if cca._min_rtt_usec is None:
        return
    if min_rtt_expired:
        cca._state = PROBE_RTT
        cca._pacing_gain = 1.0
        cca._cwnd_gain = 1.0
        cca._probe_rtt_done_stamp = None


def update_state_machine(cca, conn, now: int, min_rtt_expired: bool) -> None:
    params = cca.params
    if cca._state == STARTUP and cca._filled_pipe:
        cca._state = DRAIN
        cca._drain_start_usec = now
        cca._pacing_gain = params.drain_gain
        cca._cwnd_gain = params.high_gain
    if cca._state == DRAIN:
        srtt = conn.rtt.srtt_usec or units.msec(100)
        drain_timed_out = (
            cca._drain_start_usec is not None
            and now - cca._drain_start_usec > 3 * srtt
        )
        if conn.inflight_packets <= cca._bdp_packets() or drain_timed_out:
            cca._enter_probe_bw(now)
    if cca._state == PROBE_BW:
        cca._advance_cycle_if_due(conn, now)
    maybe_enter_probe_rtt(cca, min_rtt_expired)
    if cca._state == PROBE_RTT:
        cca._handle_probe_rtt(conn, now)


def reference_on_ack(cca, conn, packet, rtt_usec, rate_sample) -> None:
    """The seed code's per-ACK chain, one named step at a time."""
    now = conn.engine.now
    update_round(cca, conn, packet)
    update_btlbw(cca, rate_sample)
    expired = update_min_rtt(cca, now, rtt_usec)
    check_full_pipe(cca, rate_sample)
    update_state_machine(cca, conn, now, expired)
    cca._update_cwnd(conn)
