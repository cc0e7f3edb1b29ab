"""BBRv1 congestion control (Cardwell et al., with the Linux state machine).

The paper repeatedly finds that *which build* of BBR a service runs changes
fairness (Observation 13: Linux 4.15 vs 5.15, YouTube's QUIC tuning), so
the implementation is parameterised: :data:`BBR_LINUX_4_15` is the classic
v1 machine, :data:`BBR_LINUX_5_15` adds the packet-conservation-in-recovery
behaviour the kernel grew over time, and :data:`BBR_YOUTUBE_QUIC_2023`
models the calmer gains Google deployed to YouTube's QUIC stack.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from typing import Optional

from .. import units
from ..transport.connection import INITIAL_WINDOW
from ..transport.rate_sampler import RateSample
from ..transport.windowed_filter import WindowedMaxFilter
from .base import CongestionControl

#: BBR's startup/drain gain: 2/ln(2).
HIGH_GAIN = 2.0 / math.log(2.0)

STARTUP = "startup"
DRAIN = "drain"
PROBE_BW = "probe_bw"
PROBE_RTT = "probe_rtt"


@dataclass(frozen=True)
class BBRParams:
    """Tunable constants distinguishing BBR builds."""

    label: str = "bbr"
    high_gain: float = HIGH_GAIN
    drain_gain: float = 1.0 / HIGH_GAIN
    cwnd_gain_probe: float = 2.0
    pacing_gain_up: float = 1.25
    pacing_gain_down: float = 0.75
    cycle_length: int = 8
    btlbw_window_rounds: int = 10
    min_rtt_window_usec: int = units.seconds(10)
    probe_rtt_interval_usec: int = units.seconds(10)
    probe_rtt_duration_usec: int = units.msec(200)
    min_cwnd_packets: float = 4.0
    full_bw_threshold: float = 1.25
    full_bw_rounds: int = 3
    #: Linux >= ~4.19 behaviour: during loss recovery, bound the window by
    #: what packet conservation would allow (makes BBR measurably kinder to
    #: loss-based competitors - the Fig 9b effect).
    recovery_packet_conservation: bool = False


BBR_LINUX_4_15 = BBRParams(label="bbr-linux4.15")
BBR_LINUX_5_15 = BBRParams(
    label="bbr-linux5.15", recovery_packet_conservation=True
)
#: YouTube's 2022-era QUIC stack: timid gains that ceded throughput to
#: kernel BBR (the 'before' bar of Fig 9a).
BBR_YOUTUBE_QUIC_2022 = BBRParams(
    label="bbr-youtube-quic-2022",
    cwnd_gain_probe=1.33,
    pacing_gain_up=1.1,
)
#: YouTube's 2023 QUIC-stack tuning (Observation 13): standard v1 gains
#: restored, so YouTube claims its share against iPerf BBR; the service
#: stays uncontentious because of its ABR, not its CCA (Observation 2).
BBR_YOUTUBE_QUIC_2023 = replace(
    BBR_LINUX_5_15, label="bbr-youtube-quic-2023"
)


class BBRv1(CongestionControl):
    """Model-based congestion control: pace at the estimated bottleneck
    bandwidth, cap inflight at ``cwnd_gain x BDP``."""

    name = "bbr"

    def __init__(
        self,
        params: BBRParams = BBR_LINUX_4_15,
        seed: int = 0,
    ) -> None:
        super().__init__(float(INITIAL_WINDOW))
        self.params = params
        self.name = params.label
        self._rng = random.Random(seed)
        self._state = STARTUP
        self._btlbw = WindowedMaxFilter(params.btlbw_window_rounds)
        self._min_rtt_usec: Optional[int] = None
        self._min_rtt_stamp = 0
        self._full_bw = 0.0
        self._full_bw_count = 0
        self._filled_pipe = False
        self._round_count = 0
        self._next_round_delivered = 0
        self._round_start = False
        self._pacing_gain = params.high_gain
        self._cwnd_gain = params.high_gain
        self._cycle_index = 0
        self._cycle_stamp = 0
        self._probe_rtt_done_stamp: Optional[int] = None
        self._conservation_until_round = -1
        self._drain_start_usec: Optional[int] = None
        self._mss = units.MSS_BYTES

    # ------------------------------------------------------------------
    # Control outputs
    # ------------------------------------------------------------------

    @property
    def pacing_rate_bps(self) -> Optional[float]:
        # Read once per _send_loop: .best is the filter's frame-free
        # mirror of .get().
        bw = self._btlbw.best
        if bw <= 0:
            return None
        return self._pacing_gain * bw

    @property
    def state(self) -> str:
        return self._state

    def flight_state(self) -> "tuple[str, float, float]":
        # .best mirrors .get() without a call frame; _min_rtt_usec may
        # still be unset during the first round.
        min_rtt = self._min_rtt_usec
        return (
            self._state,
            self._btlbw.best,
            -1.0 if min_rtt is None else float(min_rtt),
        )

    @property
    def btlbw_bps(self) -> float:
        return self._btlbw.get()

    @property
    def min_rtt_usec(self) -> Optional[int]:
        return self._min_rtt_usec

    def _bdp_packets(self, gain: float = 1.0) -> float:
        bw = self._btlbw.best
        if bw <= 0 or self._min_rtt_usec is None:
            return float(INITIAL_WINDOW)
        bdp = bw * self._min_rtt_usec / units.USEC_PER_SEC / 8.0 / self._mss
        return gain * bdp

    def warm_start(self, btlbw_bps: float, min_rtt_usec: int) -> None:
        """Seed the model from a previous connection to the same peer.

        Models server-side per-destination metric caching (Linux
        ``tcp_metrics``-style): a fresh connection in Mega's next batch
        does not rediscover the path from scratch but starts its STARTUP
        probing from the previous batch's bandwidth estimate - which is
        what makes each batch open with a violent, line-rate burst.
        """
        if btlbw_bps > 0:
            self._btlbw.reset(btlbw_bps, self._round_count)
        if min_rtt_usec > 0:
            self._min_rtt_usec = min_rtt_usec
            # The window stamp stays at connection-init time so the usual
            # 10 s expiry/ProbeRTT discipline still applies.

    # ------------------------------------------------------------------
    # Event hooks
    # ------------------------------------------------------------------

    def on_connection_init(self, conn) -> None:
        self._mss = conn.mss_bytes
        self._cycle_stamp = conn.engine.now
        self._min_rtt_stamp = conn.engine.now

    def on_ack(self, conn, packet, rtt_usec: int, rate_sample: RateSample) -> None:
        """The whole per-ACK update in one call frame.

        Round accounting, the bandwidth and min-RTT filters, full-pipe
        detection and the state machine run back to back here (DESIGN.md,
        "Per-ACK CCA path": the frame per step this saves is worth over
        2% of a cold cycle).  This is the only implementation in ``src/``;
        the step-by-step chain it was flattened from lives in
        ``tests/naive_bbr.py`` and must stay bit-identical with it, ACK
        for ACK.  ``_update_cwnd`` stays a method: BBRv3 overrides it.
        """
        now = conn.engine.now
        params = self.params

        # --- round accounting ---
        if packet.delivered >= self._next_round_delivered:
            self._next_round_delivered = conn.sampler.delivered
            self._round_count += 1
            round_start = True
        else:
            round_start = False
        self._round_start = round_start

        # --- bottleneck-bandwidth filter ---
        btlbw = self._btlbw
        state = self._state
        rate = rate_sample.delivery_rate_bps
        if rate > 0:
            current_bw = btlbw.best
            if state == DRAIN and rate < current_bw:
                # Drain deliberately under-paces; letting its low samples
                # age the max filter out collapses the model before
                # PROBE_BW ever starts (the window is only 10 rounds).
                pass
            elif rate >= current_bw or not rate_sample.is_app_limited:
                btlbw.update(rate, self._round_count)

        # --- min-RTT filter ---
        # Window expiry both accepts the (likely inflated) current sample
        # and, below, triggers PROBE_RTT so the queue drains and a genuine
        # propagation sample is taken, as in Linux.
        min_rtt = self._min_rtt_usec
        min_rtt_expired = now - self._min_rtt_stamp > params.min_rtt_window_usec
        if min_rtt is None or rtt_usec <= min_rtt or min_rtt_expired:
            self._min_rtt_usec = rtt_usec
            self._min_rtt_stamp = now

        # --- full-pipe detection ---
        if not self._filled_pipe and round_start and not rate_sample.is_app_limited:
            bw = btlbw.best
            if bw >= self._full_bw * params.full_bw_threshold:
                self._full_bw = bw
                self._full_bw_count = 0
            else:
                self._full_bw_count += 1
                if self._full_bw_count >= params.full_bw_rounds:
                    self._filled_pipe = True

        # --- state machine ---
        if state == STARTUP and self._filled_pipe:
            self._state = state = DRAIN
            self._drain_start_usec = now
            self._pacing_gain = params.drain_gain
            self._cwnd_gain = params.high_gain
        if state == DRAIN:
            srtt = conn.rtt.srtt_usec or units.msec(100)
            drain_timed_out = (
                self._drain_start_usec is not None
                and now - self._drain_start_usec > 3 * srtt
            )
            if conn.inflight_packets <= self._bdp_packets() or drain_timed_out:
                self._enter_probe_bw(now)
                state = self._state
        if state == PROBE_BW:
            self._advance_cycle_if_due(conn, now)
        # --- ProbeRTT entry/exit ---
        if state != PROBE_RTT:
            if self._min_rtt_usec is not None and min_rtt_expired:
                self._state = PROBE_RTT
                self._pacing_gain = 1.0
                self._cwnd_gain = 1.0
                self._probe_rtt_done_stamp = None
        if self._state == PROBE_RTT:
            self._handle_probe_rtt(conn, now)

        self._update_cwnd(conn)

    def _enter_probe_bw(self, now: int) -> None:
        self._state = PROBE_BW
        self._cwnd_gain = self.params.cwnd_gain_probe
        # Start anywhere in the cycle except the 0.75 (drain) phase.
        self._cycle_index = self._rng.randrange(self.params.cycle_length - 1)
        if self._cycle_index >= 1:
            self._cycle_index += 1
        self._cycle_stamp = now
        self._set_cycle_gain()

    def _set_cycle_gain(self) -> None:
        params = self.params
        if self._cycle_index == 0:
            self._pacing_gain = params.pacing_gain_up
        elif self._cycle_index == 1:
            self._pacing_gain = params.pacing_gain_down
        else:
            self._pacing_gain = 1.0

    def _advance_cycle_if_due(self, conn, now: int) -> None:
        if self._min_rtt_usec is None:
            return
        elapsed = now - self._cycle_stamp
        due = elapsed > self._min_rtt_usec
        if self._cycle_index == 0:
            # Keep probing until the pipe is actually fuller (or a loss
            # forced retransmissions), as Linux does.
            if not due:
                return
            if conn.inflight_packets < self._bdp_packets(
                self.params.pacing_gain_up
            ) and not conn.in_recovery:
                return
        elif self._cycle_index == 1:
            # The drain phase may end early once inflight reaches the BDP.
            if not due and conn.inflight_packets > self._bdp_packets():
                return
        elif not due:
            return
        self._cycle_index = (self._cycle_index + 1) % self.params.cycle_length
        self._cycle_stamp = now
        self._set_cycle_gain()

    def _handle_probe_rtt(self, conn, now: int) -> None:
        if self._probe_rtt_done_stamp is None:
            if conn.inflight_packets <= self.params.min_cwnd_packets:
                self._probe_rtt_done_stamp = (
                    now + self.params.probe_rtt_duration_usec
                )
                self._min_rtt_stamp = now
        elif now >= self._probe_rtt_done_stamp:
            self._exit_probe_rtt(now)

    def _exit_probe_rtt(self, now: int) -> None:
        if self._filled_pipe:
            self._enter_probe_bw(now)
        else:
            self._state = STARTUP
            self._pacing_gain = self.params.high_gain
            self._cwnd_gain = self.params.high_gain

    def _update_cwnd(self, conn) -> None:
        params = self.params
        if self._state == PROBE_RTT:
            self.cwnd_packets = params.min_cwnd_packets
            return
        # Inlined _bdp_packets(self._cwnd_gain): this runs once per ACK
        # (virtually dispatched from the flattened on_ack).
        bw = self._btlbw.best
        min_rtt = self._min_rtt_usec
        if bw <= 0 or min_rtt is None:
            scaled_bdp = float(INITIAL_WINDOW)
        else:
            scaled_bdp = self._cwnd_gain * (
                bw * min_rtt / units.USEC_PER_SEC / 8.0 / self._mss
            )
        target = max(scaled_bdp, params.min_cwnd_packets)
        if (
            params.recovery_packet_conservation
            and self._round_count <= self._conservation_until_round
        ):
            target = min(
                target,
                max(float(conn.inflight_packets + 1), params.min_cwnd_packets),
            )
        self.cwnd_packets = target

    def on_loss_event(self, conn, now: int) -> None:
        if self.params.recovery_packet_conservation:
            self._conservation_until_round = self._round_count + 1

    def on_rto(self, conn, now: int) -> None:
        # Linux BBR collapses to a minimal window on RTO and rebuilds from
        # its (retained) model once delivery resumes.
        self.cwnd_packets = self.params.min_cwnd_packets
        self._conservation_until_round = self._round_count + 1

    def on_idle_restart(self, conn, idle_usec: int) -> None:
        # BBR retains its model across idle periods; pacing prevents a
        # line-rate burst, so nothing to do.
        pass
