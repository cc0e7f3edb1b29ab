"""The congestion-control interface consumed by ``transport.Connection``.

A controller exposes a congestion window (in packets) and an optional
pacing rate; the connection calls back into it on sends, ACKs, loss events
(once per recovery episode), RTOs, and idle restarts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..transport.rate_sampler import RateSample

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..netsim.packet import Packet
    from ..transport.connection import Connection


class CongestionControl:
    """Base congestion controller: fixed window, no pacing.

    Subclasses override the event hooks and the two control outputs
    (:attr:`cwnd_packets`, :attr:`pacing_rate_bps`).  The base class is a
    usable 'fixed window' controller, handy in tests.
    """

    name = "fixed"

    #: Whether this controller reads delivery-rate samples.  A subclass
    #: that sets it ``False`` promises that none of its methods touches
    #: the ``rate_sample`` argument of :meth:`on_ack` (it receives
    #: ``None``), ``conn.sampler`` (also ``None``), or a packet's
    #: ``delivered`` / ``delivered_time`` / ``first_sent_time`` /
    #: ``is_app_limited`` snapshot (never written): the connection then
    #: skips the sampler on every send and ACK.  The default is the safe
    #: one; ``tests/test_rate_sample_optout.py`` holds controllers to it.
    uses_rate_samples = True

    def __init__(self, cwnd_packets: float = 10.0) -> None:
        #: Congestion window in packets.  A plain attribute rather than a
        #: property: the connection send loop reads it on every ACK, and a
        #: property descriptor would add a call frame to that hot path.
        self.cwnd_packets = float(cwnd_packets)

    # --- control outputs -------------------------------------------------

    @property
    def pacing_rate_bps(self) -> Optional[float]:
        """Pacing rate in bits/sec, or None for pure ACK clocking."""
        return None

    # --- introspection ----------------------------------------------------

    def flight_state(self) -> "tuple[str, float, float]":
        """Read-only state for the flight recorder (never mutates).

        Returns ``(phase, aux1, aux2)``: a short phase name plus two
        controller-specific scalars (JSON-safe: implementations encode
        ``inf``/``None`` as ``-1.0``).  Called only at sampling-grid
        boundaries, off the per-ACK fast path.
        """
        return ("steady", 0.0, 0.0)

    # --- event hooks ------------------------------------------------------

    def on_connection_init(self, conn: "Connection") -> None:
        """Connection attached; capture whatever per-flow state is needed."""

    def on_sent(self, conn: "Connection", packet: "Packet") -> None:
        """A data packet entered the network."""

    #: Lets the connection skip the per-packet call while no subclass
    #: overrides the hook (an override does not carry the marker).
    on_sent.is_noop = True

    def on_ack(
        self,
        conn: "Connection",
        packet: "Packet",
        rtt_usec: int,
        rate_sample: RateSample,
    ) -> None:
        """A data packet was cumulatively/selectively acknowledged."""

    def on_loss_event(self, conn: "Connection", now: int) -> None:
        """Entering a loss-recovery episode (fires once per episode)."""

    def on_rto(self, conn: "Connection", now: int) -> None:
        """Retransmission timeout fired."""

    def on_idle_restart(self, conn: "Connection", idle_usec: int) -> None:
        """Sender resumes after an application-limited idle period."""
