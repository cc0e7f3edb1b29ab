"""The packet trace and the sim-clock probe that samples the link.

The Prudentia website publishes "bottleneck queue logs and client PCAPs for
every experiment".  :class:`PacketTrace` is the client PCAP, with the
bottleneck's tail drops beside its deliveries; the queue log is the
flight recorder's queue channel (:mod:`repro.obs.flight`), a subscriber of
:class:`Probe`.  The trace stores its rows **columnar** - parallel
``array('q')`` buffers plus an interned service-id table - so the
per-packet hot path appends machine integers instead of allocating a
Python tuple per record.  Rows are only materialised when something asks
for them (``to_json()``, ``records``, ``drop_events``), which is once per
trial rather than once per packet.

The trace is a *recorder*: like the flight recorder, it has an
``attach(link)`` and records only once a trial attaches it (the trial
core's ``recorders=``); a trial with none records nothing.

:class:`Probe` is the single answer to "when is the simulator observed":
the flight recorder's queue channel and the early-stop rule are
subscribers of the bottleneck link's probe, and nothing else samples on
the sim clock.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple


class Probe:
    """Periodic observation of one bottleneck link, with zero engine events.

    Subscribers are ``fn(now, link)`` callables with a period each.  The
    link holds one deadline integer and calls :meth:`fire` from ``send``
    once the clock reaches it, so a subscriber runs at the first send at
    or after each boundary of *its own* period grid (``0, P, 2P, ...``).
    Re-arming on the grid rather than at ``now + P`` is what keeps a
    sampler from drifting forward by one inter-arrival gap per sample
    under bursty arrivals.  Subscribers run in subscription order and only
    read, so heap sequence numbers, tie-breaks and RNG draws - and with
    them every simulation output - are the same whoever is subscribed.

    Attributes:
        connections: every flow created on a path through this link, in
            creation order (flows register themselves; subscribers that
            sample per-flow state iterate this).
        window_open_usec: when the measurement window opened
            (``BottleneckLink.reset_stats``), ``None`` before that.
        labels: the ``meta`` dicts of attached recorders that label their
            output with the trial (the flight recorder's); the trial core
            fills each with the trial's service ids, bandwidth, buffer and
            seed, keeping any key a recorder already has.
    """

    __slots__ = ("connections", "window_open_usec", "labels", "_subscribers")

    #: Deadline of a probe with nothing subscribed: later than any
    #: representable sim time, so the link's gate stays one false compare.
    IDLE = 1 << 62

    def __init__(self) -> None:
        self.connections: List[Any] = []
        self.window_open_usec: Optional[int] = None
        self.labels: List[Dict[str, Any]] = []
        # [due_usec, period_usec, fn] per subscriber, in subscription order.
        self._subscribers: List[list] = []

    def subscribe(self, period_usec: int, fn: Callable[[int, Any], None]) -> int:
        """Add a subscriber, due at once; returns the new deadline, like
        :meth:`fire` (``BottleneckLink.subscribe`` stores it)."""
        if period_usec < 1:
            raise ValueError("probe period must be positive")
        self._subscribers.append([0, period_usec, fn])
        return 0

    def fire(self, now: int, link: Any) -> int:
        """Run every due subscriber; return the next deadline."""
        deadline = self.IDLE
        for sub in self._subscribers:
            if now >= sub[0]:
                period = sub[1]
                sub[0] = (now // period + 1) * period
                sub[2](now, link)
            if sub[0] < deadline:
                deadline = sub[0]
        return deadline


class PacketTrace:
    """Per-packet delivery records and tail drops for one experiment
    ("client PCAP").

    Recording every packet is expensive, so a trace records only on a link
    it is attached to (the time-series figures and artifact publication
    attach one; bulk heatmap sweeps do not).  Each logical record is
    ``(deliver_time_usec, service_id, size_bytes)``, stored as three
    parallel columns with service ids interned to small integers; each
    tail drop at the bottleneck is ``(drop_time_usec, service_id)``, two
    more columns sharing the same service-id table.

    ``throughput_series``/``bytes_delivered`` consult a lazily built
    per-service index (row positions per service id) instead of rescanning
    every record on each call; the index is invalidated by new records and
    rebuilt in one pass.
    """

    __slots__ = (
        "_times",
        "_sizes",
        "_codes",
        "_drop_times",
        "_drop_codes",
        "_sids",
        "_code_of",
        "_index",
    )

    def __init__(self) -> None:
        self._times = array("q")
        self._sizes = array("q")
        self._codes = array("q")
        self._drop_times = array("q")
        self._drop_codes = array("q")
        self._sids: List[str] = []  # code -> service_id
        self._code_of: Dict[str, int] = {}
        # service_id -> (times array, sizes array); None when stale.
        self._index: Optional[Dict[str, Tuple[array, array]]] = None

    def __len__(self) -> int:
        return len(self._times)

    def attach(self, link: Any) -> None:
        """Record every packet ``link`` delivers or tail-drops."""
        link.trace = self

    @property
    def records(self) -> List[Tuple[int, str, int]]:
        """Materialised ``(time, service_id, size)`` rows, oldest first."""
        sids = self._sids
        return [
            (when, sids[code], size)
            for when, code, size in zip(self._times, self._codes, self._sizes)
        ]

    @property
    def drop_events(self) -> List[Tuple[int, str]]:
        """Materialised ``(time, service_id)`` tail drops, oldest first."""
        sids = self._sids
        return [
            (when, sids[code])
            for when, code in zip(self._drop_times, self._drop_codes)
        ]

    def _intern(self, service_id: str) -> int:
        """The integer code of a service id not seen before."""
        code = self._code_of[service_id] = len(self._sids)
        self._sids.append(service_id)
        return code

    def record(self, now: int, service_id: str, size_bytes: int) -> None:
        """Record one delivered packet."""
        code = self._code_of.get(service_id)
        if code is None:
            code = self._intern(service_id)
        self._times.append(now)
        self._codes.append(code)
        self._sizes.append(size_bytes)
        self._index = None

    def record_drop(self, now: int, service_id: str) -> None:
        """Record one packet tail-dropped at the bottleneck."""
        code = self._code_of.get(service_id)
        if code is None:
            code = self._intern(service_id)
        self._drop_times.append(now)
        self._drop_codes.append(code)

    def _service_columns(self, service_id: str) -> Tuple[array, array]:
        """(times, sizes) columns for one service, via the lazy index."""
        index = self._index
        if index is None:
            index = {}
            sids = self._sids
            for when, code, size in zip(self._times, self._codes, self._sizes):
                columns = index.get(sids[code])
                if columns is None:
                    columns = index[sids[code]] = (array("q"), array("q"))
                columns[0].append(when)
                columns[1].append(size)
            self._index = index
        return index.get(service_id, (array("q"), array("q")))

    def throughput_series(
        self,
        service_id: str,
        bin_usec: int = 1_000_000,
        start_usec: int = 0,
        end_usec: Optional[int] = None,
    ) -> Tuple[List[float], List[float]]:
        """Binned throughput (seconds, Mbps) for one service.

        Returns empty series when no record matches the service/window
        (historically this produced one spurious zero-valued bin).
        """
        if bin_usec < 1:
            raise ValueError("bin width must be positive")
        times, sizes = self._service_columns(service_id)
        bins: Dict[int, int] = {}
        last = 0
        for when, size in zip(times, sizes):
            if when < start_usec:
                continue
            if end_usec is not None and when >= end_usec:
                continue
            index = (when - start_usec) // bin_usec
            bins[index] = bins.get(index, 0) + size
            last = max(last, index)
        if not bins:
            return [], []
        out_times = [(i * bin_usec + start_usec) / 1e6 for i in range(last + 1)]
        rates = [bins.get(i, 0) * 8.0 / bin_usec for i in range(last + 1)]
        return out_times, rates

    def bytes_delivered(
        self,
        service_id: str,
        start_usec: int = 0,
        end_usec: Optional[int] = None,
    ) -> int:
        """Total bytes delivered to ``service_id`` within a window."""
        times, sizes = self._service_columns(service_id)
        total = 0
        for when, size in zip(times, sizes):
            if when < start_usec:
                continue
            if end_usec is not None and when >= end_usec:
                continue
            total += size
        return total

    def to_json(self) -> Dict:
        """Serialise the trace for artifact publication."""
        return {"records": self.records, "drop_events": self.drop_events}
