"""Discrete-event engine with an integer-microsecond clock.

Events are ``(time, sequence, callback, arg)`` 4-tuples; the sequence
number makes ordering of same-time events deterministic (FIFO in
scheduling order), which keeps whole simulations bit-reproducible for a
given seed.

:class:`CalendarEngine` is the one scheduler core: a calendar queue
(rotating array of time buckets, per-day sorted dispatch, overflow heap
for far-future events), O(1) amortized per op, with a day width fixed at
construction (:func:`day_shift` sizes it from the link rate).
It dispatches in exactly the ``(time, seq)`` order of a binary heap; the
heap it replaced is kept as the test oracle in ``tests/naive_engine.py``
(see DESIGN.md, "Event scheduler").

The 4-tuple form exists for the simulator hot path: schedulers pass a
pre-existing bound method plus its argument (typically a
:class:`~repro.netsim.packet.Packet`) instead of allocating a fresh
closure per event.  At hundreds of thousands of packets per trial the
per-packet lambda allocations used to be a measurable slice of the event
loop; see DESIGN.md ("simulator hot path").
"""

from __future__ import annotations

import heapq
from bisect import insort
from math import log2
from typing import Any, Callable, List, Optional, Tuple

from .. import units

#: Sentinel meaning "callback takes no argument".  Using an identity-checked
#: sentinel (rather than ``None``) lets callers schedule ``fn(None)``.
_NO_ARG = object()

#: Public alias for callers (e.g. ``Service.schedule``) that forward the
#: optional-arg form without wanting to import an underscored name.
NO_ARG = _NO_ARG


class CalendarEngine:
    """Calendar-queue event loop: O(1) amortized schedule and dispatch.

    Layout: ``nbuckets`` (power of two) rotating time buckets of width
    ``1 << shift`` microseconds each - one bucket is one "day", a full
    sweep of the array one "year".  An event lands in the bucket of its
    day when its time is inside the current year (``when < horizon``);
    far-future events (idle RTO deadlines) wait in a small overflow heap
    and are re-bucketed as the horizon advances day by day, so each
    bucket only ever holds events due on its next visit.

    Dispatch sorts the day's bucket ascending once and walks it by index,
    so per-event work is O(1) with no heap sift; the sort is Timsort over
    the handful of near-sorted per-day events.  Sorting by the full
    ``(time, seq, ...)`` tuple is exactly the heap's comparison key,
    which is why per-day FIFO insertion plus one sort reproduces the
    heap's dispatch order - including the seq tie-break for same-time
    events - bit for bit.  Callbacks that schedule back into the
    *currently dispatching* day (pacing wakeups and ACK-clocked sends
    commonly do) ``bisect.insort`` into the live bucket's unconsumed
    tail, which keeps the order exact at C speed.

    The bucket width is fixed for the engine's life.  A simulation
    builds its engine at :func:`day_shift` of its bottleneck rate, the
    width that puts ``~TARGET_PER_DAY`` events in a busy day, so both the
    8 Mbps regime (sparse, millisecond spacing) and the 50 Mbps regime
    (dense, hundreds of events per millisecond) stay O(1) amortized.  The
    width never feeds dispatch order, which depends only on ``(time,
    seq)``.
    """

    __slots__ = (
        "now",
        "_seq",
        "_running",
        "_stale",
        "_shift",
        "_nbuckets",
        "_mask",
        "_buckets",
        "_overflow",
        "_day",
        "_day_end",
        "_horizon",
        "_active_i",
    )

    #: Bucket-count exponent: 256 buckets balances rotation bookkeeping
    #: against horizon span (a 1.05 s year at the default width).
    NBUCKETS_LOG2 = 8
    #: Bounds for :func:`day_shift` (16 us .. 65.5 ms days).
    MIN_SHIFT = 4
    MAX_SHIFT = 16
    #: Events per *busy* day :func:`day_shift` sizes a day for.  The
    #: dispatch loop itself is ~20 bytecodes an event; opening and
    #: closing a day (sort call, cursor stores, clear, horizon advance,
    #: overflow probe) is a fixed cost this many events share, while the
    #: near-sorted per-day Timsort stays linear.  Measured best of {4,
    #: 16, 32, 64, 128} on ``cold-cycle`` (DESIGN.md, "Event scheduler").
    TARGET_PER_DAY = 64
    #: Width of an engine built without one: 4.1 ms days, the
    #: :func:`day_shift` of 50 Mbps (a test pins the two equal).
    DEFAULT_SHIFT = 12

    def __init__(self, shift: int = DEFAULT_SHIFT) -> None:
        self.now: int = 0
        self._seq = 0
        self._running = False
        self._stale = 0
        self._shift = shift
        self._nbuckets = 1 << self.NBUCKETS_LOG2
        self._mask = self._nbuckets - 1
        self._buckets: List[List[Tuple[int, int, Callable, Any]]] = [
            [] for _ in range(self._nbuckets)
        ]
        # Far-future events, a (time, seq, cb, arg) heap.
        self._overflow: List[Tuple[int, int, Callable, Any]] = []
        self._day = 0
        # End of the day currently being dispatched, or 0 when the engine
        # is not inside a day (0 can never be a live day end because
        # day ends are strictly positive).  schedule() uses this to
        # divert same-day inserts into the live, sorted bucket.
        self._day_end = 0
        self._horizon = self._nbuckets << self._shift
        # Number of already-dispatched events still physically sitting at
        # the head of the live day bucket (consumed prefix); 0 whenever
        # the engine is not inside a day.
        self._active_i = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def schedule(
        self, delay_usec: int, callback: Callable, arg: Any = _NO_ARG
    ) -> None:
        """Run ``callback`` ``delay_usec`` microseconds from now.

        When ``arg`` is given the event dispatches as ``callback(arg)``;
        pass a bound method plus its operand to avoid allocating a closure
        per event on hot paths.
        """
        if delay_usec < 0:
            raise ValueError("cannot schedule into the past")
        self._seq = seq = self._seq + 1
        when = self.now + delay_usec
        if when < self._day_end:
            # Into the live, ascending-sorted day bucket.  The fresh
            # event carries the largest seq so far, so among equal times
            # insort places it after every already-scheduled event -
            # exactly the heap's FIFO tie-break - and the consumed prefix
            # compares smaller than any schedulable event, so no ``lo``
            # bound is needed.
            insort(
                self._buckets[self._day & self._mask],
                (when, seq, callback, arg),
            )
        elif when < self._horizon:
            self._buckets[(when >> self._shift) & self._mask].append(
                (when, seq, callback, arg)
            )
        else:
            heapq.heappush(self._overflow, (when, seq, callback, arg))

    def schedule_at(
        self, when_usec: int, callback: Callable, arg: Any = _NO_ARG
    ) -> None:
        """Run ``callback`` at absolute time ``when_usec``."""
        if when_usec < self.now:
            raise ValueError("cannot schedule into the past")
        self._seq = seq = self._seq + 1
        if when_usec < self._day_end:
            # See schedule(): ordered insert into the live day bucket.
            insort(
                self._buckets[self._day & self._mask],
                (when_usec, seq, callback, arg),
            )
        elif when_usec < self._horizon:
            self._buckets[(when_usec >> self._shift) & self._mask].append(
                (when_usec, seq, callback, arg)
            )
        else:
            heapq.heappush(self._overflow, (when_usec, seq, callback, arg))

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def run(self, until_usec: Optional[int] = None) -> None:
        """Process events until none remain or the clock passes ``until_usec``.

        When ``until_usec`` is given the clock is left exactly there, so
        consecutive ``run`` calls resume seamlessly - including resuming
        exactly at a bucket boundary.
        """
        if self._running:
            raise RuntimeError("engine.run is not reentrant")
        self._running = True
        try:
            self._run(until_usec)
        finally:
            self._running = False
            self._day_end = 0
            self._active_i = 0
        if until_usec is not None and self.now < until_usec:
            self.now = until_usec

    def _run(self, until_usec: Optional[int]) -> None:
        # ``day``/``horizon`` are hoisted into locals and written back to
        # the instance only at sync points (day open and every return).
        # That is sound because user code - the only reader of
        # self._day/_horizon, via schedule() - can only run inside a
        # dispatch callback, i.e. after a day-open sync; the empty-day
        # sweep is pure engine code.
        no_arg = _NO_ARG
        buckets = self._buckets
        mask = self._mask
        nbuckets = self._nbuckets
        shift = self._shift
        width = 1 << shift
        overflow = self._overflow
        pop_overflow = heapq.heappop
        # The clock may have been advanced past the cursor by an idle
        # run(until); in that case every earlier day is known empty.
        day = max(self._day, self.now >> shift)
        horizon = (day + nbuckets) << shift
        while overflow and overflow[0][0] < horizon:
            event = pop_overflow(overflow)
            buckets[(event[0] >> shift) & mask].append(event)
        # Days strictly before this never need a per-event until check.
        boundary_day = -1 if until_usec is None else until_usec >> shift
        empty_days = 0
        while True:
            lst = buckets[day & mask]
            if lst:
                empty_days = 0
                lst.sort()
                # Open the day: sync the cursor and divert same-day
                # inserts into lst's unconsumed tail via _day_end.
                self._day = day
                self._horizon = horizon
                self._day_end = (day + 1) << shift
                if day != boundary_day:
                    # CPython list iteration is index-based, so events
                    # insorted into the unconsumed tail by callbacks are
                    # picked up by this same loop (an insort can never
                    # land before the cursor: fresh events carry the max
                    # seq and a time >= now).  No per-event bookkeeping:
                    # this is the hot loop.
                    for when, _seq, callback, arg in lst:
                        self.now = when
                        if arg is no_arg:
                            callback()
                        else:
                            callback(arg)
                    self._day_end = 0
                    lst.clear()
                else:
                    # The run(until) boundary day (at most one per run
                    # call): walk by index so the consumed prefix is
                    # known if the until check stops us mid-bucket.
                    i = 0
                    while i < len(lst):
                        event = lst[i]
                        when = event[0]
                        if when > until_usec:
                            break
                        i += 1
                        self._active_i = i
                        self.now = when
                        arg = event[3]
                        if arg is no_arg:
                            event[2]()
                        else:
                            event[2](arg)
                    self._day_end = 0
                    self._active_i = 0
                    if i < len(lst):
                        # Partial boundary day: drop the consumed prefix,
                        # park the cursor here for the next run().
                        del lst[:i]
                        return
                    lst.clear()
            else:
                empty_days += 1
            if day == boundary_day:
                self._day = day
                self._horizon = horizon
                return
            # Advance one day: the just-vacated bucket becomes the far
            # edge of the new year, so overflow events that now fit
            # rebucket into it (amortized O(1): each day uncovers one
            # bucket-width of new horizon).
            day += 1
            horizon += width
            if empty_days <= nbuckets:
                if overflow and overflow[0][0] < horizon:
                    while overflow and overflow[0][0] < horizon:
                        event = pop_overflow(overflow)
                        buckets[(event[0] >> shift) & mask].append(event)
                    empty_days = 0
            elif not overflow:
                # A full silent rotation with nothing waiting anywhere:
                # the wheel is provably empty.
                self._day = day
                self._horizon = horizon
                return
            else:
                # Wheel empty but far-future work exists: jump the cursor
                # straight to the overflow minimum's day (or stop at the
                # boundary if that comes first).
                target_day = overflow[0][0] >> shift
                if until_usec is not None and target_day > boundary_day:
                    self._day = day
                    self._horizon = horizon
                    return
                day = target_day
                horizon = (day + nbuckets) << shift
                while overflow and overflow[0][0] < horizon:
                    event = pop_overflow(overflow)
                    buckets[(event[0] >> shift) & mask].append(event)
                empty_days = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def timer(self, callback: Callable[[], None]) -> "Timer":
        """A lazy-cancellation timer handle firing ``callback`` on expiry."""
        return Timer(self, callback)

    def pending(self) -> int:
        """Number of scheduled events that still represent dispatchable work.

        Computed on demand (this is introspection, not the hot path) as
        everything still sitting in the wheel plus the overflow, minus
        lazily-cancelled Timer wakeups.  Exact whenever called outside a
        dispatch callback (every caller in the tree).  From *inside* a
        callback the hot loop leaves consumed events in the live bucket
        until the day closes, so the count can transiently include up to
        one day's already-dispatched events; the boundary day of a
        ``run(until)`` tracks its consumed prefix (``_active_i``) so the
        count is exact again the moment ``run`` returns.
        """
        live = sum(map(len, self._buckets)) + len(self._overflow)
        return live - self._active_i - self._stale

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled (the monotone sequence counter)."""
        return self._seq


def day_shift(rate_bps: float) -> int:
    """The day width, as a shift, for a bottleneck of ``rate_bps``.

    The power of two nearest the time ``TARGET_PER_DAY // 4`` full-sized
    (``units.MSS_BYTES``) packets take to serialise at that rate; at four
    engine events a packet (DESIGN.md, "Why four events per packet") a
    busy day then holds ``~TARGET_PER_DAY`` events.  That is shift 15
    (32.8 ms days) at 8 Mbps and 12 (4.1 ms) at 50 Mbps, clamped to
    [``MIN_SHIFT``, ``MAX_SHIFT``].
    """
    packet_usec = units.serialization_time_usec(units.MSS_BYTES, rate_bps)
    shift = round(log2(packet_usec * (CalendarEngine.TARGET_PER_DAY // 4)))
    return min(max(shift, CalendarEngine.MIN_SHIFT), CalendarEngine.MAX_SHIFT)


def build_engine() -> CalendarEngine:
    """A fresh event engine (the pipeline benchmark's engine probe).

    At ``DEFAULT_SHIFT``, the 50 Mbps width: the probe's 240 us steps
    are 50 Mbps serialisation times.
    """
    return CalendarEngine()


class Timer:
    """A rearmable deadline with lazy cancellation.

    Retransmission-style timers move their deadline on nearly every ACK.
    Cancelling/re-pushing a scheduler entry each time would churn the
    scheduler once per packet, so instead the timer keeps **at most one**
    event in the engine (the one-event-per-Timer invariant): rearming
    just updates :attr:`deadline`, and when the (stale) event fires early
    it re-schedules itself at the current deadline instead of invoking
    the callback.  ``cancel()`` simply clears the deadline; a pending
    event then fires as a no-op.  The engine's ``_stale`` counter tracks
    exactly these no-op-to-be events so ``pending()`` can report
    dispatchable work rather than raw structure occupancy.

    Rearming never pushes a second event, even when the new deadline is
    *earlier* than the pending wakeup: the timer notices the moved
    deadline only when that wakeup fires, exactly like a kernel RTO whose
    timer wheel granularity absorbs small backward moves.  (RTO deadlines
    virtually always move forward; keeping this semantic also preserves
    bit-identical schedules with the pre-handle implementation.)

    It only uses the engine's ``schedule_at``, ``now`` and ``_stale``
    counter, so the heap oracle in ``tests/naive_engine.py`` drives it too.
    """

    __slots__ = ("_engine", "_callback", "deadline", "_event_at")

    def __init__(self, engine, callback: Callable[[], None]) -> None:
        self._engine = engine
        self._callback = callback
        #: Absolute expiry time, or None when cancelled.
        self.deadline: Optional[int] = None
        # Time of the single in-engine event, or None when no event pending.
        self._event_at: Optional[int] = None

    @property
    def armed(self) -> bool:
        """True when the timer has a live (non-cancelled) deadline."""
        return self.deadline is not None

    def schedule_at(self, when_usec: int) -> None:
        """(Re)arm the timer to expire at absolute time ``when_usec``."""
        if self.deadline is None and self._event_at is not None:
            # Reviving a cancelled timer whose stale wakeup is still in
            # the engine: that event becomes live work again.
            self._engine._stale -= 1
        self.deadline = when_usec
        if self._event_at is None:
            self._event_at = when_usec
            self._engine.schedule_at(when_usec, self._fire)

    def schedule(self, delay_usec: int) -> None:
        """(Re)arm the timer to expire ``delay_usec`` from now."""
        self.schedule_at(self._engine.now + delay_usec)

    def cancel(self) -> None:
        """Disarm.  A pending engine event (if any) becomes a no-op."""
        if self.deadline is not None and self._event_at is not None:
            self._engine._stale += 1
        self.deadline = None

    def _fire(self) -> None:
        self._event_at = None
        deadline = self.deadline
        if deadline is None:
            # Cancelled: this wakeup was counted stale; it just drained.
            self._engine._stale -= 1
            return
        if self._engine.now < deadline:
            # Superseded: the deadline moved while this event sat in the
            # engine.  Chase the current deadline with one fresh event.
            self._event_at = deadline
            self._engine.schedule_at(deadline, self._fire)
            return
        self.deadline = None
        self._callback()
