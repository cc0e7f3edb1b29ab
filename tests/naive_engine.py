"""Reference oracle: the binary-heap event loop.

``src/`` holds one scheduler core, the calendar queue
(:class:`repro.netsim.engine.CalendarEngine`).  :class:`HeapEngine` is
the engine the simulator ran on before it, verbatim: a ``heapq`` of
``(time, seq, callback, arg)`` tuples, obviously correct and O(log n)
per op.  Both dispatch in ``(time, seq)`` order, so any program - an op
sequence (``tests/test_engine_differential.py``) or a whole trial
(``tests/test_engine_grid.py``, the golden fixture in
``tests/test_golden_identity.py``) - must produce the same record on
either; tests inject it through the ``engine=`` seam of
``run_trial_artifacts`` / ``Testbed`` / ``Dumbbell``.
"""

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.netsim.engine import _NO_ARG, Timer


class HeapEngine:
    """The original binary-heap event loop (dispatch-order oracle).

    The hot path (one bottleneck-packet lifetime) schedules roughly four
    events, so this class is deliberately small: a heap, a clock, and a
    monotone sequence counter.
    """

    __slots__ = ("now", "_heap", "_seq", "_running", "_stale")

    def __init__(self) -> None:
        self.now: int = 0
        self._heap: List[Tuple[int, int, Callable, Any]] = []
        self._seq = 0
        self._running = False
        #: In-structure events that are no longer dispatchable work: a
        #: lazily-cancelled Timer's wakeup stays in the heap as a no-op
        #: until it drains.  ``pending()`` subtracts these.
        self._stale = 0

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
        heapq.heappush(self._heap, (self.now + delay_usec, seq, callback, arg))

    def schedule_at(
        self, when_usec: int, callback: Callable, arg: Any = _NO_ARG
    ) -> None:
        """Run ``callback`` at absolute time ``when_usec``."""
        if when_usec < self.now:
            raise ValueError("cannot schedule into the past")
        self._seq = seq = self._seq + 1
        heapq.heappush(self._heap, (when_usec, seq, callback, arg))

    def run(self, until_usec: Optional[int] = None) -> None:
        """Process events until the heap drains or the clock passes ``until_usec``.

        When ``until_usec`` is given the clock is left exactly there, so
        consecutive ``run`` calls resume seamlessly.
        """
        if self._running:
            raise RuntimeError("engine.run is not reentrant")
        heap = self._heap
        pop = heapq.heappop
        no_arg = _NO_ARG
        self._running = True
        try:
            if until_usec is None:
                while heap:
                    when, _seq, callback, arg = pop(heap)
                    self.now = when
                    if arg is no_arg:
                        callback()
                    else:
                        callback(arg)
            else:
                while heap:
                    if heap[0][0] > until_usec:
                        break
                    when, _seq, callback, arg = pop(heap)
                    self.now = when
                    if arg is no_arg:
                        callback()
                    else:
                        callback(arg)
        finally:
            self._running = False
        if until_usec is not None and self.now < until_usec:
            self.now = until_usec

    def timer(self, callback: Callable[[], None]) -> "Timer":
        """A lazy-cancellation timer handle firing ``callback`` on expiry."""
        return Timer(self, callback)

    def pending(self) -> int:
        """Number of scheduled events that still represent dispatchable work.

        Lazily-cancelled :class:`Timer` wakeups sit in the heap until they
        drain as no-ops; they are *not* pending work and are excluded here
        (each live Timer contributes exactly one event - the
        one-event-per-Timer invariant - and that event counts only while
        the timer is armed).
        """
        return len(self._heap) - self._stale

    @property
    def events_scheduled(self) -> int:
        """Total events ever scheduled (the monotone sequence counter).

        Read by post-trial instrumentation (repro.obs) as a measure of
        event-loop work; maintaining it costs nothing extra because the
        counter already exists for deterministic tie-breaking.
        """
        return self._seq
