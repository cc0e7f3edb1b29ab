"""Time-windowed min/max filters (the Linux ``win_minmax`` structure).

BBR tracks its bandwidth estimate as a windowed maximum over ~10 round
trips and its min-RTT as a windowed minimum over 10 seconds.  This is the
standard three-estimate implementation: the best value plus two runners-up
that take over as the best value ages out.

Hot-path notes (see DESIGN.md, "Per-ACK CCA path"): BBR calls
``WindowedMaxFilter.update`` once per delivered packet, so each concrete
filter carries a flattened ``update`` with two early-exit fast paths —
a new-best sample is a straight three-slot reset, and a non-improving
sample inside the first quarter-subwindow provably changes nothing and
returns immediately.  Both exits reproduce exactly what the generic
algorithm (the reference in ``tests/naive_windowed_filter.py``) would
do; the property test in ``tests/test_windowed_filter.py`` pins the
equivalence.
"""

from __future__ import annotations

from typing import List, Tuple


class _WindowedFilter:
    """Shared state, ``get`` and ``reset``; each subclass owns ``update``."""

    __slots__ = ("window", "_quarter", "_estimates", "best")

    def __init__(self, window: int) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = window
        self._quarter = window // 4
        # (value, time) estimates, best first.
        self._estimates: List[Tuple[float, int]] = []
        #: Current best value, kept in lockstep with ``_estimates[0][0]``
        #: (0.0 when empty).  A plain attribute so per-ACK readers (BBR's
        #: pacing/BDP math) skip the ``get()`` call frame.
        self.best = 0.0

    def get(self) -> float:
        """Current best value (0.0 when empty)."""
        return self.best

    def reset(self, value: float, now: int) -> None:
        sample = (value, now)
        self._estimates = [sample, sample, sample]
        self.best = value


class WindowedMaxFilter(_WindowedFilter):
    """Windowed maximum (BBR bottleneck-bandwidth filter)."""

    __slots__ = ()

    def update(self, value: float, now: int) -> float:
        """Insert a sample and return the current windowed best."""
        est = self._estimates
        if not est:
            sample = (value, now)
            self._estimates = [sample, sample, sample]
            self.best = value
            return value
        e0 = est[0]
        if value >= e0[0]:
            # New best: full reset, no subwindow shuffling to do.
            sample = (value, now)
            est[0] = est[1] = est[2] = sample
            self.best = value
            return value
        e2 = est[2]
        dt = now - e0[1]
        window = self.window
        if value < e2[0] and 0 <= dt <= self._quarter and now - e2[1] <= window:
            # Same-subwindow non-improving sample: beats none of the three
            # estimates and no promotion deadline has passed, so the
            # reference algorithm would leave the structure untouched.
            return e0[0]
        # Slow path: the reference ``_update_slow``
        # (tests/naive_windowed_filter.py) with its ``_better``
        # comparisons specialised to ``>=``.
        sample = (value, now)
        if now - e2[1] > window:
            est[0] = est[1] = est[2] = sample
            self.best = value
            return value
        if value >= est[1][0]:
            est[1] = sample
            est[2] = sample
        elif value >= e2[0]:
            est[2] = sample
        if dt > window:
            # Best entry aged out: promote the runners-up.
            est[0], est[1], est[2] = est[1], est[2], sample
            if now - est[0][1] > window:
                est[0], est[1], est[2] = est[1], est[2], sample
        elif est[1][1] == e0[1] and dt > self._quarter:
            est[1] = sample
            est[2] = sample
        elif est[2][1] == est[1][1] and dt > window // 2:
            est[2] = sample
        best = est[0][0]
        self.best = best
        return best


class WindowedMinFilter(_WindowedFilter):
    """Windowed minimum (BBR min-RTT filter)."""

    __slots__ = ()

    def update(self, value: float, now: int) -> float:
        """Insert a sample and return the current windowed best."""
        est = self._estimates
        if not est:
            sample = (value, now)
            self._estimates = [sample, sample, sample]
            self.best = value
            return value
        e0 = est[0]
        if value <= e0[0]:
            sample = (value, now)
            est[0] = est[1] = est[2] = sample
            self.best = value
            return value
        e2 = est[2]
        dt = now - e0[1]
        window = self.window
        if value > e2[0] and 0 <= dt <= self._quarter and now - e2[1] <= window:
            return e0[0]
        # Slow path: the reference ``_update_slow`` with ``_better``
        # specialised to ``<=`` (see WindowedMaxFilter.update).
        sample = (value, now)
        if now - e2[1] > window:
            est[0] = est[1] = est[2] = sample
            self.best = value
            return value
        if value <= est[1][0]:
            est[1] = sample
            est[2] = sample
        elif value <= e2[0]:
            est[2] = sample
        if dt > window:
            est[0], est[1], est[2] = est[1], est[2], sample
            if now - est[0][1] > window:
                est[0], est[1], est[2] = est[1], est[2], sample
        elif est[1][1] == e0[1] and dt > self._quarter:
            est[1] = sample
            est[2] = sample
        elif est[2][1] == est[1][1] and dt > window // 2:
            est[2] = sample
        best = est[0][0]
        self.best = best
        return best
