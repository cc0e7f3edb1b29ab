"""Reference oracle: the generic windowed min/max ``update``.

``src/repro/transport/windowed_filter.py`` holds one ``update`` per
concrete filter, flattened with two early-exit fast paths and the
comparisons specialised to ``>=`` / ``<=``.  The straightforward
algorithm they were flattened from - Linux ``minmax_running_max`` /
``minmax_subwin_update`` with one virtual ``_better`` call per
comparison - lives here, verbatim, and
``tests/test_windowed_filter.py::TestFastPathEquivalence`` holds the
flat versions to it sample for sample.
"""

from repro.transport.windowed_filter import WindowedMaxFilter, WindowedMinFilter


class _ReferenceUpdate:
    """The generic ``update``; ``_better`` orders candidate samples."""

    __slots__ = ()

    def update(self, value: float, now: int) -> float:
        """Insert a sample and return the current windowed best.

        Mirrors Linux ``minmax_running_max``/``minmax_subwin_update``: a
        full reset when the new sample beats the best or the *oldest*
        runner-up has aged out, otherwise runner-up maintenance plus
        quarter/half-window promotion.
        """
        est = self._estimates
        if not est or self._better(value, est[0][0]):
            sample = (value, now)
            self._estimates = [sample, sample, sample]
            self.best = value
            return value
        return self._update_slow(value, now)

    def _update_slow(self, value: float, now: int) -> float:
        """Everything past the empty/new-best checks: aged-out reset,
        runner-up maintenance, and subwindow promotion."""
        est = self._estimates
        window = self.window
        sample = (value, now)
        if now - est[2][1] > window:
            est[0] = est[1] = est[2] = sample
            self.best = value
            return value
        if self._better(value, est[1][0]):
            est[1] = sample
            est[2] = sample
        elif self._better(value, est[2][0]):
            est[2] = sample
        dt = now - est[0][1]
        if dt > window:
            # Best entry aged out: promote the runners-up.
            est[0], est[1], est[2] = est[1], est[2], sample
            if now - est[0][1] > window:
                est[0], est[1], est[2] = est[1], est[2], sample
        elif est[1][1] == est[0][1] and dt > self._quarter:
            est[1] = sample
            est[2] = sample
        elif est[2][1] == est[1][1] and dt > window // 2:
            est[2] = sample
        best = est[0][0]
        self.best = best
        return best


class ReferenceMaxFilter(_ReferenceUpdate, WindowedMaxFilter):
    """Max filter driven through the generic reference ``update``."""

    __slots__ = ()

    def _better(self, a: float, b: float) -> bool:
        return a >= b


class ReferenceMinFilter(_ReferenceUpdate, WindowedMinFilter):
    """Min filter driven through the generic reference ``update``."""

    __slots__ = ()

    def _better(self, a: float, b: float) -> bool:
        return a <= b
