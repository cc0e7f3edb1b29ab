"""Windowed min/max filters (BBR's btlbw and RTprop estimators)."""

import pytest
from hypothesis import given, strategies as st

from repro.transport.windowed_filter import WindowedMaxFilter, WindowedMinFilter

from tests.naive_windowed_filter import ReferenceMaxFilter, ReferenceMinFilter


class TestMaxFilter:
    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            WindowedMaxFilter(0)

    def test_empty_get(self):
        assert WindowedMaxFilter(10).get() == 0.0

    def test_tracks_max(self):
        f = WindowedMaxFilter(10)
        f.update(3.0, 0)
        f.update(7.0, 1)
        f.update(5.0, 2)
        assert f.get() == 7.0

    def test_old_max_expires(self):
        f = WindowedMaxFilter(10)
        f.update(100.0, 0)
        for t in range(1, 30):
            f.update(5.0, t)
        assert f.get() == 5.0

    def test_reset(self):
        f = WindowedMaxFilter(10)
        f.update(100.0, 0)
        f.reset(1.0, 5)
        assert f.get() == 1.0

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=1e9),
                st.integers(min_value=0, max_value=5),
            ),
            min_size=1,
            max_size=100,
        )
    )
    def test_value_bounded_by_window_samples(self, samples):
        """The (approximate) filter always reports a value that some
        in-window sample actually attained."""
        f = WindowedMaxFilter(10)
        now = 0
        history = []
        for value, step in samples:
            now += step
            f.update(value, now)
            history.append((value, now))
        window = [v for v, t in history if now - t <= 10]
        assert min(window) - 1e-9 <= f.get() <= max(window) + 1e-9

    def test_exact_linux_semantics_example(self):
        # A high sample followed by silence resets to the fresh sample
        # once the whole structure has aged out.
        f = WindowedMaxFilter(10)
        f.update(10.0, 0)
        f.update(2.0, 11)
        assert f.get() == 2.0

    def test_runner_up_promoted_on_best_expiry(self):
        f = WindowedMaxFilter(10)
        f.update(10.0, 0)
        f.update(8.0, 3)   # recorded via quarter-window promotion
        f.update(1.0, 11)  # best expires; runner-up promoted
        assert f.get() == 8.0

    def test_subwindow_rollover(self):
        # Quarter- and half-window promotions, step by step (window=100,
        # so the subwindow boundaries are 25 and 50).
        f = WindowedMaxFilter(100)
        f.update(10.0, 0)
        assert f._estimates == [(10.0, 0)] * 3
        # Past the first quarter with all three slots still from t=0:
        # both runners-up roll over to the fresh sample.
        f.update(5.0, 30)
        assert f.get() == 10.0
        assert f._estimates == [(10.0, 0), (5.0, 30), (5.0, 30)]
        # Past the half-window with est1/est2 from the same instant:
        # only the third slot rolls over.
        f.update(4.0, 60)
        assert f.get() == 10.0
        assert f._estimates == [(10.0, 0), (5.0, 30), (4.0, 60)]
        # Best ages out at t=101: the runners-up take over in order.
        f.update(3.0, 101)
        assert f.get() == 5.0
        assert f._estimates == [(5.0, 30), (4.0, 60), (3.0, 101)]

    def test_reset_clears_runners_up(self):
        f = WindowedMaxFilter(10)
        f.update(100.0, 0)
        f.update(50.0, 3)
        f.reset(1.0, 5)
        assert f.get() == 1.0
        assert f._estimates == [(1.0, 5)] * 3
        # Behaves like a fresh filter afterwards.
        f.update(2.0, 6)
        assert f.get() == 2.0

    def test_same_round_updates(self):
        # BBR feeds the btlbw filter the *round count* as time, so many
        # updates share one timestamp; ordering within the round must not
        # disturb the best estimate.
        f = WindowedMaxFilter(10)
        f.update(10.0, 0)
        f.update(8.0, 0)
        f.update(9.0, 0)
        assert f.get() == 10.0
        f.update(12.0, 0)  # same-round new best still wins immediately
        assert f.get() == 12.0

    def test_best_mirrors_get(self):
        f = WindowedMaxFilter(10)
        assert f.best == f.get() == 0.0
        for value, now in [(5.0, 0), (3.0, 4), (2.0, 8), (1.0, 20)]:
            f.update(value, now)
            assert f.best == f.get() == f._estimates[0][0]


_SAMPLE_STREAMS = st.lists(
    st.tuples(
        st.floats(min_value=0.1, max_value=1e9),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=120,
)


class TestFastPathEquivalence:
    """The flattened concrete ``update`` methods vs the generic reference.

    The concrete filters' early-exit fast paths and inlined slow path
    must be *indistinguishable* from the generic reference ``update``
    (``tests/naive_windowed_filter.py``) - same return values and same
    internal estimate structure after every sample - because BBR's
    bit-identity guarantee rests on it.
    """

    @given(_SAMPLE_STREAMS)
    def test_max_matches_reference(self, samples):
        fast, ref = WindowedMaxFilter(10), ReferenceMaxFilter(10)
        now = 0
        for value, step in samples:
            now += step
            assert fast.update(value, now) == ref.update(value, now)
            assert fast._estimates == ref._estimates
            assert fast.best == ref.best

    @given(_SAMPLE_STREAMS)
    def test_min_matches_reference(self, samples):
        fast, ref = WindowedMinFilter(10), ReferenceMinFilter(10)
        now = 0
        for value, step in samples:
            now += step
            assert fast.update(value, now) == ref.update(value, now)
            assert fast._estimates == ref._estimates
            assert fast.best == ref.best

    @given(_SAMPLE_STREAMS)
    def test_min_max_symmetry(self, samples):
        """A min filter is a max filter over negated samples.

        Guards against the two concrete implementations drifting apart -
        every comparison in one must be the exact mirror of the other.
        """
        fmin, fmax = WindowedMinFilter(10), WindowedMaxFilter(10)
        now = 0
        for value, step in samples:
            now += step
            assert fmin.update(value, now) == -fmax.update(-value, now)
            assert fmin.best == -fmax.best


class TestMinFilter:
    def test_tracks_min(self):
        f = WindowedMinFilter(10)
        f.update(30.0, 0)
        f.update(10.0, 1)
        f.update(20.0, 2)
        assert f.get() == 10.0

    def test_old_min_expires(self):
        f = WindowedMinFilter(10)
        f.update(1.0, 0)
        for t in range(1, 30):
            f.update(50.0, t)
        assert f.get() == 50.0

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=1e9),
                st.integers(min_value=0, max_value=5),
            ),
            min_size=1,
            max_size=100,
        )
    )
    def test_value_bounded_by_window_samples(self, samples):
        f = WindowedMinFilter(10)
        now = 0
        history = []
        for value, step in samples:
            now += step
            f.update(value, now)
            history.append((value, now))
        window = [v for v, t in history if now - t <= 10]
        assert min(window) - 1e-9 <= f.get() <= max(window) + 1e-9
