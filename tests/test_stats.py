"""Medians, quantiles, bootstrap CIs, trial summaries."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.core import stats
from repro.core.stats import (
    bootstrap_median_ci,
    iqr,
    median,
    quantile,
    summarize_trials,
)


class TestMedian:
    def test_odd(self):
        assert median([3, 1, 2]) == 2

    def test_even(self):
        assert median([4, 1, 2, 3]) == 2.5

    def test_single(self):
        assert median([7]) == 7

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            median([])

    @given(st.lists(st.floats(min_value=-1e9, max_value=1e9), min_size=1))
    def test_median_within_range(self, samples):
        assert min(samples) <= median(samples) <= max(samples)


class TestQuantile:
    def test_bounds(self):
        data = [1, 2, 3, 4]
        assert quantile(data, 0) == 1
        assert quantile(data, 1) == 4

    def test_interpolation(self):
        assert quantile([0, 10], 0.25) == 2.5

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            quantile([1], 1.5)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)

    def test_iqr(self):
        q25, q75 = iqr(list(range(1, 101)))
        assert q25 == pytest.approx(25.75)
        assert q75 == pytest.approx(75.25)

    @given(
        st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2),
    )
    def test_iqr_ordered(self, samples):
        q25, q75 = iqr(samples)
        assert q25 <= q75


class TestBootstrap:
    def test_single_sample_degenerate(self):
        assert bootstrap_median_ci([5.0]) == (5.0, 5.0)

    def test_ci_contains_median_for_tight_data(self):
        data = [10.0, 10.1, 9.9, 10.05, 9.95] * 4
        low, high = bootstrap_median_ci(data, seed=1)
        assert low <= median(data) <= high

    def test_ci_narrows_with_more_data(self):
        import random

        rng = random.Random(0)
        small = [rng.gauss(10, 1) for _ in range(8)]
        large = [rng.gauss(10, 1) for _ in range(100)]
        lo_s, hi_s = bootstrap_median_ci(small, seed=2)
        lo_l, hi_l = bootstrap_median_ci(large, seed=2)
        assert (hi_l - lo_l) < (hi_s - lo_s)

    def test_deterministic_given_seed(self):
        data = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert bootstrap_median_ci(data, seed=7) == bootstrap_median_ci(data, seed=7)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            bootstrap_median_ci([])

    def test_rejects_bad_confidence(self):
        with pytest.raises(ValueError):
            bootstrap_median_ci([1.0, 2.0], confidence=1.5)

    @pytest.mark.parametrize("n_resamples", [0, -3])
    def test_rejects_no_resamples(self, n_resamples):
        with pytest.raises(ValueError, match="n_resamples must be positive"):
            bootstrap_median_ci([1.0, 2.0], n_resamples=n_resamples)


class TestTrialSummary:
    def test_fields(self):
        summary = summarize_trials([10.0, 12.0, 11.0, 13.0, 9.0])
        assert summary.n == 5
        assert summary.median == 11.0
        assert summary.q25 <= summary.median <= summary.q75
        assert summary.ci_low <= summary.median <= summary.ci_high
        assert summary.ci_halfwidth >= 0
        assert summary.iqr_width == summary.q75 - summary.q25

    def test_stable_series_tiny_halfwidth(self):
        summary = summarize_trials([10.0] * 20)
        assert summary.ci_halfwidth == 0.0


class TestSummaryMemo:
    """``summarize_trials`` computes each distinct summary once per
    process, keyed type-exactly on every argument."""

    def test_second_call_is_served_not_computed(self, summaries_since):
        first = summarize_trials([3.0, 1.0, 2.0, 5.0], key="a|b|a")
        assert summaries_since() == (1, 0)
        again = summarize_trials([3.0, 1.0, 2.0, 5.0], key="a|b|a")
        assert summaries_since() == (1, 1)
        assert again is first

    def test_shared_record_is_frozen(self):
        summary = summarize_trials([3.0, 1.0, 2.0])
        assert isinstance(summary, stats.TrialSummary)
        with pytest.raises(dataclasses.FrozenInstanceError):
            summary.median = 0.0

    def test_every_argument_is_part_of_the_key(self, summaries_since):
        data = [3.0, 1.0, 2.0, 5.0]
        base = summarize_trials(data, key="k")
        assert summarize_trials(data, key="other") is not base
        assert summarize_trials(data, 0.9, key="k") is not base
        assert summarize_trials(data, seed=4, key="k") is not base
        assert summarize_trials(data + [4.0], key="k") is not base
        assert summarize_trials(tuple(data), key="k") is base
        assert summaries_since() == (5, 1)

    @pytest.mark.parametrize(
        "one, other",
        [([1, 2, 3], [1.0, 2.0, 3.0]), ([0.0, 0.0, 0.0], [-0.0, -0.0, -0.0])],
    )
    def test_equal_valued_series_of_other_types_get_their_own_entry(
        self, one, other, summaries_since
    ):
        """``1 == 1.0`` and ``0.0 == -0.0`` (and they hash alike), but
        their summaries differ in type or sign: a tuple key would serve
        one series the other's record."""
        assert one == other
        first, second = summarize_trials(one), summarize_trials(other)
        assert summaries_since() == (2, 0)
        assert first == second
        assert repr(first) != repr(second)
        assert repr(summarize_trials(one)) == repr(first)
        assert repr(summarize_trials(other)) == repr(second)

    def test_memo_is_bounded(self, monkeypatch, summaries_since):
        monkeypatch.setattr(stats, "_SUMMARY_MEMO_MAX", 8)
        for index in range(30):
            summarize_trials([1.0, 2.0, float(index)])
            assert len(stats._SUMMARY_MEMO) <= 8
        assert summaries_since() == (30, 0)

    def test_failed_summary_is_not_remembered(self, summaries_since):
        with pytest.raises(ValueError):
            summarize_trials([])
        assert stats._SUMMARY_MEMO == {}
        assert summaries_since() == (0, 0)


class TestDerivedBootstrapSeed:
    def test_pure_function_of_data_and_key(self):
        from repro.core.stats import derive_bootstrap_seed

        data = [10.0, 11.0, 9.0]
        assert derive_bootstrap_seed(data) == derive_bootstrap_seed(
            list(data)
        )
        assert derive_bootstrap_seed(data, key="a|b|a") != (
            derive_bootstrap_seed(data, key="a|c|a")
        )
        assert derive_bootstrap_seed(data) != derive_bootstrap_seed(
            [10.0, 11.0, 9.5]
        )

    def test_ci_with_derived_seed_is_reproducible(self):
        """seed=None derives the bootstrap seed from (samples, key):
        the same data gives the same CI on any host, in any order."""
        from repro.core.stats import derive_bootstrap_seed

        data = [8.0, 12.0, 10.0, 11.0, 9.0]
        first = bootstrap_median_ci(data, seed=None, key="pair|svc")
        again = bootstrap_median_ci(data, seed=None, key="pair|svc")
        assert first == again
        explicit = bootstrap_median_ci(
            data, seed=derive_bootstrap_seed(data, key="pair|svc")
        )
        assert first == explicit

    def test_summaries_default_to_derived_seed(self):
        data = [1.0, 20.0, 5.0, 9.0, 2.0]
        assert summarize_trials(data, key="k") == summarize_trials(
            data, key="k"
        )
