"""``core/stats.py`` draws its bootstrap indices in bulk; every CI bound
and summary must be what the per-draw loop (``tests/naive_stats.py``)
gives - same value, same type, same sign of zero - and a cycle state
written by the commit before the change must re-derive unchanged."""

import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import stats
from repro.fleet import AdaptiveCycleState, FleetPlan

from tests import naive_stats

DATA = Path(__file__).parent / "data"

#: Both sides of every power of two up to the byte/word branch at 256
#: (at a power of two half the draws are rejected), and the paper's
#: 10 / 20 / 30.
EDGE_SIZES = sorted(
    {2, 3, 10, 20, 30, 100, 300}
    | {size for power in range(2, 9) for size in (2**power - 1, 2**power, 2**power + 1)}
)


# ----------------------------------------------------------------------
# The interpreter lays the generator stream out as the kernel assumes
# ----------------------------------------------------------------------


class TestStreamLayout:
    """If one of these fails, ``_randrange_stream`` does not hold on
    this interpreter: its docstring states the layout it relies on."""

    def test_wide_draw_is_successive_words_low_first(self):
        wide, narrow = random.Random(11), random.Random(11)
        low, high = narrow.getrandbits(32), narrow.getrandbits(32)
        assert wide.getrandbits(64) == high << 32 | low
        # ...and the next draw carries on from the same place.
        assert wide.getrandbits(32) == narrow.getrandbits(32)

    def test_narrow_draw_is_top_bits_of_one_word(self):
        for bits in range(1, 33):
            narrow, word = random.Random(bits), random.Random(bits)
            for _ in range(50):
                assert (
                    narrow.getrandbits(bits)
                    == word.getrandbits(32) >> (32 - bits)
                ), bits

    def test_bulk_stream_is_the_randrange_sequence(self):
        count = 400
        for n in [*range(1, 301), 511, 512, 1000, 65535, 65536, 10**6]:
            loop = random.Random(n)
            expected = [loop.randrange(n) for _ in range(count)]
            got = stats._randrange_stream(random.Random(n), n, count)
            assert list(got) == expected, n

    def test_stream_tops_up_when_a_pass_comes_up_short(self):
        """Each pass draws the expected number of words, so over a few
        seeds some passes must fall short and go round again."""
        passes = []

        class Counting(random.Random):
            def getrandbits(self, k):
                passes[-1] += 1
                return super().getrandbits(k)

        for seed in range(8):
            passes.append(0)
            got = stats._randrange_stream(Counting(seed), 16, 5000)
            loop = random.Random(seed)
            assert list(got) == [loop.randrange(16) for _ in range(5000)]
        assert max(passes) > 1


# ----------------------------------------------------------------------
# bootstrap_median_ci / summarize_trials == the per-draw loop
# ----------------------------------------------------------------------

#: NaN included: it makes every sort order-dependent, and the kernel
#: sorts the same values in the same order as the loop.
floats = st.floats(width=64)
#: Values whose ties the per-draw loop can tell apart (1 / 1.0 / True,
#: 0.0 / -0.0): which one a resample's median returns depends on the
#: order the resample was drawn in.
distinguishable = st.sampled_from([0, 0.0, -0.0, 1, 1.0, True, 2.5, 3])


@st.composite
def series(draw):
    n = draw(st.one_of(st.sampled_from(EDGE_SIZES), st.integers(1, 300)))
    shape = draw(st.sampled_from(["floats", "ints", "ties", "constant", "mixed"]))
    if shape == "constant":
        return [draw(floats)] * n
    element = {
        "floats": floats,
        "ints": st.integers(-10**9, 10**9),
        "ties": st.sampled_from([1.5e6, 2.5e6, 4e6]),
        "mixed": distinguishable,
    }[shape]
    return draw(st.lists(element, min_size=n, max_size=n))


arguments = st.fixed_dictionaries(
    {
        "confidence": st.sampled_from([0.9, 0.95]),
        "seed": st.one_of(
            st.sampled_from([0, None]), st.integers(0, 2**63)
        ),
        "key": st.sampled_from(["", "netflix|youtube|netflix"]),
    }
)


def exact(value):
    """``repr`` tells ``1`` from ``1.0`` and ``0.0`` from ``-0.0``, and
    calls two NaNs the same."""
    return repr(value)


@settings(max_examples=150, deadline=None)
@given(series(), arguments, st.sampled_from([1, 7, 7, 2000]))
def test_bootstrap_equals_the_per_draw_loop(samples, kwargs, n_resamples):
    got = stats.bootstrap_median_ci(samples, n_resamples=n_resamples, **kwargs)
    want = naive_stats.bootstrap_median_ci(
        samples, n_resamples=n_resamples, **kwargs
    )
    assert exact(got) == exact(want)


@pytest.mark.parametrize("n", EDGE_SIZES)
def test_bootstrap_equals_the_per_draw_loop_at_edge_sizes(n):
    rng = random.Random(n)
    samples = [rng.uniform(0.1, 0.9) * 4e6 for _ in range(n)]
    samples[-1] = samples[0]  # one tie
    for seed in (0, None, 0xC0FFEE):
        got = stats.bootstrap_median_ci(samples, seed=seed, key="a|b|a")
        want = naive_stats.bootstrap_median_ci(samples, seed=seed, key="a|b|a")
        assert exact(got) == exact(want), seed


@settings(max_examples=40, deadline=None)
@given(series(), arguments)
def test_summary_equals_the_per_draw_loop(samples, kwargs):
    stats._SUMMARY_MEMO.clear()
    want = naive_stats.summarize_trials(samples, **kwargs)
    for _ in range(2):  # computed, then served from the memo
        assert exact(stats.summarize_trials(samples, **kwargs)) == exact(want)


# ----------------------------------------------------------------------
# A cycle state the parent commit wrote
# ----------------------------------------------------------------------


class TestParentCycleState:
    """``cycle_state_pr16.json``: ``fleet cycle --services iperf_cubic
    iperf_bbr netflix --min-trials 2 --max-trials 6 --batch-size 2
    --ci-mbps 0.3 --duration 10 --shards 2``, run by PR 16's commit
    (per-draw bootstrap): 3 rounds, 2 pairs converged at 2 trials, 4
    unstable at the 6-trial cap."""

    #: ``plan_id`` of the ``assembly-plan.json`` that run wrote (under
    #: manifest schema 2, which the id hashes).
    ASSEMBLY_PLAN_ID = (
        "07e571c31e0ec938c4247d6cfb66802d66eac92e747433151a680e5cfd887fe3"
    )

    @pytest.fixture
    def payload(self):
        return json.loads((DATA / "cycle_state_pr16.json").read_text())

    @pytest.mark.parametrize("oracle", [False, True], ids=["kernel", "oracle"])
    def test_every_stored_decision_rederives(self, payload, oracle):
        """``oracle=True`` is the check CI's adaptive-smoke runs on the
        cycle it has just driven."""
        stats._SUMMARY_MEMO.clear()
        assert naive_stats.check_recorded_decisions(payload, oracle) == 6
        verdicts = {
            pair["verdict"]
            for entry in payload["trackers"]
            for pair in entry["pairs"]
        }
        assert verdicts == {"converged", "unstable"}

    def test_replay_emits_the_parents_assembly_plan(self, payload):
        state = AdaptiveCycleState.from_json(payload)
        assert state.round_index == 3
        plan = state.assembly_plan(num_shards=2)
        as_written = FleetPlan(
            plan.kind, plan.num_shards, plan.trials, plan.params, schema=2
        )
        assert as_written.plan_id == self.ASSEMBLY_PLAN_ID
