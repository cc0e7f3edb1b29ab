"""Differential tests: CalendarEngine must match HeapEngine exactly.

The calendar queue is the simulator's one scheduler core; the binary
heap in ``tests/naive_engine.py`` is the dispatch-order oracle.  Layers
of evidence that they are interchangeable:

* randomized op programs (hypothesis): arbitrary mixes of schedule /
  schedule_at / Timer rearm / cancel / nested scheduling from inside
  callbacks / segmented run(until) must produce the identical dispatch
  log, clock, and pending() count on both engines - across bucket
  widths, so rollover/overflow/active-day insertion all get exercised;
* calendar internals unit tests: bucket rollover, overflow rebucketing
  and run(until) resume at an exact bucket boundary, each at the fixed
  widths ``WIDTHS`` (the narrowest, both paper rates' and the widest):
  dispatch order depends on ``(time, seq)`` and never on the day width;
* the golden fixture at each of those widths, and the width a simulation
  builds its engine at (``day_shift``);
* an 11-scenario fixed-seed grid of real trials (every artifact the
  simulator publishes, hashed) in test_engine_grid.py.
"""

import ast
import inspect

import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.config import NetworkConfig
from repro.netsim import engine as engine_module
from repro.netsim.engine import CalendarEngine, build_engine, day_shift
from repro.netsim.topology import Dumbbell

from tests.naive_engine import HeapEngine

#: The fixed day widths every internals suite and the golden fixture run
#: at: the narrowest, the 50 Mbps and 8 Mbps widths, and the widest.
WIDTHS = {
    "min": CalendarEngine.MIN_SHIFT,
    "50mbps": day_shift(units.mbps(50)),
    "8mbps": day_shift(units.mbps(8)),
    "max": CalendarEngine.MAX_SHIFT,
}


# ---------------------------------------------------------------------------
# Randomized differential property
# ---------------------------------------------------------------------------

N_TIMERS = 3

#: One top-level op: (kind, a, b).  Delays/offsets stay small relative to
#: the narrow bucket widths used below so programs cross many days and
#: rollovers; a sprinkle of large delays exercises the overflow heap.
_op = st.one_of(
    st.tuples(st.just("schedule"), st.integers(0, 400), st.integers(0, 11)),
    st.tuples(st.just("schedule_far"), st.integers(5_000, 400_000), st.integers(0, 11)),
    st.tuples(st.just("schedule_at"), st.integers(0, 400), st.integers(0, 11)),
    st.tuples(st.just("timer_schedule"), st.integers(0, N_TIMERS - 1), st.integers(0, 500)),
    st.tuples(st.just("timer_rearm"), st.integers(0, N_TIMERS - 1), st.integers(0, 500)),
    st.tuples(st.just("timer_cancel"), st.integers(0, N_TIMERS - 1), st.just(0)),
    st.tuples(st.just("run_until"), st.integers(0, 600), st.just(0)),
)

_program = st.lists(_op, min_size=1, max_size=40)


def _drive(make_engine, program):
    """Run one op program; return the complete observable record.

    Scheduled callbacks log ``(key, now)``; keys divisible by 3 schedule
    one deterministic child from *inside* dispatch, which on the
    calendar engine lands in the live day's unconsumed tail (the insort
    path) whenever the child delay is small.
    """
    eng = make_engine()
    log = []
    record = []

    def make_cb(key):
        def cb():
            log.append((key, eng.now))
            if key % 3 == 0:
                eng.schedule((key * 7) % 90, make_cb(key + 1_000))

        return cb

    timers = [eng.timer((lambda i=i: log.append(("timer", i, eng.now)))) for i in range(N_TIMERS)]
    for kind, a, b in program:
        if kind in ("schedule", "schedule_far"):
            eng.schedule(a, make_cb(b))
        elif kind == "schedule_at":
            eng.schedule_at(eng.now + a, make_cb(b))
        elif kind == "timer_schedule":
            timers[a].schedule(b)
        elif kind == "timer_rearm":
            timers[a].schedule_at(eng.now + b)
        elif kind == "timer_cancel":
            timers[a].cancel()
        elif kind == "run_until":
            eng.run(until_usec=eng.now + a)
            record.append(("after_run", eng.now, eng.pending(), tuple(log)))
    eng.run()
    record.append(("final", eng.now, eng.pending(), eng.events_scheduled, tuple(log)))
    return record


def _assert_calendar_matches_heap(program, make_calendar=CalendarEngine):
    heap_record = _drive(HeapEngine, program)
    cal_record = _drive(make_calendar, program)
    assert cal_record == heap_record


class TestRandomizedDifferential:
    @settings(max_examples=200, deadline=None)
    @given(
        program=_program,
        shift=st.integers(CalendarEngine.MIN_SHIFT, CalendarEngine.MAX_SHIFT),
    )
    def test_calendar_matches_heap(self, program, shift):
        # Narrow widths force frequent day rollovers and overflow
        # traffic; wide ones put a whole program in a few days.
        _assert_calendar_matches_heap(program, lambda: CalendarEngine(shift))

    @settings(max_examples=50, deadline=None)
    @given(program=_program)
    def test_default_width_matches_heap(self, program):
        _assert_calendar_matches_heap(program)


# ---------------------------------------------------------------------------
# Calendar internals, at each fixed width
# ---------------------------------------------------------------------------

class TestBucketRollover:
    #: Day width exponent the suite runs at; subclasses run the others.
    SHIFT = WIDTHS["min"]

    def test_events_beyond_one_rotation_dispatch_in_order(self):
        # Span several years so the same physical buckets are reused.
        eng = CalendarEngine(self.SHIFT)
        year = eng._nbuckets << self.SHIFT
        delays = (5, 24 * year + 1, 5 * year + 7, 3, 12 * year, 2 * year + 9)
        seen = []
        for delay in delays:
            eng.schedule(delay, lambda d=delay: seen.append((d, eng.now)))
        eng.run()
        assert seen == sorted(seen, key=lambda item: item[1])
        assert [d for d, _ in seen] == sorted(delays)

    def test_same_day_fifo_matches_heap_tie_break(self):
        eng = CalendarEngine(self.SHIFT)
        seen = []
        for label in "abcd":
            eng.schedule(3, lambda l=label: seen.append(l))
        eng.run()
        assert seen == ["a", "b", "c", "d"]

    def test_callback_scheduling_into_live_day_dispatches_this_day(self):
        eng = CalendarEngine(self.SHIFT)
        width = 1 << self.SHIFT
        seen = []
        # Both children land in the day being dispatched; insort must
        # slot them into the unconsumed tail, in (time, seq) order.
        def first():
            seen.append("first")
            eng.schedule(width // 2, lambda: seen.append("late"))
            eng.schedule(width // 4, lambda: seen.append("early"))

        eng.schedule(1, first)
        eng.schedule(width - 1, lambda: seen.append("tail"))
        eng.run()
        assert seen == ["first", "early", "late", "tail"]


class TestOverflowRebucketing:
    SHIFT = WIDTHS["min"]

    def test_far_future_event_waits_in_overflow(self):
        eng = CalendarEngine(self.SHIFT)
        horizon = eng._horizon
        eng.schedule(horizon + 123, lambda: None)
        assert len(eng._overflow) == 1
        assert eng.pending() == 1

    def test_overflow_drains_as_horizon_advances(self):
        eng = CalendarEngine(self.SHIFT)
        seen = []
        far = eng._horizon + 500
        eng.schedule_at(far, lambda: seen.append(eng.now))
        eng.schedule(1, lambda: None)  # keep the wheel non-trivially busy
        eng.run()
        assert seen == [far]
        assert not eng._overflow

    def test_idle_wheel_jumps_to_overflow_minimum(self):
        eng = CalendarEngine(self.SHIFT)
        seen = []
        far = (eng._nbuckets << self.SHIFT) * 10  # ~10 years out
        eng.schedule_at(far, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [far]


class TestRunUntilBoundary:
    SHIFT = WIDTHS["min"]

    def test_resume_exactly_at_bucket_boundary(self):
        eng = CalendarEngine(self.SHIFT)
        width = 1 << self.SHIFT
        seen = []
        for when in (width - 1, width, width + 1, 2 * width - 1, 2 * width):
            eng.schedule_at(when, lambda w=when: seen.append(w))
        eng.run(until_usec=width)  # end of day 0 / start of day 1
        assert seen == [width - 1, width]
        assert eng.now == width
        eng.run(until_usec=2 * width)
        assert seen == [width - 1, width, width + 1, 2 * width - 1, 2 * width]
        eng.run()
        assert eng.now == 2 * width

    def test_partial_day_resumes_mid_bucket(self):
        eng = CalendarEngine(self.SHIFT)
        step = (1 << self.SHIFT) // 8  # four events, all in day 0
        times = [step * k for k in (1, 2, 3, 4)]
        seen = []
        for when in times:
            eng.schedule_at(when, lambda w=when: seen.append(w))
        eng.run(until_usec=2 * step + step // 2)
        assert seen == times[:2]
        assert eng.pending() == 2
        eng.run()
        assert seen == times

    def test_until_check_only_in_boundary_day(self):
        # An event past until, in a bucket physically before until's
        # (the year wrapped), must still not run: guards the
        # boundary_day fast path.
        eng = CalendarEngine(self.SHIFT)
        width = 1 << self.SHIFT
        seen = []
        eng.schedule_at(6 * width + 4, lambda: seen.append("early"))
        eng.schedule_at(312 * width + 8, lambda: seen.append("late"))
        eng.run(until_usec=250 * width)
        assert seen == ["early"]
        assert eng.now == 250 * width


class TestBucketRolloverAt50Mbps(TestBucketRollover):
    SHIFT = WIDTHS["50mbps"]


class TestBucketRolloverAt8Mbps(TestBucketRollover):
    SHIFT = WIDTHS["8mbps"]


class TestBucketRolloverAtMaxShift(TestBucketRollover):
    SHIFT = WIDTHS["max"]


class TestOverflowRebucketingAt50Mbps(TestOverflowRebucketing):
    SHIFT = WIDTHS["50mbps"]


class TestOverflowRebucketingAt8Mbps(TestOverflowRebucketing):
    SHIFT = WIDTHS["8mbps"]


class TestOverflowRebucketingAtMaxShift(TestOverflowRebucketing):
    SHIFT = WIDTHS["max"]


class TestRunUntilBoundaryAt50Mbps(TestRunUntilBoundary):
    SHIFT = WIDTHS["50mbps"]


class TestRunUntilBoundaryAt8Mbps(TestRunUntilBoundary):
    SHIFT = WIDTHS["8mbps"]


class TestRunUntilBoundaryAtMaxShift(TestRunUntilBoundary):
    SHIFT = WIDTHS["max"]


def test_day_of_same_microsecond_events_stays_fifo():
    # More events in one microsecond than any day is sized for: no width
    # can split them, and events they schedule at the same instant
    # (insorted into the live day) run after all of them, in scheduling
    # order.
    def run(make_engine):
        eng = make_engine()
        log = []

        def first_wave(i):
            log.append(("first", i, eng.now))
            if i % 100 == 0:
                eng.schedule(0, second_wave, i)

        def second_wave(i):
            log.append(("second", i, eng.now))

        for i in range(1_500):
            eng.schedule_at(777, first_wave, i)
        eng.schedule_at(778, second_wave, -1)
        eng.run()
        return log, eng.now, eng.pending()

    calendar = run(lambda: CalendarEngine(WIDTHS["50mbps"]))
    assert calendar == run(HeapEngine)
    log = calendar[0]
    assert [entry[:2] for entry in log[:1_500]] == [
        ("first", i) for i in range(1_500)
    ]
    assert [entry[:2] for entry in log[1_500:]] == [
        ("second", i) for i in range(0, 1_500, 100)
    ] + [("second", -1)]


# ---------------------------------------------------------------------------
# The day width of a simulation
# ---------------------------------------------------------------------------

class TestDayWidth:
    def test_width_is_a_pure_function_of_the_rate(self):
        assert day_shift(units.mbps(8)) == 15
        assert day_shift(units.mbps(50)) == 12
        # An engine built without a width gets the 50 Mbps one.
        assert CalendarEngine.DEFAULT_SHIFT == day_shift(units.mbps(50))
        # Clamped at both ends.
        assert day_shift(units.mbps(0.01)) == CalendarEngine.MAX_SHIFT
        assert day_shift(units.mbps(1e6)) == CalendarEngine.MIN_SHIFT

    @pytest.mark.parametrize("mbps", [8, 50])
    def test_dumbbell_builds_its_engine_at_the_rate_width(self, mbps):
        bell = Dumbbell(NetworkConfig(bandwidth_bps=units.mbps(mbps)))
        assert bell.engine._shift == day_shift(units.mbps(mbps))

    def test_width_holds_through_a_golden_trial(self):
        from tests.test_hotpath_budget import run_golden_pair

        engine = run_golden_pair().bell.engine  # the 8 Mbps golden pair
        assert engine.now > 0
        assert engine._shift == day_shift(units.mbps(8)) == 15

    def test_only_the_constructor_sets_the_width(self):
        # No code path in the engine changes the day width once built.
        tree = ast.parse(inspect.getsource(engine_module))
        writers = {
            function.name
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            for node in ast.walk(function)
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            for target in (
                node.targets if isinstance(node, ast.Assign) else [node.target]
            )
            if isinstance(target, ast.Attribute) and target.attr == "_shift"
        }
        assert writers == {"__init__"}


class TestGoldenFixtureAtEachWidth:
    @pytest.mark.parametrize("shift", list(WIDTHS.values()), ids=list(WIDTHS))
    def test_golden_pair_is_byte_identical(self, shift):
        # A whole trial (report, packet trace, queue log), not an op
        # program: the bytes do not depend on the day width.
        from tests import test_golden_identity as golden

        assert golden.serialize(
            golden.compute_payload(engine=CalendarEngine(shift))
        ) == golden.FIXTURE.read_bytes()


# ---------------------------------------------------------------------------
# Reentrancy
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("make", [HeapEngine, CalendarEngine])
def test_run_from_inside_a_callback_is_refused(make):
    """Oracle and default fail alike, and recover alike."""
    eng = make()
    seen = []

    def reenter():
        with pytest.raises(RuntimeError, match="engine.run is not reentrant"):
            eng.run()
        seen.append(eng.now)

    eng.schedule(5, reenter)
    eng.schedule(9, lambda: seen.append(eng.now))
    eng.run()
    assert seen == [5, 9]
    eng.run(until_usec=20)  # the guard was released
    assert eng.now == 20


class TestBuildEngine:
    def test_default_is_calendar(self):
        # The one scheduler core; benchmarks/pipeline's engine probe
        # constructs it through build_engine(), at the default width (the
        # 50 Mbps one) its 240 us steps are sized for.
        engine = build_engine()
        assert type(engine) is CalendarEngine
        assert engine._shift == CalendarEngine.DEFAULT_SHIFT


class TestPendingAccounting:
    """The one-event-per-Timer invariant feeds pending() on both engines."""

    @pytest.mark.parametrize("make", [HeapEngine, CalendarEngine])
    def test_cancelled_timer_not_counted(self, make):
        eng = make()
        timer = eng.timer(lambda: None)
        timer.schedule(100)
        assert eng.pending() == 1
        timer.cancel()
        # The wakeup event still sits in the structure, but it is no
        # longer dispatchable work.
        assert eng.pending() == 0
        eng.run()
        assert eng.pending() == 0

    @pytest.mark.parametrize("make", [HeapEngine, CalendarEngine])
    def test_cancel_revive_counts_once(self, make):
        eng = make()
        timer = eng.timer(lambda: None)
        timer.schedule(100)
        timer.cancel()
        timer.schedule(50)  # revives the in-flight wakeup
        assert eng.pending() == 1

    @pytest.mark.parametrize("make", [HeapEngine, CalendarEngine])
    def test_rearm_keeps_single_event(self, make):
        eng = make()
        timer = eng.timer(lambda: None)
        timer.schedule(100)
        for bump in range(1, 30):
            timer.schedule_at(100 + bump)
        assert eng.pending() == 1
        assert eng.events_scheduled == 1
