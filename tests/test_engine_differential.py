"""Differential tests: CalendarEngine must match HeapEngine exactly.

The calendar queue is the simulator's one scheduler core; the binary
heap in ``tests/naive_engine.py`` is the dispatch-order oracle.  Layers
of evidence that they are interchangeable:

* randomized op programs (hypothesis): arbitrary mixes of schedule /
  schedule_at / Timer rearm / cancel / nested scheduling from inside
  callbacks / segmented run(until) must produce the identical dispatch
  log, clock, and pending() count on both engines - across bucket
  widths, so rollover/overflow/active-day insertion all get exercised;
* calendar internals unit tests: bucket rollover, overflow rebucketing,
  adaptive-resize thresholds, and run(until) resume at an exact bucket
  boundary;
* the same programs and internals at the day geometry the engine had up
  to PR 17 (``LEGACY_GEOMETRY``): dispatch order depends on ``(time,
  seq)`` and never on how many events a day is sized for, so every case
  runs at both;
* an 11-scenario fixed-seed grid of real trials (every artifact the
  simulator publishes, hashed) in test_engine_grid.py.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.engine import CalendarEngine, build_engine

from tests.naive_engine import HeapEngine


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


def _assert_calendar_matches_heap(program, shift=None):
    heap_record = _drive(HeapEngine, program)
    cal_record = _drive(lambda: CalendarEngine(shift=shift), program)
    assert cal_record == heap_record


class TestRandomizedDifferential:
    @settings(max_examples=200, deadline=None)
    @given(program=_program, shift=st.integers(4, 10))
    def test_calendar_matches_heap(self, program, shift):
        # A narrow fixed initial width forces frequent day rollovers and
        # overflow traffic; the adaptive resize stays enabled on top.
        _assert_calendar_matches_heap(program, shift)

    @settings(max_examples=50, deadline=None)
    @given(program=_program)
    def test_default_width_matches_heap(self, program):
        _assert_calendar_matches_heap(program)


# ---------------------------------------------------------------------------
# Calendar internals
# ---------------------------------------------------------------------------

class TestBucketRollover:
    def test_events_beyond_one_rotation_dispatch_in_order(self):
        # Span several years so the same physical buckets are reused.
        eng = CalendarEngine(shift=4)  # 16 us days, 4.1 ms years
        seen = []
        for delay in (5, 100_000, 20_000, 3, 50_000, 9_999):
            eng.schedule(delay, lambda d=delay: seen.append((d, eng.now)))
        eng.run()
        assert seen == sorted(seen, key=lambda item: item[1])
        assert [d for d, _ in seen] == [3, 5, 9_999, 20_000, 50_000, 100_000]

    def test_same_day_fifo_matches_heap_tie_break(self):
        eng = CalendarEngine(shift=8)
        seen = []
        for label in "abcd":
            eng.schedule(100, lambda l=label: seen.append(l))
        eng.run()
        assert seen == ["a", "b", "c", "d"]

    def test_callback_scheduling_into_live_day_dispatches_this_day(self):
        eng = CalendarEngine(shift=8)  # 256 us days
        seen = []
        # 10 and 20 land in the day being dispatched; insort must slot
        # them into the unconsumed tail, in (time, seq) order.
        def first():
            seen.append("first")
            eng.schedule(20, lambda: seen.append("late"))
            eng.schedule(10, lambda: seen.append("early"))

        eng.schedule(5, first)
        eng.schedule(200, lambda: seen.append("tail"))
        eng.run()
        assert seen == ["first", "early", "late", "tail"]


class TestOverflowRebucketing:
    def test_far_future_event_waits_in_overflow(self):
        eng = CalendarEngine(shift=4)
        horizon = eng._horizon
        eng.schedule(horizon + 123, lambda: None)
        assert len(eng._overflow) == 1
        assert eng.pending() == 1

    def test_overflow_drains_as_horizon_advances(self):
        eng = CalendarEngine(shift=4)
        seen = []
        far = eng._horizon + 500
        eng.schedule_at(far, lambda: seen.append(eng.now))
        eng.schedule(1, lambda: None)  # keep the wheel non-trivially busy
        eng.run()
        assert seen == [far]
        assert not eng._overflow

    def test_idle_wheel_jumps_to_overflow_minimum(self):
        eng = CalendarEngine(shift=4)
        seen = []
        far = (eng._nbuckets << 4) * 10  # ~10 years out
        eng.schedule_at(far, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [far]


class TestAdaptiveResize:
    def test_overfull_day_narrows_immediately(self):
        eng = CalendarEngine(shift=12)  # 4 ms days
        n = CalendarEngine.OVERFULL_PER_DAY
        for i in range(n):
            eng.schedule(10 + i, lambda: None)
        eng.run()
        assert eng._resizes >= 1
        assert eng._shift < 12

    def test_sparse_workload_widens_only_with_confirmation(self):
        # One event every ~8 days at shift 4: every rotation suggests
        # widening; the first rotation only records the suggestion, the
        # second applies it.
        eng = CalendarEngine(shift=4)
        for i in range(1, 400):
            eng.schedule_at(i * 128, lambda: None)
        eng.run()
        assert eng._shift > 4
        assert eng._resizes >= 1

    def test_busy_days_at_target_do_not_resize(self):
        # TARGET_PER_DAY events per day, everywhere: no move.
        eng = CalendarEngine(shift=8)
        per_day = CalendarEngine.TARGET_PER_DAY
        width = 1 << 8
        for day in range(600):
            for k in range(per_day):
                eng.schedule_at(day * width + 10 + k, lambda: None)
        eng.run()
        assert eng._resizes == 0
        assert eng._shift == 8

    def test_resize_preserves_dispatch_order(self):
        program = [("schedule", d % 350, d % 12) for d in range(0, 3000, 7)]
        program += [("run_until", 200, 0), ("schedule_far", 300_000, 3)]
        assert _drive(lambda: CalendarEngine(shift=4), program) == _drive(
            HeapEngine, program
        )


    def test_day_one_short_of_overfull_waits_for_the_rotation(self):
        # OVERFULL_PER_DAY events in one day narrow at that day's close,
        # by log2(count / TARGET_PER_DAY) steps; one event fewer leaves
        # the width alone until the rotation's ordinary resize.
        def shift_seen_next_day(count):
            eng = CalendarEngine(shift=12)  # 4 ms days
            for i in range(count):
                eng.schedule_at(10 + (i % 4_000), lambda: None)
            seen = []
            eng.schedule_at((1 << 12) + 5, lambda: seen.append(eng._shift))
            eng.run()
            return seen[0]

        overfull = CalendarEngine.OVERFULL_PER_DAY
        steps = (overfull // CalendarEngine.TARGET_PER_DAY).bit_length() - 1
        assert shift_seen_next_day(overfull) == 12 - steps
        assert shift_seen_next_day(overfull - 1) == 12

    def test_day_of_same_microsecond_events_stays_fifo(self):
        # More events in one microsecond than any day is sized for: no
        # width can split them, the forced narrowing must not reorder
        # them, and events they schedule at the same instant (insorted
        # into the live day) run after all of them, in scheduling order.
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

        assert CalendarEngine.OVERFULL_PER_DAY < 1_500
        calendar = run(CalendarEngine)
        assert calendar == run(HeapEngine)
        log = calendar[0]
        assert [entry[:2] for entry in log[:1_500]] == [
            ("first", i) for i in range(1_500)
        ]
        assert [entry[:2] for entry in log[1_500:]] == [
            ("second", i) for i in range(0, 1_500, 100)
        ] + [("second", -1)]


class TestRunUntilBoundary:
    def test_resume_exactly_at_bucket_boundary(self):
        eng = CalendarEngine(shift=8)  # day width 256
        seen = []
        for when in (255, 256, 257, 511, 512):
            eng.schedule_at(when, lambda w=when: seen.append(w))
        eng.run(until_usec=256)  # boundary: end of day 0 / start of day 1
        assert seen == [255, 256]
        assert eng.now == 256
        eng.run(until_usec=512)
        assert seen == [255, 256, 257, 511, 512]
        eng.run()
        assert eng.now == 512

    def test_partial_day_resumes_mid_bucket(self):
        eng = CalendarEngine(shift=8)
        seen = []
        for when in (10, 20, 30, 40):
            eng.schedule_at(when, lambda w=when: seen.append(w))
        eng.run(until_usec=25)
        assert seen == [10, 20]
        assert eng.pending() == 2
        eng.run()
        assert seen == [10, 20, 30, 40]

    def test_until_check_only_in_boundary_day(self):
        # An event scheduled past until but in an earlier bucket must
        # still not run (guards the boundary_day fast-path logic).
        eng = CalendarEngine(shift=4)
        seen = []
        eng.schedule_at(100, lambda: seen.append(100))
        eng.schedule_at(5_000, lambda: seen.append(5_000))
        eng.run(until_usec=4_000)
        assert seen == [100]
        assert eng.now == 4_000


# ---------------------------------------------------------------------------
# The same cases at the old day geometry
# ---------------------------------------------------------------------------

#: ``TARGET_PER_DAY`` / ``OVERFULL_PER_DAY`` up to PR 17.
LEGACY_GEOMETRY = {"TARGET_PER_DAY": 4, "OVERFULL_PER_DAY": 64}


@pytest.fixture(scope="class")
def legacy_geometry():
    # Class-scoped (hypothesis rejects function-scoped fixtures): the
    # engine reads both attributes through the class on every run().
    with pytest.MonkeyPatch.context() as patch:
        for name, value in LEGACY_GEOMETRY.items():
            patch.setattr(CalendarEngine, name, value)
        yield


@pytest.mark.usefixtures("legacy_geometry")
class TestRandomizedDifferentialLegacyGeometry:
    # Its own @given methods: hypothesis refuses one test function run
    # from two classes.
    @settings(max_examples=200, deadline=None)
    @given(program=_program, shift=st.integers(4, 10))
    def test_calendar_matches_heap(self, program, shift):
        _assert_calendar_matches_heap(program, shift)

    @settings(max_examples=50, deadline=None)
    @given(program=_program)
    def test_default_width_matches_heap(self, program):
        _assert_calendar_matches_heap(program)


@pytest.mark.usefixtures("legacy_geometry")
class TestBucketRolloverLegacyGeometry(TestBucketRollover):
    pass


@pytest.mark.usefixtures("legacy_geometry")
class TestOverflowRebucketingLegacyGeometry(TestOverflowRebucketing):
    pass


@pytest.mark.usefixtures("legacy_geometry")
class TestAdaptiveResizeLegacyGeometry(TestAdaptiveResize):
    def test_the_patch_is_in_force(self):
        assert CalendarEngine.TARGET_PER_DAY == 4
        assert CalendarEngine().OVERFULL_PER_DAY == 64


@pytest.mark.usefixtures("legacy_geometry")
class TestRunUntilBoundaryLegacyGeometry(TestRunUntilBoundary):
    pass


@pytest.mark.usefixtures("legacy_geometry")
class TestGoldenFixtureLegacyGeometry:
    def test_golden_pair_is_byte_identical(self):
        # A whole trial (report, packet trace, queue log), not an op
        # program: the bytes do not depend on the day size either.
        from tests import test_golden_identity as golden

        assert CalendarEngine.TARGET_PER_DAY == 4
        assert golden.serialize(golden.compute_payload()) == (
            golden.FIXTURE.read_bytes()
        )


def test_default_geometry_is_restored_after_the_legacy_classes():
    assert CalendarEngine.TARGET_PER_DAY == 64
    assert CalendarEngine.OVERFULL_PER_DAY == 16 * CalendarEngine.TARGET_PER_DAY


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
        # constructs it through build_engine().
        assert type(build_engine()) is CalendarEngine


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
