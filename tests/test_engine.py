"""Discrete-event engine: ordering, determinism, clock semantics."""

import pytest
from hypothesis import given, strategies as st

from repro.netsim.engine import CalendarEngine, Timer


class TestScheduling:
    def test_runs_in_time_order(self):
        engine = CalendarEngine()
        seen = []
        engine.schedule(30, lambda: seen.append("c"))
        engine.schedule(10, lambda: seen.append("a"))
        engine.schedule(20, lambda: seen.append("b"))
        engine.run()
        assert seen == ["a", "b", "c"]

    def test_same_time_fifo(self):
        engine = CalendarEngine()
        seen = []
        for label in "abcde":
            engine.schedule(5, lambda l=label: seen.append(l))
        engine.run()
        assert seen == list("abcde")

    def test_clock_advances_to_event_time(self):
        engine = CalendarEngine()
        times = []
        engine.schedule(100, lambda: times.append(engine.now))
        engine.run()
        assert times == [100]

    def test_schedule_at_absolute(self):
        engine = CalendarEngine()
        seen = []
        engine.schedule_at(42, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [42]

    def test_nested_scheduling(self):
        engine = CalendarEngine()
        seen = []

        def outer():
            seen.append(("outer", engine.now))
            engine.schedule(5, lambda: seen.append(("inner", engine.now)))

        engine.schedule(10, outer)
        engine.run()
        assert seen == [("outer", 10), ("inner", 15)]

    def test_rejects_negative_delay(self):
        engine = CalendarEngine()
        with pytest.raises(ValueError):
            engine.schedule(-1, lambda: None)

    def test_rejects_past_absolute_time(self):
        engine = CalendarEngine()
        engine.schedule(10, lambda: None)
        engine.run()
        with pytest.raises(ValueError):
            engine.schedule_at(5, lambda: None)


class TestArgEvents:
    """The 4-tuple event form: ``schedule(delay, fn, arg)`` -> ``fn(arg)``."""

    def test_arg_is_passed_through(self):
        engine = CalendarEngine()
        seen = []
        engine.schedule(10, seen.append, "payload")
        engine.run()
        assert seen == ["payload"]

    def test_none_is_a_valid_arg(self):
        # The no-arg sentinel is identity-checked, so scheduling fn(None)
        # must dispatch with the explicit None, not as a zero-arg call.
        engine = CalendarEngine()
        seen = []
        engine.schedule(10, seen.append, None)
        engine.run()
        assert seen == [None]

    def test_schedule_at_takes_arg(self):
        engine = CalendarEngine()
        seen = []
        engine.schedule_at(42, seen.append, "abs")
        engine.run()
        assert seen == ["abs"]

    def test_same_time_fifo_across_both_forms(self):
        # Closure-form and arg-form events scheduled at the same instant
        # must interleave in scheduling order (seq tie-break), since
        # bit-reproducibility rests on exactly this.
        engine = CalendarEngine()
        seen = []
        engine.schedule(5, lambda: seen.append("closure-1"))
        engine.schedule(5, seen.append, "arg-1")
        engine.schedule(5, lambda: seen.append("closure-2"))
        engine.schedule(5, seen.append, "arg-2")
        engine.run()
        assert seen == ["closure-1", "arg-1", "closure-2", "arg-2"]


class TestRunUntil:
    def test_stops_at_boundary(self):
        engine = CalendarEngine()
        seen = []
        engine.schedule(10, lambda: seen.append(10))
        engine.schedule(30, lambda: seen.append(30))
        engine.run(until_usec=20)
        assert seen == [10]
        assert engine.now == 20

    def test_boundary_event_included(self):
        engine = CalendarEngine()
        seen = []
        engine.schedule(20, lambda: seen.append(20))
        engine.run(until_usec=20)
        assert seen == [20]

    def test_resume_after_boundary(self):
        engine = CalendarEngine()
        seen = []
        engine.schedule(10, lambda: seen.append(10))
        engine.schedule(30, lambda: seen.append(30))
        engine.run(until_usec=20)
        engine.run(until_usec=40)
        assert seen == [10, 30]

    def test_clock_jumps_to_until_when_idle(self):
        engine = CalendarEngine()
        engine.run(until_usec=500)
        assert engine.now == 500

    def test_resume_preserves_relative_scheduling(self):
        # After an idle jump to the boundary, relative delays are anchored
        # at the boundary time, not at the last processed event.
        engine = CalendarEngine()
        seen = []
        engine.run(until_usec=100)
        engine.schedule(10, lambda: seen.append(engine.now))
        engine.run(until_usec=200)
        assert seen == [110]
        assert engine.now == 200

    def test_resume_runs_boundary_event_exactly_once(self):
        engine = CalendarEngine()
        seen = []
        engine.schedule(20, lambda: seen.append(engine.now))
        engine.run(until_usec=20)
        engine.run(until_usec=40)
        assert seen == [20]

    def test_pending_count(self):
        engine = CalendarEngine()
        engine.schedule(10, lambda: None)
        engine.schedule(20, lambda: None)
        assert engine.pending() == 2
        engine.run()
        assert engine.pending() == 0


class TestTimer:
    """Lazy-cancellation timer handles (the RTO fast path)."""

    def test_fires_at_deadline(self):
        engine = CalendarEngine()
        fired = []
        timer = engine.timer(lambda: fired.append(engine.now))
        timer.schedule(100)
        assert timer.armed
        engine.run()
        assert fired == [100]
        assert not timer.armed

    def test_cancel_suppresses_callback(self):
        engine = CalendarEngine()
        fired = []
        timer = engine.timer(lambda: fired.append(engine.now))
        timer.schedule(100)
        timer.cancel()
        engine.run()
        assert fired == []
        # The stale heap event drained as a no-op.
        assert engine.pending() == 0

    def test_rearm_forward_keeps_one_heap_event(self):
        # Rearming must not push a second event: the stale wakeup notices
        # the moved deadline and chases it.
        engine = CalendarEngine()
        fired = []
        timer = engine.timer(lambda: fired.append(engine.now))
        timer.schedule(100)
        timer.schedule(250)
        assert engine.pending() == 1
        engine.run(until_usec=100)
        assert fired == []
        assert engine.pending() == 1  # the chase event at 250
        engine.run()
        assert fired == [250]

    def test_repeated_rearm_is_heap_free(self):
        # The common RTO pattern: the deadline moves on every ACK but the
        # heap only ever holds the original wakeup.
        engine = CalendarEngine()
        fired = []
        timer = engine.timer(lambda: fired.append(engine.now))
        timer.schedule(100)
        for bump in range(1, 50):
            timer.schedule_at(100 + bump)
        assert engine.pending() == 1
        engine.run()
        assert fired == [149]

    def test_rearm_earlier_fires_at_stale_wakeup(self):
        # Documented semantic: the timer never chases a deadline that
        # moved *earlier*; the callback fires (late) at the pending wakeup
        # time.  This mirrors the pre-handle RTO implementation exactly.
        engine = CalendarEngine()
        fired = []
        timer = engine.timer(lambda: fired.append(engine.now))
        timer.schedule_at(200)
        timer.schedule_at(150)
        assert timer.deadline == 150
        engine.run()
        assert fired == [200]

    def test_rearm_after_fire(self):
        engine = CalendarEngine()
        fired = []
        timer = engine.timer(lambda: fired.append(engine.now))
        timer.schedule(10)
        engine.run()
        timer.schedule(10)
        engine.run()
        assert fired == [10, 20]

    def test_cancel_then_rearm_reuses_pending_event(self):
        # cancel() leaves the heap event in place; a rearm before it
        # drains just sets the deadline again.
        engine = CalendarEngine()
        fired = []
        timer = engine.timer(lambda: fired.append(engine.now))
        timer.schedule_at(100)
        timer.cancel()
        timer.schedule_at(90)
        assert engine.pending() == 1
        engine.run()
        # The stale wakeup at 100 sees deadline 90 already expired.
        assert fired == [100]

    def test_timer_factory_returns_timer(self):
        engine = CalendarEngine()
        assert isinstance(engine.timer(lambda: None), Timer)


class TestDeterminism:
    @given(st.lists(st.integers(min_value=0, max_value=1000), max_size=50))
    def test_identical_schedules_run_identically(self, delays):
        def run_once():
            engine = CalendarEngine()
            seen = []
            for i, d in enumerate(delays):
                engine.schedule(d, lambda i=i: seen.append((engine.now, i)))
            engine.run()
            return seen

        assert run_once() == run_once()

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50))
    def test_events_never_run_out_of_order(self, delays):
        engine = CalendarEngine()
        stamps = []
        for d in delays:
            engine.schedule(d, lambda: stamps.append(engine.now))
        engine.run()
        assert stamps == sorted(stamps)
