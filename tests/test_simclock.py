"""Event-clock tests: ordering, cancellation, time semantics."""

import pytest

from repro.netsim.simclock import SimClock


def test_time_starts_at_zero():
    assert SimClock().now == 0.0


def test_events_run_in_time_order():
    clock = SimClock()
    order = []
    clock.schedule(0.3, order.append, "c")
    clock.schedule(0.1, order.append, "a")
    clock.schedule(0.2, order.append, "b")
    clock.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_run_in_scheduling_order():
    """Deterministic FIFO tie-breaking — packet races depend on it."""
    clock = SimClock()
    order = []
    for name in "abcde":
        clock.schedule(1.0, order.append, name)
    clock.run()
    assert order == list("abcde")


def test_run_until_stops_and_advances_time():
    clock = SimClock()
    fired = []
    clock.schedule(5.0, fired.append, 1)
    executed = clock.run(until=2.0)
    assert executed == 0
    assert clock.now == 2.0
    assert not fired
    clock.run(until=6.0)
    assert fired == [1]


def test_run_for_is_relative():
    clock = SimClock()
    clock.run_for(3.0)
    clock.schedule(1.0, lambda: None)
    clock.run_for(0.5)
    assert clock.now == 3.5
    assert clock.pending() == 1


def test_cancellation():
    clock = SimClock()
    fired = []
    handle = clock.schedule(1.0, fired.append, 1)
    handle.cancel()
    clock.run()
    assert not fired
    assert clock.pending() == 0


def test_schedule_during_event_execution():
    clock = SimClock()
    order = []

    def outer():
        order.append("outer")
        clock.schedule(0.5, order.append, "inner")

    clock.schedule(1.0, outer)
    clock.run()
    assert order == ["outer", "inner"]
    assert clock.now == 1.5


def test_schedule_at_absolute_time():
    clock = SimClock()
    fired = []
    clock.run_for(2.0)
    clock.schedule_at(3.0, fired.append, "x")
    clock.run()
    assert fired == ["x"]
    assert clock.now == 3.0


def test_schedule_at_past_runs_immediately():
    clock = SimClock()
    clock.run_for(5.0)
    fired = []
    clock.schedule_at(1.0, fired.append, "late")
    clock.run()
    assert fired == ["late"]
    assert clock.now == 5.0


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        SimClock().schedule(-1.0, lambda: None)


def test_max_events_guard():
    clock = SimClock()

    def rearm():
        clock.schedule(0.001, rearm)

    clock.schedule(0.0, rearm)
    executed = clock.run(max_events=100)
    assert executed == 100


def test_callback_args_passed_through():
    clock = SimClock()
    seen = []
    clock.schedule(0.0, lambda a, b: seen.append((a, b)), 1, "two")
    clock.run()
    assert seen == [(1, "two")]


def _lowering_schedule(clock, fired):
    """t=1 lowers the clock's own horizon; its same-instant peer still
    fires, nothing later does."""

    def stop():
        fired.append("stop")
        clock._run_until = clock.now

    clock.schedule(0.5, fired.append, "early")
    clock.schedule(1.0, stop)
    clock.schedule(1.0, fired.append, "same-instant")
    clock.schedule(2.0, fired.append, "late")


def test_event_lowering_the_horizon_ends_the_run():
    clock = SimClock()
    fired = []
    _lowering_schedule(clock, fired)
    executed = clock.run(until=10.0)
    assert fired == ["early", "stop", "same-instant"]
    assert executed == 3
    # The run ends at its final horizon, not at the requested one.
    assert clock.now == 1.0
    assert clock._run_until == float("inf")
    assert clock.pending() == 1  # the t=2 event stays queued, unfired
