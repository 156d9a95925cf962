"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine, SimError


class TestScheduling:
    def test_runs_in_time_order(self):
        eng = Engine()
        order = []
        eng.schedule(2.0, order.append, "b")
        eng.schedule(1.0, order.append, "a")
        eng.schedule(3.0, order.append, "c")
        eng.run()
        assert order == ["a", "b", "c"]

    def test_ties_run_in_schedule_order(self):
        eng = Engine()
        order = []
        for tag in "abc":
            eng.schedule(1.0, order.append, tag)
        eng.run()
        assert order == ["a", "b", "c"]

    def test_clock_advances(self):
        eng = Engine()
        seen = []
        eng.schedule(1.5, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [1.5]
        assert eng.now == 1.5

    def test_rejects_past(self):
        eng = Engine()
        eng.schedule(1.0, lambda: None)
        eng.run()
        with pytest.raises(SimError):
            eng.schedule(0.5, lambda: None)

    def test_rejects_nan(self):
        """``nan < now`` is False: a NaN time used to pass the past-time
        check and reach the heap, where it dispatched between 0.5 and
        1.0 and set ``now`` to NaN."""
        eng = Engine()
        seen = []
        for t in (3.0, 1.0, 2.0, 0.5):
            eng.schedule(t, lambda: seen.append(eng.now))
        with pytest.raises(SimError):
            eng.schedule(float("nan"), lambda: None)
        with pytest.raises(SimError):
            eng.schedule_after(float("nan"), lambda: None)
        eng.run()
        assert seen == [0.5, 1.0, 2.0, 3.0]
        assert eng.now == 3.0

    def test_schedule_after(self):
        eng = Engine()
        seen = []
        eng.schedule(1.0, lambda: eng.schedule_after(0.5, lambda: seen.append(eng.now)))
        eng.run()
        assert seen == [1.5]

    def test_negative_delay_rejected(self):
        eng = Engine()
        with pytest.raises(SimError):
            eng.schedule_after(-1.0, lambda: None)


class TestRunControl:
    def test_until_stops_and_advances_clock(self):
        eng = Engine()
        seen = []
        eng.schedule(1.0, seen.append, 1)
        eng.schedule(5.0, seen.append, 5)
        eng.run(until=2.0)
        assert seen == [1]
        assert eng.now == 2.0
        eng.run()
        assert seen == [1, 5]

    def test_max_events(self):
        eng = Engine()
        seen = []
        for i in range(10):
            eng.schedule(float(i), seen.append, i)
        eng.run(max_events=3)
        assert seen == [0, 1, 2]

    def test_empty_run_until_advances_clock(self):
        eng = Engine()
        eng.run(until=7.0)
        assert eng.now == 7.0

    def test_dispatch_counter(self):
        eng = Engine()
        for i in range(4):
            eng.schedule(float(i), lambda: None)
        eng.run()
        assert eng.n_dispatched == 4

    def test_until_with_max_events_stop_keeps_clock_at_last_event(self):
        """When max_events stops the run first, the clock must stay at
        the last dispatched event -- not jump forward to ``until``."""
        eng = Engine()
        for i in range(10):
            eng.schedule(float(i), lambda: None)
        eng.run(until=100.0, max_events=3)
        assert eng.now == 2.0
        # resuming picks up exactly where it stopped
        eng.run(until=100.0)
        assert eng.now == 100.0
        assert eng.n_dispatched == 10

    def test_until_with_max_events_until_wins(self):
        """When ``until`` is hit before the event budget, the clock does
        advance to ``until`` as usual."""
        eng = Engine()
        eng.schedule(1.0, lambda: None)
        eng.schedule(50.0, lambda: None)
        eng.run(until=10.0, max_events=99)
        assert eng.now == 10.0

    def test_max_events_exactly_exhausts_heap(self):
        """Edge: the budget runs out on the final event.  The stop is
        still attributed to ``max_events``, so the clock conservatively
        stays at the last dispatched event (events scheduled *by* that
        last handler could still be due before ``until``)."""
        eng = Engine()
        for i in range(3):
            eng.schedule(float(i), lambda: None)
        eng.run(until=10.0, max_events=3)
        assert eng.now == 2.0
        eng.run(until=10.0)
        assert eng.now == 10.0

    def test_not_reentrant(self):
        eng = Engine()

        def reenter():
            eng.run()

        eng.schedule(1.0, reenter)
        with pytest.raises(SimError):
            eng.run()


class TestPending:
    def test_pending_tracks_heap_size(self):
        eng = Engine()
        assert eng.pending == 0
        eng.schedule(1.0, lambda: None)
        eng.schedule(2.0, lambda: None)
        assert eng.pending == 2
        eng.run(until=1.5)
        assert eng.pending == 1
        eng.run()
        assert eng.pending == 0

    def test_pending_counts_cancelled_entries(self):
        """``pending`` is a heap-hygiene gauge: lazily-cancelled events
        still occupy heap slots and must show up in it."""
        eng = Engine()
        for _ in range(5):
            eng.schedule(1.0, lambda: None, handle=True).cancel()
        assert eng.pending == 5
        eng.run()
        assert eng.pending == 0


class TestCancellation:
    def test_cancelled_event_skipped(self):
        eng = Engine()
        seen = []
        h = eng.schedule(1.0, seen.append, "x", handle=True)
        h.cancel()
        eng.run()
        assert seen == []

    def test_peek_time(self):
        eng = Engine()
        assert eng.peek_time() is None
        eng.schedule(3.0, lambda: None)
        assert eng.peek_time() == 3.0
