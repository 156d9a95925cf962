"""Unit tests for the coarse timer-wheel (cancel-heavy timeouts).

The firing and cancellation tests run twice: on the simulator's
:class:`Engine`, and on an :class:`AsyncRuntime` over a real event
loop -- the two hosts the runtime seam gives a wheel.  On the loop a
time unit is 50 ms and a deadline is checked to be never early and
late by no more than the loop's own latency.
"""

import asyncio

import pytest

from repro.runtime.async_runtime import AsyncRuntime
from repro.sim.engine import Engine, SimError
from repro.sim.timerwheel import TimerWheel


class EngineHost:
    """The simulator: times are engine seconds, and exact."""

    def __init__(self):
        self.clock = Engine()

    def wheel(self, tick):
        return TimerWheel(self.clock, tick=tick)

    def t(self, units):
        return units

    @property
    def now(self):
        return self.clock.now

    def at(self, units, fn, *args):
        self.clock.schedule(units, fn, *args)

    def run(self, units):
        self.clock.run()  # to an empty heap: ``units`` is for the loop

    def assert_times(self, got, want):
        assert got == want

    def close(self):
        pass


class LoopHost:
    """A real event loop under an :class:`AsyncRuntime`."""

    UNIT = 0.05  # seconds per test time unit
    LATE = 0.5   # units a callback may run after its deadline

    def __init__(self):
        self.loop = asyncio.new_event_loop()
        self.clock = AsyncRuntime(self.loop)

    def wheel(self, tick):
        return TimerWheel(self.clock, tick=tick * self.UNIT)

    def t(self, units):
        return units * self.UNIT

    @property
    def now(self):
        return self.clock.now / self.UNIT

    def at(self, units, fn, *args):
        self.clock.schedule(units * self.UNIT, fn, *args)

    def run(self, units):
        self.loop.run_until_complete(asyncio.sleep(units * self.UNIT))

    def assert_times(self, got, want):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert w - 1e-6 <= g <= w + self.LATE, (got, want)

    def close(self):
        self.loop.close()


class Hosted:
    """A fresh host per test; subclasses swap the host type."""

    host_type = EngineHost

    def setup_method(self):
        self.host = self.host_type()

    def teardown_method(self):
        self.host.close()


class TestFiring(Hosted):
    def test_fires_at_exact_deadline(self):
        h = self.host
        wheel = h.wheel(1.0)
        fired = []
        wheel.schedule_after(h.t(2.37), lambda: fired.append(h.now))
        h.run(3)
        h.assert_times(fired, [2.37])

    def test_fire_order_matches_deadline_order_across_buckets(self):
        h = self.host
        wheel = h.wheel(1.0)
        fired = []
        for d in (3.5, 0.25, 2.1, 0.75):
            wheel.schedule_after(h.t(d), fired.append, d)
        h.run(4.5)
        assert fired == [0.25, 0.75, 2.1, 3.5]

    def test_same_deadline_fires_in_arming_order(self):
        h = self.host
        wheel = h.wheel(1.0)
        fired = []
        for tag in "abc":
            wheel.schedule_after(h.t(1.5), fired.append, tag)
        h.run(2.5)
        assert fired == ["a", "b", "c"]

    def test_deadline_on_bucket_boundary(self):
        h = self.host
        wheel = h.wheel(1.0)
        fired = []
        wheel.schedule_after(h.t(2.0), lambda: fired.append(h.now))
        h.run(3)
        h.assert_times(fired, [2.0])

    def test_delay_shorter_than_tick(self):
        h = self.host
        wheel = h.wheel(1.0)
        fired = []
        h.at(0.9, lambda: wheel.schedule_after(
            h.t(0.05), lambda: fired.append(h.now)))
        h.run(2)
        # the engine's deadline is this very sum, bit for bit
        h.assert_times(fired, [0.9 + 0.05])

    def test_negative_delay_rejected(self):
        wheel = self.host.wheel(1.0)
        with pytest.raises(SimError):
            wheel.schedule_after(-0.1, lambda: None)

    def test_bad_tick_rejected(self):
        with pytest.raises(ValueError):
            self.host.wheel(0.0)


class TestCancellation(Hosted):
    def test_cancel_before_bucket_fires(self):
        h = self.host
        wheel = h.wheel(1.0)
        fired = []
        handle = wheel.schedule_after(h.t(5.5), fired.append, "x")
        handle.cancel()
        h.run(6.5)
        assert fired == []
        assert handle.cancelled and len(wheel) == 0

    def test_cancel_after_promotion(self):
        """A timer promoted to the heap can still be cancelled."""
        h = self.host
        wheel = h.wheel(1.0)
        fired = []
        handle = wheel.schedule_after(h.t(1.7), fired.append, "x")
        # between the bucket callback (t=1.0) and the deadline (t=1.7)
        h.at(1.3, handle.cancel)
        h.run(2.5)
        assert fired == []
        assert handle.cancelled and wheel.n_buckets == 0

    def test_cancel_is_idempotent(self):
        h = self.host
        wheel = h.wheel(1.0)
        handle = wheel.schedule_after(h.t(1.0), lambda: None)
        handle.cancel()
        handle.cancel()
        h.run(1.5)
        assert wheel.n_cancelled == 1


class TestFiringOnAsyncRuntime(TestFiring):
    host_type = LoopHost


class TestCancellationOnAsyncRuntime(TestCancellation):
    host_type = LoopHost


class TestHeapHygiene:
    def test_cancelled_timers_leave_no_heap_entries(self):
        """The motivating property: repeated arm/cancel cycles must not
        accumulate dead heap entries the way lazily-cancelled
        EventHandles do (one per completed lookup at paper scale)."""
        eng = Engine()
        wheel = TimerWheel(eng, tick=1.0)
        for _ in range(10_000):
            wheel.schedule_after(10.0, lambda: None).cancel()
        # one bucket event at most; never 10k dead entries
        assert len(wheel) == 0
        assert eng.pending <= 1

    def test_pending_events_bounded_by_buckets_not_timers(self):
        eng = Engine()
        wheel = TimerWheel(eng, tick=1.0)
        handles = [wheel.schedule_after(0.001 * i + 5.0, lambda: None)
                   for i in range(5_000)]
        # 5k armed timers spanning 5 distinct seconds -> <= 6 buckets
        assert len(wheel) == 5_000
        assert eng.pending <= 6
        for h in handles:
            h.cancel()
        assert len(wheel) == 0
        eng.run()
        assert eng.now < 11.0  # only bucket events fired

    def test_interleaved_arm_cancel_under_run(self):
        eng = Engine()
        wheel = TimerWheel(eng, tick=0.5)
        fired = []

        def churn(i):
            h = wheel.schedule_after(2.0, fired.append, i)
            if i % 10 != 0:
                eng.schedule(eng.now + 1.0, h.cancel)

        for i in range(200):
            eng.schedule(0.01 * i, churn, i)
        eng.run()
        assert fired == [i for i in range(200) if i % 10 == 0]
        assert eng.pending == 0


class TestAccounting:
    def test_counters_and_repr(self):
        eng = Engine()
        wheel = TimerWheel(eng, tick=1.0)
        h1 = wheel.schedule_after(0.5, lambda: None)
        wheel.schedule_after(0.6, lambda: None)
        h1.cancel()
        assert wheel.n_armed == 2
        assert wheel.n_cancelled == 1
        assert "TimerWheel" in repr(wheel)
        assert "armed" in repr(h1) or "cancelled" in repr(h1)
        eng.run()
        assert wheel.n_fired == 1
