"""The live runtime's scheduler against the simulator's.

:class:`~repro.runtime.async_runtime.AsyncRuntime` keeps the
:class:`~repro.sim.engine.Engine`'s entry layout on a heap of its own
and fires every due entry from one loop timer.  The first test runs one
schedule script on a :class:`SimRuntime` and on an ``AsyncRuntime``
over a real event loop and asserts the same firing order; the others
pin the batch's failure modes and the number of asyncio timers it
leaves behind.  Times on the loop are in units of ``U`` seconds, wide
enough that the order never depends on how late the loop runs.
"""

import asyncio
import random

from repro.runtime.async_runtime import AsyncRuntime
from repro.runtime.sim_runtime import SimRuntime
from repro.sim.engine import Engine
from repro.sim.timerwheel import TimerWheel

U = 0.02  # seconds per script time unit on the loop


def script(rt, log, u):
    """Ties, delay 0, cancel before and after firing, and a callback
    that schedules another at ``now``; returns the expected order."""
    handles = {}

    def a():
        log.append("A")
        rt.schedule(rt.now, log.append, "Z")  # another at now
        rt.schedule_after(0.0, log.append, "Y")

    def c():
        log.append("C")
        handles["H"].cancel()  # before it fires
        handles["B"].cancel()  # after it fired: no effect

    def e():
        log.append("E")
        t = rt.now + u
        rt.schedule(t, f)
        rt.schedule(t, log.append, "G")

    def f():
        log.append("F")
        rt.schedule_after(u, log.append, "I")

    rt.schedule_after(0.0, log.append, "S")
    t0 = rt.now + u
    # five at one deadline, with and without handles, in arming order
    rt.schedule(t0, a)
    handles["B"] = rt.schedule(t0, log.append, "B", handle=True)
    rt.schedule(t0, c)
    rt.schedule(t0, log.append, "D", handle=True)
    rt.schedule(t0, e)
    handles["H"] = rt.schedule(t0 + 4 * u, log.append, "H", handle=True)
    return list("SABCDEZYFGI")


class _NoWire:
    def send(self, dest, msg):
        raise AssertionError("the script sends nothing")


def run_on_engine():
    engine = Engine()
    rt = SimRuntime(engine, _NoWire(), TimerWheel(engine))
    log = []
    want = script(rt, log, 1.0)
    engine.run()
    return log, want


def run_on_loop():
    loop = asyncio.new_event_loop()
    try:
        rt = AsyncRuntime(loop)
        log = []
        want = script(rt, log, U)
        loop.run_until_complete(asyncio.sleep(8 * U))
    finally:
        loop.close()
    return log, want


def test_both_runtimes_fire_one_script_in_one_order():
    sim, want = run_on_engine()
    live, _ = run_on_loop()
    assert sim == want
    assert live == sim


class TestBatchFailures:
    def setup_method(self):
        self.loop = asyncio.new_event_loop()
        self.rt = AsyncRuntime(self.loop)
        self.caught = []
        self.loop.set_exception_handler(
            lambda loop, context: self.caught.append(context)
        )

    def teardown_method(self):
        self.loop.close()

    def run(self, units):
        self.loop.run_until_complete(asyncio.sleep(units * U))

    def test_a_raising_callback_reaches_the_handler_and_the_batch_goes_on(self):
        rt, log = self.rt, []

        def boom():
            log.append("boom")
            raise RuntimeError("boom")

        at = rt.now + U
        rt.schedule(at, log.append, "before")
        rt.schedule(at, boom)
        rt.schedule(at, log.append, "after")
        self.run(3)
        assert log == ["before", "boom", "after"]
        assert len(self.caught) == 1
        assert isinstance(self.caught[0]["exception"], RuntimeError)

    def test_the_heap_rearms_after_an_exception(self):
        rt, log = self.rt, []

        def boom():
            raise RuntimeError("boom")

        rt.schedule(rt.now + U, boom)
        rt.schedule(rt.now + 2 * U, log.append, "later")  # another batch
        self.run(4)
        assert log == ["later"] and len(self.caught) == 1
        # and it keeps serving what is scheduled afterwards
        rt.schedule_after(U, log.append, "again")
        self.run(3)
        assert log == ["later", "again"]


def loop_timers(loop):
    """asyncio's armed timers: (all, not cancelled)."""
    timers = loop._scheduled
    return len(timers), sum(not t.cancelled() for t in timers)


def test_pending_service_callbacks_hold_one_loop_timer():
    """N callbacks pending, as N peers' services are, plus lookup
    deadlines on the wheel: asyncio holds one armed timer for all.

    Scheduled from a callback (a completion starting the next service),
    an entry adds nothing to asyncio's heap.  Scheduled from outside a
    batch (an arriving query starting one), an entry earlier than every
    pending one re-arms the timer, and asyncio keeps the superseded,
    cancelled timer until it reaches the head of its heap: one per such
    entry, never one per entry as with a timer each.
    """
    n = 200

    async def go():
        loop = asyncio.get_running_loop()
        rt = AsyncRuntime(loop)
        wheel = rt.timers
        rng = random.Random(7)
        done = loop.create_future()
        fired = []
        inside = set()

        def service(i):
            fired.append(i)
            if i >= n:  # scheduled from a callback
                inside.add(loop_timers(loop))
            if len(fired) == 2 * n:
                done.set_result(None)

        def start(first):
            for i in range(first, first + n):
                rt.schedule_after(rng.expovariate(1 / U), service, i)

        deadlines = [
            rt.timer_after(30.0 + i, fired.append, "deadline")
            for i in range(3)
        ]
        assert wheel.n_buckets == 3 and loop_timers(loop) == (1, 1)
        # from outside a batch
        base = rt.now + U
        times = [base + rng.expovariate(1 / U) for _ in range(n)]
        earliest, superseding = float("inf"), 0
        for i, at in enumerate(times):
            superseding += at < earliest
            earliest = min(earliest, at)
            rt.schedule(at, service, i)
        outside = loop_timers(loop)
        # from a callback, once those have fired
        rt.schedule(max(times) + U, start, n)
        await done
        await asyncio.sleep(0)
        for handle in deadlines:
            handle.cancel()
        return outside, superseding, inside, loop_timers(loop)

    outside, superseding, inside, after = asyncio.run(go())
    assert 0 < superseding < 20  # a handful of prefix minima, not N
    assert outside == (1 + superseding, 1)
    # while a batch runs its timer has fired and nothing is re-armed
    # yet; of the superseded timers only the one armed for the wheel's
    # first bucket, 30 s out, has not surfaced
    assert inside == {(1, 0)}
    assert after == (1, 1)  # the wheel's bucket entries, nothing else
