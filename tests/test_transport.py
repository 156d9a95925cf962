"""Unit tests for the constant-latency transport."""

import pytest

from repro.net.transport import ShardTransport, Transport
from repro.sim.engine import Engine


class TestTransport:
    def test_delivery_after_delay(self):
        eng = Engine()
        tr = Transport(eng, net_delay=0.025)
        got = []
        tr.register(0, lambda m: got.append((eng.now, m)))
        tr.send(0, "hello")
        eng.run()
        assert got == [(0.025, "hello")]

    def test_separate_traffic_counters(self):
        eng = Engine()
        tr = Transport(eng, net_delay=0.0)
        tr.register(0, lambda m: None)
        tr.send(0, "q")
        tr.send(0, "c", control=True)
        assert tr.n_sent == 1
        assert tr.n_control_sent == 1

    def test_unknown_destination_raises(self):
        tr = Transport(Engine(), net_delay=0.0)
        with pytest.raises(KeyError):
            tr.send(7, "x")

    def test_double_registration_rejected(self):
        tr = Transport(Engine(), net_delay=0.0)
        tr.register(0, lambda m: None)
        with pytest.raises(ValueError):
            tr.register(0, lambda m: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Transport(Engine(), net_delay=-1.0)

    def test_fifo_between_same_pair(self):
        """Messages to the same destination preserve send order
        (constant delay + stable tie-breaking)."""
        eng = Engine()
        tr = Transport(eng, net_delay=0.01)
        got = []
        tr.register(0, got.append)
        for i in range(5):
            tr.send(0, i)
        eng.run()
        assert got == [0, 1, 2, 3, 4]

    def test_n_servers(self):
        tr = Transport(Engine(), net_delay=0.0)
        tr.register(0, lambda m: None)
        tr.register(1, lambda m: None)
        assert tr.n_servers == 2


class TestDeliveryRing:
    def test_ring_enabled_only_for_constant_positive_delay(self):
        assert Transport(Engine(), net_delay=0.01)._ring_enabled
        assert not Transport(Engine(), net_delay=0.0)._ring_enabled
        assert not Transport(Engine(), net_delay=0.01,
                             net_jitter=0.005)._ring_enabled

    def test_one_pending_event_for_many_in_flight(self):
        """The point of the ring: N in-flight messages cost the engine
        one drain event, not N heap entries."""
        eng = Engine()
        tr = Transport(eng, net_delay=0.05)
        tr.register(0, lambda m: None)
        for i in range(1000):
            tr.send(0, i)
        assert tr.n_in_flight == 1000
        assert eng.pending == 1
        eng.run()
        assert tr.n_in_flight == 0
        assert eng.pending == 0

    def test_sends_during_drain_deliver_one_delay_later(self):
        eng = Engine()
        tr = Transport(eng, net_delay=0.01)
        got = []

        def relay(m):
            got.append((round(eng.now, 9), m))
            if m < 3:
                tr.send(0, m + 1)

        tr.register(0, relay)
        tr.send(0, 0)
        eng.run()
        assert got == [(0.01, 0), (0.02, 1), (0.03, 2), (0.04, 3)]

    def test_in_flight_loss_at_delivery_time(self):
        """A server failing while a message is in flight loses it at
        delivery time on the ring path, same as the heap path."""
        eng = Engine()
        tr = Transport(eng, net_delay=0.02)
        got, lost = [], []
        tr.register(0, got.append)
        tr.on_lost = lambda dest, msg: lost.append((dest, msg))
        tr.send(0, "doomed")
        eng.schedule(0.01, tr.fail_server, 0)
        eng.run()
        assert got == []
        assert lost == [(0, "doomed")]
        assert tr.n_lost == 1

    def test_ring_order_matches_heap_path_order(self):
        """Determinism: with zero jitter the ring path must produce the
        identical delivery sequence the per-message heap path would.
        Force the fallback by monkeying the flag, then compare."""
        def run_trace(force_heap):
            eng = Engine()
            tr = Transport(eng, net_delay=0.01)
            if force_heap:
                tr._ring_enabled = False
            trace = []

            def make(sid):
                def handler(m):
                    trace.append((round(eng.now, 9), sid, m))
                    if m > 0:
                        tr.send((sid + 1) % 3, m - 1)
                return handler

            for sid in range(3):
                tr.register(sid, make(sid))
            # two interleaved chains plus a same-time burst
            tr.send(0, 5)
            tr.send(1, 5)
            for i in range(4):
                tr.send(2, 0)
            eng.run()
            return trace

        assert run_trace(force_heap=False) == run_trace(force_heap=True)

    def test_jitter_path_deterministic_for_fixed_seed(self):
        """The heap fallback stays seed-deterministic: same seed, same
        delivery order; different seed, different order."""
        def run_trace(seed):
            eng = Engine()
            tr = Transport(eng, net_delay=0.01, net_jitter=0.02,
                           jitter_seed=seed)
            trace = []
            tr.register(0, lambda m: trace.append((round(eng.now, 12), m)))
            for i in range(50):
                tr.send(0, i)
            eng.run()
            return trace

        assert run_trace(seed=3) == run_trace(seed=3)
        assert run_trace(seed=3) != run_trace(seed=4)

    def test_send_to_failed_server_never_enters_ring(self):
        eng = Engine()
        tr = Transport(eng, net_delay=0.01)
        tr.register(0, lambda m: None)
        tr.fail_server(0)
        tr.send(0, "x")
        assert tr.n_in_flight == 0
        assert tr.n_lost == 1


def _plain(eng, delay):
    return Transport(eng, delay)


def _shard(eng, delay):
    # shard 0 of 2 over 4 servers: servers 0 and 1 are local
    return ShardTransport(eng, delay, shard_id=0, n_shards=2, n_servers=4)


@pytest.mark.parametrize("make", [_plain, _shard])
class TestOneLiveDrain:
    """The ring costs the engine one drain event per distinct delivery
    time, whatever handlers send while a drain delivers.

    Regression: ``ShardTransport`` once had its own drain, which
    dropped its armed marker *before* delivering; a handler that sent
    to a same-shard server then armed a second drain, the re-arm at the
    end a third, and each leaked event re-armed itself for as long as
    the ring was busy (73 engine events per message instead of 2).
    Fingerprints could not see it: the results were right, only the
    cost was not.  The same body runs on both transports.
    """

    D = 0.01
    WINDOWS = 250

    @staticmethod
    def _live_drains(eng, tr):
        return sum(
            1 for _, _, h, fn, _ in eng._heap
            if fn == tr._drain and (h is None or not h.cancelled)
        )

    def test_busy_ring_through_many_windows(self, make):
        eng = Engine()
        tr = make(eng, self.D)
        delivered_at = []

        def handler(sid):
            def deliver(hops):
                delivered_at.append(eng.now)
                if hops:
                    tr.send(1 - sid, hops - 1)  # same shard, mid-drain
            return deliver

        for sid in (0, 1):
            tr.register(sid, handler(sid))
        # five endless relay chains, staggered inside the first window
        # so the ring always holds entries at several distinct times
        for i in range(5):
            eng.run(until=i * self.D / 7)
            tr.send(i % 2, 10 ** 9)
        n_remote = 0
        end = 0.0
        for k in range(self.WINDOWS):
            end += self.D
            eng.run_window(end)
            if isinstance(tr, ShardTransport):
                # mail from shard 1 for the next window: ahead of the
                # local head at some barriers, behind it at others
                n_remote += 1
                at = end + self.D * (k % 5) / 5
                tr.ingest([[(at, 1, n_remote, k % 2, 3)]])
            assert self._live_drains(eng, tr) <= 1
        assert len(delivered_at) > 4 * self.WINDOWS
        # nothing but drains is scheduled here, so the general bound
        # (events <= messages + distinct delivery times) tightens to
        assert eng.n_dispatched == len(set(delivered_at))
        assert eng.pending <= 2  # the live drain, at most one cancelled


class TestJitter:
    def test_zero_jitter_is_constant(self):
        eng = Engine()
        tr = Transport(eng, net_delay=0.02, net_jitter=0.0)
        times = []
        tr.register(0, lambda m: times.append(eng.now))
        for _ in range(5):
            tr.send(0, "x")
        eng.run()
        assert all(abs(t - 0.02) < 1e-12 for t in times)

    def test_jitter_spreads_delays(self):
        eng = Engine()
        tr = Transport(eng, net_delay=0.02, net_jitter=0.01, jitter_seed=1)
        times = []
        tr.register(0, lambda m: times.append(eng.now))
        for _ in range(200):
            tr.send(0, "x")
        eng.run()
        assert min(times) >= 0.02
        assert len({round(t, 9) for t in times}) > 100
        mean_extra = sum(times) / len(times) - 0.02
        assert mean_extra == pytest.approx(0.01, rel=0.4)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            Transport(Engine(), net_delay=0.01, net_jitter=-1.0)

    def test_system_still_correct_under_jitter(self):
        from repro.cluster.builder import build_system
        from repro.cluster.config import SystemConfig
        from repro.namespace.generators import balanced_tree
        from repro.workload.arrivals import WorkloadDriver
        from repro.workload.streams import unif_stream

        ns = balanced_tree(levels=5)
        cfg = SystemConfig.replicated(n_servers=4, seed=1, net_jitter=0.01,
                                      digest_probe_limit=1)
        system = build_system(ns, cfg)
        WorkloadDriver(system, unif_stream(100.0, 4.0, seed=1)).run()
        assert system.stats.completion_fraction > 0.95
