"""Sharded windowed execution must be bit-identical to the serial engine.

The conservative-window contract (`repro.sim.shard`): with constant
``net_delay`` lookahead, N shard engines advancing in delay-wide
lock-stepped windows and exchanging cross-shard messages at barriers
produce byte-for-byte the fingerprints of one serial engine -- for
every shard count, on both backends.  These tests lock that contract
and the windowed-execution edge cases (boundary events, timer cancels
across windows, jitter rejection).  How many shards a run gets and
where they run is the experiments layer's decision
(``tests/test_parallel.py``).
"""

import json
import pickle
import sys
import tracemalloc

import pytest

from repro.analysis.summary import run_summary
from repro.cluster.builder import build_shard_system, build_system
from repro.cluster.config import SystemConfig
from repro.core import maps, routing
from repro.experiments.common import rate_for_utilization, run_sharded_workload
from repro.namespace.generators import balanced_tree
from repro.net.transport import (
    ShardTransport,
    check_shardable,
    shard_of_sid,
    shard_sids,
)
from repro.server import routing_core
from repro.sim.engine import Engine, ShardError
from repro.sim.shard import (
    MAX_EVENT_OVERHEAD,
    MergedRun,
    ShardRunner,
    WindowedCoordinator,
    run_fingerprint,
    window_plan,
)
from repro.sim.timerwheel import TimerWheel
from repro.workload.arrivals import WorkloadDriver, iter_arrivals
from repro.workload.streams import cuzipf_stream, uzipf_stream


def serial_run(ns, cfg, spec, until):
    system = build_system(ns, cfg)
    WorkloadDriver(system, spec).start()
    system.run_until(until)
    return system


def fig3_style():
    """Composite cuzipf stream with a reshuffle, 16 servers."""
    ns = balanced_tree(levels=7)
    cfg = SystemConfig.replicated(n_servers=16, seed=7, cache_slots=8)
    spec = cuzipf_stream(rate=400.0, alpha=1.0, warmup=1.0, phase=1.0,
                         n_phases=2, seed=7)
    return ns, cfg, spec, spec.duration + 1.0


def fig9_style():
    """Scalability-shaped point: 32 servers, pure-zipf stream."""
    ns = balanced_tree(levels=8)
    cfg = SystemConfig.replicated(n_servers=32, seed=11, cache_slots=12,
                                  rmap=3, rfact=2.0)
    spec = uzipf_stream(rate=600.0, duration=3.0, alpha=1.0, seed=11)
    return ns, cfg, spec, spec.duration + 1.0


# ----------------------------------------------------------------------
# the pre-generated arrival stream
# ----------------------------------------------------------------------


class TestIterArrivals:
    def test_respects_start_offset(self):
        ns, cfg, spec, _ = fig3_style()
        base = list(iter_arrivals(spec, len(ns), cfg.n_servers))
        moved = list(iter_arrivals(spec, len(ns), cfg.n_servers, t0=5.0))
        assert len(base) == len(moved)
        assert moved[0][0] == pytest.approx(base[0][0] + 5.0)
        assert [a[1:] for a in base] == [a[1:] for a in moved]


# ----------------------------------------------------------------------
# engine windows
# ----------------------------------------------------------------------


class TestRunWindow:
    def test_boundary_event_runs_in_the_window_it_opens(self):
        eng = Engine()
        hits = []
        eng.schedule(1.0, hits.append, "boundary")
        eng.schedule(0.5, hits.append, "inside")
        eng.run_window(1.0)
        assert hits == ["inside"]  # t == end is excluded...
        assert eng.now == 1.0
        eng.run_window(2.0)
        assert hits == ["inside", "boundary"]  # ...and opens the next

    def test_inclusive_final_window_matches_run_until(self):
        eng = Engine()
        hits = []
        eng.schedule(2.0, hits.append, "at-end")
        eng.run_window(2.0, inclusive=True)
        assert hits == ["at-end"]
        assert eng.now == 2.0

    def test_advances_clock_through_empty_windows(self):
        eng = Engine()
        eng.run_window(3.0)
        assert eng.now == 3.0

    def test_rejects_windows_ending_in_the_past(self):
        eng = Engine()
        eng.run_window(2.0)
        with pytest.raises(Exception):
            eng.run_window(1.0)


class TestWindowPlan:
    def test_covers_horizon_and_ends_inclusive(self):
        plan = list(window_plan(0.025, 1.0))
        assert plan[-1] == (1.0, True)
        assert all(not inc for _, inc in plan[:-1])
        ends = [e for e, _ in plan]
        assert ends == sorted(ends)
        # window width never exceeds the lookahead
        prev = 0.0
        for e in ends:
            assert e - prev <= 0.025 + 1e-12
            prev = e

    def test_short_horizon_is_one_inclusive_window(self):
        assert list(window_plan(0.5, 0.2)) == [(0.2, True)]

    def test_send_at_window_start_never_lands_in_executed_window(self):
        # the float-monotonicity property the accumulating plan relies
        # on: for consecutive ends a < b, a + d >= b as floats
        d = 0.1  # not exactly representable: the adversarial case
        ends = [e for e, _ in window_plan(d, 10.0)]
        prev = 0.0
        for e in ends:
            assert prev + d >= e
            prev = e


# ----------------------------------------------------------------------
# shard transport
# ----------------------------------------------------------------------


class TestShardOfSid:
    def test_blocks_are_contiguous_and_balanced(self):
        for n_servers, n_shards in ((16, 4), (10, 3), (7, 7), (8, 1)):
            owners = [
                shard_of_sid(s, n_servers, n_shards)
                for s in range(n_servers)
            ]
            assert owners == sorted(owners)  # contiguous, monotone
            assert set(owners) == set(range(n_shards))  # none empty
            sizes = [owners.count(k) for k in range(n_shards)]
            assert max(sizes) - min(sizes) <= 1  # balanced
            for k in range(n_shards):
                assert shard_sids(k, n_servers, n_shards) == [
                    s for s in range(n_servers) if owners[s] == k
                ]


class TestShardTransport:
    def _pair(self, shard_id=0, n_shards=2, n_servers=4):
        eng = Engine()
        tr = ShardTransport(
            eng, 0.025, shard_id=shard_id, n_shards=n_shards,
            n_servers=n_servers,
        )
        got = []
        for sid in shard_sids(shard_id, n_servers, n_shards):
            tr.register(sid, lambda msg, sid=sid: got.append((sid, msg)))
        return eng, tr, got

    def test_local_sends_deliver_on_the_ring(self):
        eng, tr, got = self._pair()
        tr.send(0, "a")
        tr.send(1, "b")
        eng.run()
        assert got == [(0, "a"), (1, "b")]
        assert tr.collect_egress() == {}

    def test_cross_shard_sends_buffer_as_egress(self):
        eng, tr, got = self._pair()
        tr.send(3, "remote")
        eng.run()
        assert got == []
        egress = tr.collect_egress()
        assert list(egress) == [1]
        ((at, src_shard, seq, dest, msg),) = egress[1]
        assert (src_shard, dest, msg) == (0, 3, "remote")
        assert at == pytest.approx(0.025)
        assert tr.collect_egress() == {}  # handed over exactly once

    def test_ingest_merges_in_canonical_order(self):
        eng, tr, got = self._pair()
        eng.run_window(0.025)  # now == 0.025
        tr.send(0, "local")  # delivers at 0.050
        # two remote batches with deliveries straddling the local one
        b_early = [(0.03, 1, 1, 1, "early")]
        b_late = [(0.05, 1, 2, 0, "tie-late"), (0.07, 1, 3, 1, "late")]
        tr.ingest([b_early, b_late])
        eng.run()
        # at == 0.05 tie breaks by (src_shard, seq): local shard 0 wins
        assert got == [
            (1, "early"), (0, "local"), (0, "tie-late"), (1, "late")
        ]

    def test_ingest_rejects_messages_for_executed_windows(self):
        eng, tr, _ = self._pair()
        eng.run_window(1.0)
        with pytest.raises(ShardError):
            tr.ingest([[(0.5, 1, 1, 0, "too-old")]])

    def test_jitter_and_zero_delay_are_rejected(self):
        # the one shardability check, which every sharded build runs
        # before a ShardTransport exists
        check_shardable(SystemConfig(n_servers=4))
        for bad in ({"net_jitter": 0.01}, {"net_delay": 0.0},
                    {"oracle_maps": True}):
            with pytest.raises(ShardError):
                check_shardable(SystemConfig(n_servers=4, **bad))

    def test_remote_failure_injection_is_rejected(self):
        _, tr, _ = self._pair()
        with pytest.raises(ShardError):
            tr.fail_server(3)  # lives on shard 1


def hotspot_style():
    """The benchmark's hotspot regime, shortened: 40 % utilisation and
    Zipf phases hot enough to replicate (probe replies and transfer
    acks are the sends a delivery makes synchronously), 4 simulated
    seconds of stream."""
    ns = balanced_tree(levels=11)
    cfg = SystemConfig.replicated(n_servers=48, seed=7, cache_slots=16,
                                  digest_probe_limit=2)
    spec = cuzipf_stream(rate=rate_for_utilization(0.4, 48), alpha=1.0,
                         warmup=1.0, phase=1.5, n_phases=2, seed=7)
    return ns, cfg, spec, spec.duration + 0.5


# ----------------------------------------------------------------------
# the determinism contract
# ----------------------------------------------------------------------


class TestShardedDeterminism:
    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    def test_fig3_style_bit_identical(self, n_shards):
        ns, cfg, spec, until = fig3_style()
        ref = run_fingerprint(serial_run(ns, cfg, spec, until))
        coord = WindowedCoordinator(ns, cfg, spec, n_shards,
                                    backend="inline")
        run = coord.run(until)
        got = run_fingerprint(run)
        assert json.dumps(got, sort_keys=True) == json.dumps(
            ref, sort_keys=True
        )

    @pytest.mark.parametrize("n_shards", [2, 8])
    def test_fig9_style_bit_identical(self, n_shards):
        ns, cfg, spec, until = fig9_style()
        system = serial_run(ns, cfg, spec, until)
        run = WindowedCoordinator(ns, cfg, spec, n_shards,
                                  backend="inline").run(until)
        assert json.dumps(run_fingerprint(run), sort_keys=True) == \
            json.dumps(run_fingerprint(system), sort_keys=True)
        # the analysis layer sees identical numbers through either type
        assert json.dumps(run_summary(run), sort_keys=True) == \
            json.dumps(run_summary(system), sort_keys=True)

    def test_process_backend_bit_identical(self):
        ns, cfg, spec, until = fig3_style()
        ref = run_fingerprint(serial_run(ns, cfg, spec, until))
        run = WindowedCoordinator(ns, cfg, spec, 2,
                                  backend="process").run(until)
        assert json.dumps(run_fingerprint(run), sort_keys=True) == \
            json.dumps(ref, sort_keys=True)

    def test_serial_and_merged_runs_read_alike(self):
        """The analysis layer's read surface, attribute by attribute:
        a finished serial ``System`` and a sharded ``MergedRun`` must
        not drift apart."""
        from repro.analysis.series import rate_series

        ns, cfg, spec, until = fig3_style()
        system = serial_run(ns, cfg, spec, until)
        run = WindowedCoordinator(ns, cfg, spec, 2,
                                  backend="inline").run(until)

        def same(read):
            assert json.dumps(read(run), sort_keys=True) == \
                json.dumps(read(system), sort_keys=True)

        same(run_summary)
        for which in ("injected", "drops", "completions",
                      "replicas_created"):
            same(lambda r: rate_series(r, which))
        same(lambda r: r.total_replicas())
        same(lambda r: r.per_sid)
        # what bench/diagnose.py reads off either
        for r in (system, run):
            assert r.ns is ns
            assert r.stats.n_injected == system.stats.n_injected
            assert r.engine.n_dispatched > 0
            assert r.transport.n_sent == system.transport.n_sent
            assert r.transport.n_control_sent == \
                system.transport.n_control_sent

    def test_merged_run_shape(self):
        ns, cfg, spec, until = fig3_style()
        run = WindowedCoordinator(ns, cfg, spec, 4,
                                  backend="inline").run(until)
        assert isinstance(run, MergedRun)
        assert run.n_shards == 4
        assert run.n_windows > 0
        assert run.engine.now == until
        assert len(run.per_sid["processed"]) == cfg.n_servers
        assert run.total_replicas() == sum(
            len(r) for r in run.per_sid["replicas"]
        )


class TestCostModel:
    """Sharding must cost what the serial engine costs, not just agree
    with it.

    ``run_fingerprint`` leaves ``engine.n_dispatched`` out on purpose,
    so for two PRs a sharded run that dispatched 36 times the serial
    engine's events on the benchmark's stream (leaked delivery-ring
    drains, more of them the longer the stream) passed every
    bit-identity check.  The engine's work
    is about two events a message -- its service completion and its
    share of a ring drain -- plus one per arrival and the maintenance
    ticks; each shard adds only its own ticks and feeder.
    """

    MAX_EVENTS_PER_MSG = 2.2

    @pytest.fixture(scope="class")
    def serial(self):
        ns, cfg, spec, until = hotspot_style()
        system = serial_run(ns, cfg, spec, until)
        ref = json.dumps(run_fingerprint(system), sort_keys=True)
        return ns, cfg, spec, until, system.engine.n_dispatched, ref

    # ``codec`` is a documented no-op: both values must give the one
    # framed data plane, so the grid keeps it as a check of exactly that
    @pytest.mark.parametrize("n_shards, backend, codec", [
        (1, "inline", False), (2, "inline", False), (4, "inline", False),
        (1, "inline", True), (2, "inline", True), (4, "inline", True),
        (2, "process", True),
    ])
    def test_events_track_messages_and_the_serial_run(
        self, serial, n_shards, backend, codec
    ):
        ns, cfg, spec, until, serial_events, ref = serial
        run = WindowedCoordinator(ns, cfg, spec, n_shards, backend=backend,
                                  codec=codec).run(until)
        assert json.dumps(run_fingerprint(run), sort_keys=True) == ref
        events = run.engine.n_dispatched
        msgs = run.transport.n_sent + run.transport.n_control_sent
        assert events / msgs <= self.MAX_EVENTS_PER_MSG
        assert abs(events - serial_events) <= (
            MAX_EVENT_OVERHEAD * serial_events
        )
        dp = run.data_plane
        assert dp["n_barriers"] + dp["n_coalesced"] == len(
            list(window_plan(cfg.net_delay, until))
        )


class TestEventCounts:
    """Engine events of one small point, as literals: a change to how
    arrivals are fed shows here even when every fingerprint agrees."""

    def test_serial_and_two_inline_shards(self):
        ns, cfg, spec, until = fig3_style()
        system = serial_run(ns, cfg, spec, until)
        assert system.stats.n_injected == 1229
        assert system.engine.n_dispatched == 7143
        run = WindowedCoordinator(ns, cfg, spec, 2, backend="inline").run(until)
        assert run.engine.n_dispatched == 7151


class TestHopAllocations:
    """A forwarded hop allocates the message fields it sends, and little
    else, in the three modules that make the forwarding decision.

    Counted with ``tracemalloc``: traces are cleared when
    ``RoutingCore.process`` is entered, and whenever a function of
    ``core/maps.py``, ``core/routing.py`` or ``server/routing_core.py``
    returns (its locals still alive) the blocks those files allocated
    since are counted; a hop scores its worst return.  What a hop keeps
    is a path tuple, a ``RouteDecision`` and the merged ``dest_map``
    (a list: two blocks) -- four blocks, five or six with an eligible
    list or an advertisement alive beside them.  Before issue 21
    ``merge_maps`` alone held two sets and three more lists at its
    return and the mean was 10.7; a reintroduced set or scratch list in
    any of the three files lifts the mean past the bound.
    """

    MAX_MEAN_BLOCKS_PER_HOP = 7.0

    def test_a_forwarded_hop_allocates_what_it_sends(self):
        files = tuple(m.__file__ for m in (maps, routing, routing_core))
        filters = [tracemalloc.Filter(True, f) for f in files]
        process = routing_core.RoutingCore.process.__code__
        ns, cfg, spec, until = fig3_style()
        system = build_system(ns, cfg)
        WorkloadDriver(system, spec).start()
        system.run_until(2.0)  # caches, digests and replicas are warm

        forwarded = []  # worst live-block count of each forwarded hop
        worst = hops_in = 0
        inside = False

        def hook(frame, event, arg):
            nonlocal worst, hops_in, inside
            code = frame.f_code
            if code.co_filename not in files:
                return
            if event == "call":
                if code is process:
                    tracemalloc.clear_traces()
                    inside, worst = True, 0
                    hops_in = frame.f_locals["m"].hops
            elif event == "return" and inside:
                snap = tracemalloc.take_snapshot().filter_traces(filters)
                worst = max(worst, sum(
                    stat.count for stat in snap.statistics("filename")
                ))
                if code is process:
                    inside = False
                    if hops_in < frame.f_locals["m"].hops <= cfg.max_hops:
                        forwarded.append(worst)

        tracemalloc.start()
        sys.setprofile(hook)
        try:
            system.run_until(2.25)
        finally:
            sys.setprofile(None)
            tracemalloc.stop()
        assert len(forwarded) > 100
        mean = sum(forwarded) / len(forwarded)
        assert mean <= self.MAX_MEAN_BLOCKS_PER_HOP, sorted(forwarded)


class TestPackedDataPlane:
    """The zero-copy data plane: packed codec, forked workers, coalescing.

    Every barrier is :mod:`repro.sim.shardcodec` frames on both
    backends: answered in this process (inline) or through real worker
    pipes by forked workers (process).  The backend decides where a
    shard runs, never what a barrier exchanges.
    """

    @pytest.mark.parametrize("n_shards", [1, 2, 4, 8])
    def test_codec_inline_bit_identical(self, n_shards):
        # ``codec=`` is a documented no-op kept for existing callers
        ns, cfg, spec, until = fig3_style()
        ref = run_fingerprint(serial_run(ns, cfg, spec, until))
        run = WindowedCoordinator(ns, cfg, spec, n_shards,
                                  backend="inline", codec=True).run(until)
        assert json.dumps(run_fingerprint(run), sort_keys=True) == \
            json.dumps(ref, sort_keys=True)

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_fig9_style_process_bit_identical(self, n_shards):
        ns, cfg, spec, until = fig9_style()
        system = serial_run(ns, cfg, spec, until)
        run = WindowedCoordinator(ns, cfg, spec, n_shards,
                                  backend="process").run(until)
        assert json.dumps(run_fingerprint(run), sort_keys=True) == \
            json.dumps(run_fingerprint(system), sort_keys=True)
        assert json.dumps(run_summary(run), sort_keys=True) == \
            json.dumps(run_summary(system), sort_keys=True)

    def test_coalescing_accounts_for_every_planned_window(self):
        ns, cfg, spec, until = fig3_style()
        coord = WindowedCoordinator(ns, cfg, spec, 2, backend="inline")
        run = coord.run(until)
        planned = len(list(window_plan(cfg.net_delay, until)))
        dp = run.data_plane
        # every planned window was either stepped at a barrier or
        # provably-empty and skipped; the quiet warmup guarantees
        # some of each on this workload
        assert dp["n_barriers"] + dp["n_coalesced"] == planned
        assert dp["n_coalesced"] > 0
        assert run.n_windows == dp["n_barriers"]
        # a horizon that ends mid-stream, cross-shard mail in flight:
        # the coordinator's extra pass that delivers what lands exactly
        # on the horizon is not a window of the plan
        spec = cuzipf_stream(rate=400.0, alpha=1.0, warmup=2.0, phase=2.0,
                             n_phases=1, seed=3)
        planned = len(list(window_plan(cfg.net_delay, 1.0)))
        for backend in ("inline", "process"):
            run = WindowedCoordinator(ns, cfg, spec, 2,
                                      backend=backend).run(1.0)
            dp = run.data_plane
            assert dp["n_barriers"] + dp["n_coalesced"] == planned
            assert run.n_windows == dp["n_barriers"]

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_horizon_mid_stream_equals_serial(self, backend):
        """The horizon ends mid-stream with cross-shard mail in flight,
        so the coordinator drains one more pass at ``until``: stats
        records at exactly ``until`` from both passes merge as the
        serial run accumulated them."""
        ns, cfg, _, _ = fig3_style()
        spec = cuzipf_stream(rate=400.0, alpha=1.0, warmup=2.0, phase=2.0,
                             n_phases=1, seed=3)
        system = serial_run(ns, cfg, spec, 1.0)
        run = WindowedCoordinator(ns, cfg, spec, 2, backend=backend).run(1.0)
        assert json.dumps(run_fingerprint(run), sort_keys=True) == \
            json.dumps(run_fingerprint(system), sort_keys=True)
        assert json.dumps(run_summary(run), sort_keys=True) == \
            json.dumps(run_summary(system), sort_keys=True)

    def test_process_data_plane_counters(self):
        ns, cfg, spec, until = fig3_style()
        coord = WindowedCoordinator(ns, cfg, spec, 2, backend="process")
        run = coord.run(until)
        dp = run.data_plane
        assert dp["backend"] == "process"
        assert dp["bytes_exchanged"] > 0
        assert dp["barrier_wait_s"] > 0.0
        assert dp["encode_s"] >= 0.0 and dp["decode_s"] >= 0.0

    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_inline_and_process_exchange_the_same_barriers(self, n_shards):
        ns, cfg, spec, until = fig3_style()
        inline, process = (
            WindowedCoordinator(ns, cfg, spec, n_shards,
                                backend=backend).run(until)
            for backend in ("inline", "process")
        )
        assert json.dumps(run_fingerprint(inline), sort_keys=True) == \
            json.dumps(run_fingerprint(process), sort_keys=True)
        keys = ("n_barriers", "n_coalesced", "bytes_exchanged")
        assert [inline.data_plane[k] for k in keys] == \
            [process.data_plane[k] for k in keys]
        assert inline.data_plane["bytes_exchanged"] > 0

    def test_a_second_run_counts_only_its_own_barriers(self):
        ns, cfg, spec, until = fig3_style()
        coord = WindowedCoordinator(ns, cfg, spec, 2, backend="inline")
        first = coord.run(until)
        second = coord.run(until)
        assert json.dumps(run_fingerprint(first), sort_keys=True) == \
            json.dumps(run_fingerprint(second), sort_keys=True)
        for key in ("n_barriers", "n_coalesced", "bytes_exchanged"):
            assert second.data_plane[key] == first.data_plane[key], key
        assert second.n_windows == first.n_windows
        assert coord.data_plane is second.data_plane

    def test_worker_crash_raises_shard_error_naming_shard(self):
        from repro.sim.shard import _Stepper

        ns, cfg, spec, _ = fig3_style()
        coord = WindowedCoordinator(ns, cfg, spec, 2, backend="process")
        stepper = _Stepper(coord)
        try:
            victim = stepper.workers[1].proc
            victim.kill()
            victim.join(timeout=10)
            with pytest.raises(ShardError, match=r"shard 1 worker"):
                stepper.step_all(cfg.net_delay, False, [[], []])
            # the crash tore down the surviving workers too
            assert stepper.workers == []
        finally:
            stepper.close()

    def test_worker_death_before_finish_names_the_shard(self):
        from repro.sim.shard import _Stepper

        ns, cfg, spec, _ = fig3_style()
        coord = WindowedCoordinator(ns, cfg, spec, 2, backend="process")
        stepper = _Stepper(coord)
        try:
            stepper.step_all(cfg.net_delay, False, [[], []])
            victim = stepper.workers[1].proc
            victim.kill()
            victim.join(timeout=10)
            with pytest.raises(ShardError,
                               match=r"shard 1 worker died during finish"):
                stepper.finish_all()
            assert stepper.workers == []
        finally:
            stepper.close()

    def test_workers_exit_on_their_own_after_finish(self, monkeypatch, caplog):
        """A worker returns once it has answered OP_FINISH, so its
        interpreter teardown overlaps the coordinator's replay: when
        ``run`` returns both workers have exited with code 0, and none
        had to be terminated."""
        import logging

        from repro.sim import shard
        from repro.sim.shard import _Stepper

        spawned = []

        class Recorded(shard.PersistentWorker):
            __slots__ = ()

            def __init__(self, target, *args):
                super().__init__(target, *args)
                spawned.append(self)

        monkeypatch.setattr(shard, "PersistentWorker", Recorded)
        ns, cfg, spec, until = fig3_style()
        with caplog.at_level(logging.WARNING):
            WindowedCoordinator(ns, cfg, spec, 2, backend="process").run(until)
        assert [w.proc.exitcode for w in spawned] == [0, 0]
        assert "terminating it" not in caplog.text
        # no OP_EXIT needed: a finished worker is gone before close()
        stepper = _Stepper(
            WindowedCoordinator(ns, cfg, spec, 2, backend="process"))
        try:
            stepper.finish_all()
            for w in stepper.workers:
                w.proc.join(timeout=30)
                assert w.proc.exitcode == 0
        finally:
            stepper.close()

    @pytest.mark.parametrize("src, dest", [(0, -1), (1, 4), (3, 9), (2, 2)])
    def test_route_refuses_bad_destination_shards(self, src, dest):
        ns, cfg, spec, _ = fig3_style()
        coord = WindowedCoordinator(ns, cfg, spec, 4, backend="inline")
        outs = [{} for _ in range(4)]
        outs[src] = {dest: b"frame"}
        with pytest.raises(
            ShardError,
            match=rf"shard {src} sent egress to shard {dest} at window 7",
        ):
            coord._route(outs, 7)

    def test_process_run_uses_no_shared_memory(self, monkeypatch):
        """Forked workers inherit the namespace and the owner map: a
        process run makes no shared-memory block and equals the serial
        run."""
        from multiprocessing import shared_memory

        def refuse(*args, **kwargs):
            raise AssertionError("the process backend made a SharedMemory")

        monkeypatch.setattr(shared_memory, "SharedMemory", refuse)
        ns, cfg, spec, until = fig3_style()
        ref = run_fingerprint(serial_run(ns, cfg, spec, until))
        run = WindowedCoordinator(ns, cfg, spec, 2,
                                  backend="process").run(until)
        assert json.dumps(run_fingerprint(run), sort_keys=True) == \
            json.dumps(ref, sort_keys=True)

    def test_build_error_names_the_shard(self, monkeypatch):
        """A worker whose shard fails to build answers the handshake
        with its traceback, raised here as a ShardError, on both
        backends."""
        from repro.sim import shard as shard_mod

        real = shard_mod.ShardRunner

        def flaky(ns, cfg, shard_id, *rest):
            if shard_id == 1:
                raise RuntimeError("no build for shard 1")
            return real(ns, cfg, shard_id, *rest)

        monkeypatch.setattr(shard_mod, "ShardRunner", flaky)
        ns, cfg, spec, until = fig3_style()
        for backend in ("inline", "process"):
            coord = WindowedCoordinator(ns, cfg, spec, 2, backend=backend)
            with pytest.raises(ShardError, match=r"(?s)shard 1 worker "
                               r"failed.*no build for shard 1"):
                coord.run(until)

    @pytest.mark.parametrize("backend", ["inline", "process"])
    def test_step_error_names_the_shard_and_window(self, monkeypatch,
                                                   backend):
        """An exception inside a window comes back as the worker's
        traceback, raised as a ShardError naming shard and window."""
        real = ShardRunner.step

        def flaky(self, end, inclusive, frames):
            if self.system.shard_id == 1 and end > 1.0:
                raise RuntimeError("no step for shard 1")
            return real(self, end, inclusive, frames)

        monkeypatch.setattr(ShardRunner, "step", flaky)
        ns, cfg, spec, until = fig3_style()
        coord = WindowedCoordinator(ns, cfg, spec, 2, backend=backend)
        with pytest.raises(ShardError, match=r"(?s)shard 1 worker failed "
                           r"at window [1-9]\d*:.*no step for shard 1"):
            coord.run(until)

    def test_finish_payload_pickles_natively(self):
        ns, cfg, spec, _ = fig3_style()
        coord = WindowedCoordinator(ns, cfg, spec, 2, backend="inline")
        runner = ShardRunner(*coord._runner_args(0))
        _, _, log = runner.step(1.5, False, [])
        assert len(log) > 0
        payload = runner.finish()
        assert pickle.loads(pickle.dumps(payload)) == payload
        assert payload[-1] == runner.system.per_sid


class TestStatsStream:
    """Stats records move one barrier at a time: no shard keeps, and no
    result carries, a whole run's log, and the coordinator holds about
    one barrier of records however long the run."""

    def _run(self, scale):
        from repro.sim import shard

        ns = balanced_tree(levels=7)
        cfg = SystemConfig.replicated(n_servers=16, seed=7, cache_slots=8)
        spec = cuzipf_stream(rate=400.0, alpha=1.0, warmup=scale,
                             phase=scale, n_phases=2, seed=7)
        barriers, pending, results = [], [], []
        step, finish, replay = ShardRunner.step, ShardRunner.finish, \
            shard.replay_stats

        def emptying_step(self, *args):
            out = step(self, *args)
            assert (self.recorder.n, len(self.recorder._data)) == (0, 0)
            return out

        def pickled_finish(self):
            result = finish(self)
            results.append(pickle.dumps(result))
            return result

        def counted_replay(stats, held, logs, before=float("inf")):
            barriers.append(sum(len(log) for log in logs))
            pending.append(barriers[-1] + sum(len(h) for h in held))
            replay(stats, held, logs, before)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ShardRunner, "step", emptying_step)
            patch.setattr(ShardRunner, "finish", pickled_finish)
            patch.setattr(shard, "replay_stats", counted_replay)
            run = WindowedCoordinator(ns, cfg, spec, 2,
                                      backend="inline").run(spec.duration + 1.0)
        assert json.dumps(run_fingerprint(run), sort_keys=True) == \
            json.dumps(run_fingerprint(serial_run(ns, cfg, spec,
                                                  spec.duration + 1.0)),
                       sort_keys=True)
        return barriers, max(pending), results

    def test_memory_does_not_grow_with_run_length(self):
        short, short_peak, short_results = self._run(1.0)
        long, long_peak, long_results = self._run(4.0)
        assert sum(long) > 3 * sum(short)  # the run did grow
        for barriers, peak in ((short, short_peak), (long, long_peak)):
            assert peak <= max(barriers)
        # a finished shard ships counters and end state, no stats records
        for a, b in zip(short_results, long_results):
            *counters, per_sid = pickle.loads(b)
            assert [type(c) for c in counters] == [int] * 4 + [float] * 2
            assert sorted(per_sid) == [
                "hosted", "processed", "queue_drops", "replicas"
            ]
            assert len(b) < 1.5 * len(a) < 2048


class TestShardSystemConstruction:
    def test_shard_union_equals_serial_system(self):
        ns, cfg, _, _ = fig3_style()
        serial = build_system(ns, cfg)
        n_shards = 4
        seen = {}
        for shard_id in range(n_shards):
            shard = build_shard_system(ns, cfg, shard_id, n_shards)
            assert [p.sid for p in shard.local_peers] == shard.local_sids
            for p in shard.local_peers:
                seen[p.sid] = p
        assert sorted(seen) == list(range(cfg.n_servers))
        for sid, p in seen.items():
            ref = serial.peers[sid]
            assert sorted(p.store.hosted_list) == sorted(ref.store.hosted_list)
            assert p.service_mean == ref.service_mean  # het draw replayed
            assert p.known_loads == ref.known_loads  # bootstrap replayed

    def test_oracle_maps_rejected(self):
        ns, cfg, _, _ = fig3_style()
        cfg.oracle_maps = True
        with pytest.raises(ShardError):
            build_shard_system(ns, cfg, 0, 2)


# ----------------------------------------------------------------------
# serial fallback, shard count, platforms without fork
# ----------------------------------------------------------------------


class TestFallback:
    def test_jitter_warns_and_falls_back_to_serial(self):
        ns, cfg, spec, until = fig3_style()
        cfg.net_jitter = 0.005
        with pytest.warns(RuntimeWarning, match="serial"):
            run = run_sharded_workload(ns, cfg, spec, until, shards=2)
        assert not isinstance(run, MergedRun)  # a real serial System
        assert run.engine.now == until

    def test_shards_1_takes_the_plain_serial_path(self):
        ns, cfg, spec, until = fig3_style()
        run = run_sharded_workload(ns, cfg, spec, until, shards=1)
        assert not isinstance(run, MergedRun)
        ref = run_fingerprint(serial_run(ns, cfg, spec, until))
        assert json.dumps(run_fingerprint(run), sort_keys=True) == \
            json.dumps(ref, sort_keys=True)


class TestShardCount:
    def test_clamps_to_servers_and_rejects_zero(self):
        """``n_shards`` is clamped to the server count; below 1 it is a
        ``ValueError`` from the coordinator itself."""
        ns, cfg, spec, _ = fig3_style()
        coord = WindowedCoordinator(ns, cfg, spec, 64, backend="inline")
        assert coord.n_shards == cfg.n_servers
        with pytest.raises(ValueError, match="shard count must be >= 1"):
            WindowedCoordinator(ns, cfg, spec, 0, backend="inline")


class TestWithoutFork:
    """Where ``fork`` is missing (Windows), the coordinator refuses the
    process backend (the experiments layer never picks it there)."""

    def test_explicit_process_refused_at_construction(self, monkeypatch):
        import multiprocessing

        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        ns, cfg, spec, _ = fig3_style()
        with pytest.raises(ShardError, match="fork"):
            WindowedCoordinator(ns, cfg, spec, 2, backend="process")


# ----------------------------------------------------------------------
# windowed-execution edge cases
# ----------------------------------------------------------------------


class TestTimerAcrossWindows:
    def test_cancel_crossing_a_window_barrier_sticks(self):
        # a timer armed in window 1 to fire in window 3, cancelled at a
        # time in window 2: the windowed loop must honour the cancel
        # even though the barrier re-sorted the heap's surroundings
        eng = Engine()
        wheel = TimerWheel(eng, tick=0.01)
        fired = []
        handle = wheel.schedule_after(0.055, fired.append, "timer")
        eng.schedule(0.030, handle.cancel)
        for end in (0.025, 0.050, 0.075):
            eng.run_window(end)
        eng.run_window(0.1, inclusive=True)
        assert fired == []
        assert wheel.n_cancelled == 1

    def test_uncancelled_timer_fires_in_its_window(self):
        eng = Engine()
        wheel = TimerWheel(eng, tick=0.01)
        fired = []
        wheel.schedule_after(0.055, lambda: fired.append(eng.now))
        for end in (0.025, 0.050, 0.075):
            eng.run_window(end)
        assert len(fired) == 1
        assert 0.050 <= fired[0] < 0.075


class TestShardCheckCli:
    def test_shard_check_passes_on_identical_runs(self, capsys):
        from repro.sim.shard import main

        rc = main(["--shards", "1,2", "--levels", "6", "--servers", "8",
                   "--duration", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "OK: bit-identical to serial" in out
        assert "FAIL" not in out
        # serial and every shard count report their engine cost
        assert out.count("events=") == 3 and "/msg)" in out

    def test_help_states_the_event_limit(self, capsys):
        from repro.sim.shard import main

        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        out = capsys.readouterr().out
        assert exit_.value.code == 0
        assert "no more than 5% more" in " ".join(out.split())
        assert "%%" not in out

    def test_shard_check_fails_a_run_that_costs_too_many_events(
        self, capsys, monkeypatch
    ):
        from repro.sim import shard

        # no honest run is 50 % *cheaper* than serial: the gate must trip
        monkeypatch.setattr(shard, "MAX_EVENT_OVERHEAD", -0.5)
        rc = shard.main(["--shards", "2", "--levels", "6", "--servers",
                         "8", "--duration", "2"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "OK: bit-identical to serial" in out
        assert "FAIL: event count over the limit" in out
