"""Tests for query tracing, replay, and empirical path workloads."""

import io
import json

import pytest

from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.namespace.generators import balanced_tree
from repro.sim.shard import run_fingerprint
from repro.workload.arrivals import WorkloadDriver, empirical_arrivals
from repro.workload.streams import cuzipf_stream, unif_stream
from repro.workload.trace import QueryTrace, TraceRecorder, namespace_from_paths


def make(seed=9, **over):
    ns = balanced_tree(levels=6)
    defaults = dict(n_servers=8, seed=seed, digest_probe_limit=1)
    defaults.update(over)
    return ns, build_system(ns, SystemConfig.replicated(**defaults))


class TestQueryTrace:
    def test_save_load_roundtrip(self):
        trace = QueryTrace([(0.5, 1, 10), (1.25, 2, 20)])
        buf = io.StringIO()
        trace.save(buf)
        buf.seek(0)
        loaded = QueryTrace.load(buf)
        assert loaded.events == trace.events

    def test_load_skips_comments_and_sorts(self):
        buf = io.StringIO("# header\n2.0 1 5\n\n1.0 0 3\n")
        trace = QueryTrace.load(buf)
        assert trace.events == [(1.0, 0, 3), (2.0, 1, 5)]

    def test_load_rejects_malformed(self):
        with pytest.raises(ValueError):
            QueryTrace.load(io.StringIO("1.0 2\n"))

    @pytest.mark.parametrize("bad", [
        "nan 1 2", "inf 1 2", "-0.5 1 2", "1.0 -1 2", "1.0 1 -2",
        "abc 1 2", "1.0 x 2", "1.0 1 2.5",
    ])
    def test_load_rejects_bad_fields_naming_the_line(self, bad):
        """A time must be finite and non-negative and an id a
        non-negative integer: ``-1`` as a source would replay at the
        last server through Python's negative index."""
        with pytest.raises(ValueError, match="line 3"):
            QueryTrace.load(io.StringIO(f"# header\n0.5 0 1\n{bad}\n"))

    def test_duration(self):
        assert QueryTrace().duration == 0.0
        assert QueryTrace([(3.0, 0, 0)]).duration == 3.0

    def test_events_are_kept_in_time_order(self):
        """Events given or appended out of order are sorted in by time;
        equal times keep the order they came in."""
        trace = QueryTrace([(2.0, 0, 3), (1.0, 1, 4)])
        assert trace.events == [(1.0, 1, 4), (2.0, 0, 3)]
        assert trace.duration == 2.0
        trace.append(1.5, 2, 5)
        trace.append(1.0, 0, 6)
        trace.append(2.5, 3, 7)
        assert trace.events == [
            (1.0, 1, 4), (1.0, 0, 6), (1.5, 2, 5), (2.0, 0, 3), (2.5, 3, 7),
        ]
        assert trace.duration == 2.5

    def test_unordered_trace_replays(self):
        _, system = make()
        replay(system, QueryTrace([(2.0, 0, 3), (1.0, 1, 4)]))
        system.run_until(4.0)
        assert system.stats.n_injected == 2


def fingerprint(system):
    return json.dumps(run_fingerprint(system), sort_keys=True)


def recorded_run(seed):
    """A recorded cuzipf run: ``(system, trace, fingerprint, horizon)``."""
    _, system = make(seed)
    recorder = TraceRecorder(system)
    spec = cuzipf_stream(rate=150.0, alpha=1.0, warmup=1.0, phase=1.0,
                         n_phases=2, seed=seed)
    WorkloadDriver(system, spec).run(extra_time=2.0)
    return system, recorder.trace, fingerprint(system), system.engine.now


def replay(system, trace):
    """Feed a trace's events: one pending arrival event at a time."""
    WorkloadDriver(system, trace.events).start()


class TestRecordReplay:
    def test_recording_captures_all_injections(self):
        ns, system = make()
        recorder = TraceRecorder(system)
        driver = WorkloadDriver(system, unif_stream(200.0, 5.0, seed=1))
        driver.run()
        assert len(recorder.trace) == driver.n_generated
        assert recorder.trace.duration <= 5.0

    def test_double_tap_rejected(self):
        ns, system = make()
        TraceRecorder(system)
        with pytest.raises(RuntimeError):
            TraceRecorder(system)

    def test_replay_reproduces_run_exactly(self):
        """Same trace into two identically seeded systems => identical
        outcomes; that is the point of record/replay A/B testing."""
        ns, system = make()
        recorder = TraceRecorder(system)
        WorkloadDriver(system, unif_stream(200.0, 5.0, seed=1)).run()
        trace = recorder.trace

        outcomes = []
        for _ in range(2):
            ns2, replay_sys = make()
            replay(replay_sys, trace)
            replay_sys.run_until(trace.duration + 5.0)
            outcomes.append(
                (replay_sys.stats.n_completed,
                 round(replay_sys.stats.latency.mean, 12))
            )
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] > 0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_replay_reproduces_the_recorded_run(self, seed):
        """Replaying a recording into an identically built system gives
        the recorded run's full fingerprint, not only equal replays."""
        system, trace, ref, until = recorded_run(seed)
        _, replay_sys = make(seed)
        replay(replay_sys, trace)
        replay_sys.run_until(until)
        assert fingerprint(replay_sys) == ref

    @pytest.mark.parametrize("seed", [1, 2])
    def test_saved_trace_replays_the_recorded_run(self, seed):
        """Times survive save -> load bit for bit, so a trace on disk
        replays the run it recorded."""
        system, trace, ref, until = recorded_run(seed)
        buf = io.StringIO()
        trace.save(buf)
        buf.seek(0)
        loaded = QueryTrace.load(buf)
        assert loaded.events == trace.events
        _, replay_sys = make(seed)
        replay(replay_sys, loaded)
        replay_sys.run_until(until)
        assert fingerprint(replay_sys) == ref

    def test_replay_on_different_config(self):
        """The same trace can drive a differently configured system --
        e.g. caching disabled -- for controlled comparisons."""
        ns, system = make()
        recorder = TraceRecorder(system)
        WorkloadDriver(system, unif_stream(200.0, 4.0, seed=2)).run()
        trace = recorder.trace

        ns2, other = make(caching_enabled=False)
        replay(other, trace)
        other.run_until(trace.duration + 5.0)
        assert other.stats.n_injected == len(trace)


class TestNamespaceFromPaths:
    def test_paths_and_counts(self):
        ns, counts = namespace_from_paths(
            ["3 /a/b/file1", "/a/b/file2", "# comment", "", "7 /a/c"]
        )
        assert len(ns) == 6  # /, /a, /a/b, file1, file2, /a/c
        assert counts[ns.id_of("/a/b/file1")] == 3
        assert counts[ns.id_of("/a/b/file2")] == 1
        assert counts[ns.id_of("/a/c")] == 7
        assert ns.id_of("/a/b") not in counts  # implicit ancestor

    def test_duplicate_paths_accumulate(self):
        ns, counts = namespace_from_paths(["2 /x", "5 /x"])
        assert counts[ns.id_of("/x")] == 7

    def test_bad_count_rejected(self):
        with pytest.raises(ValueError):
            namespace_from_paths(["abc /x y"])

    def test_bad_name_rejected(self):
        with pytest.raises(Exception):
            namespace_from_paths(["relative/path"])


# The first 64 injections of the empirical workload (120 queries/s for
# 2 s over 8 servers) for two seeds and two weight maps, recorded from
# the self-rescheduling empirical driver this stream replaced.  Times
# are exact float reprs.
SPARSE_WEIGHTS = {3: 5.0, 17: 1.0, 40: 2.5, 63: 0.5}
DENSE_WEIGHTS = {n: float(n % 7) for n in range(1, 127)}

#: times of the first 64 arrivals per seed (the weights draw one
#: ``random()`` per destination whatever the map, so both maps share them)
GOLDEN_EMPIRICAL_TIMES = {
    1: (
        0.000741797504419101, 0.0038336338686189163,
        0.008019370566346752, 0.01113505927041468, 0.014175029455057808,
        0.028087208377664825, 0.037075208966328405, 0.04047042905759906,
        0.05803922038173938, 0.06004370838461246, 0.06264062996602789,
        0.06587931806608846, 0.06997692763431994, 0.0768062589857308,
        0.08016488442030342, 0.08030958819664046, 0.10264633116424213,
        0.11312154763826901, 0.1236622761477444, 0.12379706392266226,
        0.13146953543735748, 0.13629131251695126, 0.13655852465912582,
        0.14433741290994911, 0.16161365128528538, 0.1663328832734981,
        0.16877621076355925, 0.18493934033345028, 0.20566844393357317,
        0.21281327596640448, 0.2196888999231282, 0.22884720136812262,
        0.2310977369758092, 0.23920744237456004, 0.24550111019066903,
        0.2515990697170855, 0.2567674614727833, 0.2674394788639184,
        0.30802944885433253, 0.310431847283189, 0.31166457848116796,
        0.3278939751269446, 0.337443207121435, 0.35674176576155175,
        0.37548973276366654, 0.379374427420029, 0.39066800331529766,
        0.39198531596979946, 0.42086858235798974, 0.4240194390393341,
        0.4629511458719654, 0.4682348497071848, 0.5064602316000758,
        0.5458423839730389, 0.5472648621969837, 0.5474040017172803,
        0.5475221558335184, 0.5507982704656845, 0.5512418109031464,
        0.5545710542080863, 0.5666315506831383, 0.5711839503800371,
        0.5828704727243674, 0.5893012584374074,
    ),
    2: (
        0.007913972174803642, 0.01205944613814142, 0.02140661810928888,
        0.0294945155155093, 0.03029304980680722, 0.045222199400894704,
        0.060986660030070264, 0.06310282059036605, 0.08356703931891517,
        0.08789136823931415, 0.09976604604588743, 0.10917470932219281,
        0.12399959510765839, 0.12508972877472424, 0.126509632562779,
        0.12678632799578865, 0.13812210803631744, 0.148553110257931,
        0.16091669997920457, 0.1762854839258875, 0.17738184703367385,
        0.1804485110405545, 0.19639890127287307, 0.1971871999173169,
        0.20086811772219126, 0.22420857241989528, 0.23399865869121278,
        0.23519602937880535, 0.25378420860827766, 0.2613146663981023,
        0.27185634680233894, 0.2892847834103889, 0.30044129646802215,
        0.30928635248450653, 0.3238648371577364, 0.32811691307284485,
        0.3471968807364063, 0.3479810161181602, 0.35533674101720986,
        0.35638862305313646, 0.3610421989737584, 0.3662555459017663,
        0.37743149462356346, 0.3883462847925076, 0.4094723569123279,
        0.41496223559703366, 0.41571683609124377, 0.41684121851303074,
        0.4183589446029151, 0.42404857203864144, 0.4279985157110476,
        0.4307216978193209, 0.4528816002531139, 0.46439627046754484,
        0.46651953643745364, 0.4750499542185972, 0.4918984627991273,
        0.4934877860511927, 0.4935025133013822, 0.49574995012169537,
        0.49700700694150335, 0.4977810592784695, 0.518402157698892,
        0.527815344002948,
    ),
}
GOLDEN_EMPIRICAL_SOURCES = {
    1: (
        6, 1, 2, 6, 0, 0, 2, 3, 4, 0, 4, 2, 2, 4, 3, 0, 1, 3, 7, 0, 1,
        3, 1, 4, 5, 1, 4, 4, 4, 4, 2, 0, 5, 6, 3, 6, 6, 6, 2, 2, 2, 0,
        3, 7, 3, 6, 1, 2, 7, 5, 2, 4, 5, 5, 1, 0, 7, 7, 0, 2, 6, 1, 5, 4,
    ),
    2: (
        7, 5, 7, 3, 7, 4, 0, 4, 1, 7, 5, 3, 7, 1, 0, 0, 5, 0, 6, 5, 0,
        6, 2, 7, 6, 1, 1, 0, 1, 7, 6, 6, 1, 2, 6, 7, 7, 7, 6, 1, 4, 1,
        3, 7, 3, 2, 3, 4, 7, 0, 3, 4, 2, 4, 6, 3, 7, 3, 2, 3, 3, 0, 2, 6,
    ),
}
GOLDEN_EMPIRICAL_DESTS = {
    (1, "sparse"): (
        17, 40, 63, 3, 40, 3, 3, 3, 17, 40, 3, 40, 3, 3, 40, 40, 63, 3,
        3, 3, 40, 3, 3, 63, 3, 40, 3, 3, 3, 3, 40, 3, 3, 3, 3, 3, 3, 17,
        3, 40, 3, 3, 3, 40, 40, 17, 17, 3, 3, 40, 3, 40, 3, 3, 3, 3, 3,
        3, 3, 3, 3, 40, 3, 3,
    ),
    (1, "dense"): (
        76, 96, 125, 68, 88, 13, 60, 51, 81, 101, 20, 102, 4, 33, 87,
        99, 125, 51, 20, 62, 104, 61, 51, 124, 5, 111, 47, 22, 11, 6,
        94, 54, 59, 62, 66, 53, 39, 73, 3, 95, 67, 11, 61, 114, 117, 83,
        74, 41, 31, 97, 47, 111, 55, 67, 43, 33, 18, 2, 68, 55, 11, 101,
        39, 12,
    ),
    (2, "sparse"): (
        40, 40, 40, 3, 3, 40, 40, 17, 3, 3, 17, 3, 3, 63, 40, 63, 3, 40,
        40, 40, 3, 40, 17, 3, 3, 3, 40, 40, 3, 40, 40, 40, 40, 17, 40,
        3, 40, 40, 3, 17, 3, 3, 3, 40, 3, 3, 40, 3, 17, 40, 3, 17, 3,
        17, 3, 3, 40, 40, 3, 3, 40, 17, 3, 3,
    ),
    (2, "dense"): (
        108, 118, 89, 46, 68, 111, 93, 82, 13, 69, 72, 5, 32, 125, 110,
        124, 40, 100, 115, 86, 46, 103, 83, 47, 37, 64, 116, 107, 31,
        106, 102, 108, 97, 74, 109, 13, 89, 97, 17, 75, 55, 54, 12, 116,
        26, 53, 86, 5, 75, 102, 32, 83, 36, 71, 48, 66, 87, 118, 10, 38,
        101, 79, 34, 26,
    ),
}


def empirical_injections(seed, weights):
    _, system = make()
    seen = []
    system.on_inject = lambda t, s, d: seen.append((t, s, d))
    rows = empirical_arrivals(120.0, 2.0, weights, len(system.peers), seed)
    WorkloadDriver(system, rows).start()
    system.run_until(2.5)
    return seen


class TestGoldenEmpirical:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("name, weights", [
        ("sparse", SPARSE_WEIGHTS), ("dense", DENSE_WEIGHTS),
    ])
    def test_first_rows(self, seed, name, weights):
        rows = empirical_injections(seed, weights)[:64]
        assert [t for t, _, _ in rows] == list(GOLDEN_EMPIRICAL_TIMES[seed])
        assert [s for _, s, _ in rows] == list(GOLDEN_EMPIRICAL_SOURCES[seed])
        assert [d for _, _, d in rows] == list(
            GOLDEN_EMPIRICAL_DESTS[seed, name]
        )


class TestEmpiricalDriver:
    """Empirical demand is a row stream the one driver feeds."""

    @staticmethod
    def drive(system, rate, duration, weights, seed):
        drv = WorkloadDriver(system, empirical_arrivals(
            rate, duration, weights, len(system.peers), seed))
        drv.start()
        system.run_until(duration + 5.0)
        return drv

    def test_destinations_follow_weights(self):
        ns, system = make()
        hot, cold = 5, 9
        weights = {hot: 100.0, cold: 1.0}
        seen = {hot: 0, cold: 0}
        system.on_inject = lambda t, s, d: seen.__setitem__(d, seen[d] + 1)
        drv = self.drive(system, 300.0, 5.0, weights, seed=3)
        assert seen[hot] > 20 * max(1, seen[cold])
        assert drv.n_generated == seen[hot] + seen[cold]

    def test_zero_weights_never_queried(self):
        ns, system = make()
        dests = []
        system.on_inject = lambda t, s, d: dests.append(d)
        self.drive(system, 100.0, 3.0, {4: 1.0, 6: 0.0}, seed=1)
        assert set(dests) == {4}

    def test_validation(self):
        ns, system = make()
        with pytest.raises(ValueError):
            next(empirical_arrivals(0, 1, {1: 1}, 8))
        with pytest.raises(ValueError):
            next(empirical_arrivals(1, 0, {1: 1}, 8))
        with pytest.raises(ValueError):
            next(empirical_arrivals(1, 1, {}, 8))
        drv = WorkloadDriver(system, empirical_arrivals(1, 1, {1: 1.0}, 8))
        drv.start()
        with pytest.raises(RuntimeError):
            drv.start()
        with pytest.raises(TypeError):  # rows have no end time to run to
            drv.run()
