"""Unit tests for query-stream specs and the arrival driver."""

import dataclasses
import random
from itertools import islice

import pytest

from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.namespace.generators import balanced_tree
from repro.sim.rng import exponential
from repro.workload.arrivals import SegmentSampler, WorkloadDriver, iter_arrivals
from repro.workload.streams import (
    StreamSegment,
    WorkloadSpec,
    cuzipf_stream,
    unif_stream,
    uzipf_stream,
)


class TestSpecs:
    def test_segment_validation(self):
        with pytest.raises(ValueError):
            StreamSegment(duration=0.0)
        with pytest.raises(ValueError):
            StreamSegment(duration=1.0, alpha=-1.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(rate=0.0, segments=(StreamSegment(1.0),))
        with pytest.raises(ValueError):
            WorkloadSpec(rate=1.0, segments=())

    def test_duration_and_boundaries(self):
        spec = WorkloadSpec(
            rate=10.0,
            segments=(StreamSegment(5.0), StreamSegment(3.0)),
        )
        assert spec.duration == 8.0
        assert spec.boundaries() == [5.0, 8.0]

    def test_unif_stream(self):
        s = unif_stream(rate=100.0, duration=10.0)
        assert len(s.segments) == 1
        assert s.segments[0].alpha == 0.0
        assert s.name == "unif"

    def test_uzipf_stream(self):
        s = uzipf_stream(rate=100.0, duration=10.0, alpha=1.25)
        assert s.segments[0].alpha == 1.25
        assert s.name == "uzipf1.25"

    def test_cuzipf_structure(self):
        """unif warm-up then n Zipf phases, each reshuffling popularity
        (the paper's cuzipf composite streams)."""
        s = cuzipf_stream(rate=100.0, alpha=1.5, warmup=20.0, phase=50.0,
                          n_phases=4)
        assert len(s.segments) == 5
        assert s.segments[0].alpha == 0.0
        assert all(seg.alpha == 1.5 for seg in s.segments[1:])
        assert all(seg.reshuffle for seg in s.segments[1:])
        assert s.duration == 220.0

    def test_cuzipf_validation(self):
        with pytest.raises(ValueError):
            cuzipf_stream(rate=1.0, alpha=1.0, warmup=1.0, phase=1.0,
                          n_phases=0)


def make_system():
    ns = balanced_tree(levels=6)
    cfg = SystemConfig.replicated(n_servers=8, seed=5)
    return build_system(ns, cfg)


class _StubSystem:
    """Minimal system facade recording injected destinations."""

    def __init__(self, n_nodes, n_servers):
        from repro.sim.engine import Engine

        self.ns = list(range(n_nodes))  # driver only needs len(ns)
        self.peers = list(range(n_servers))
        self.engine = Engine()
        self.dests = []

    def inject(self, src, dest):
        self.dests.append(dest)

    def run_until(self, t):
        self.engine.run(until=t)


def _record_destinations(spec):
    stub = _StubSystem(n_nodes=511, n_servers=8)
    drv = WorkloadDriver(stub, spec)
    drv.run()
    return stub.dests


class TestDriver:
    def test_rate_approximated(self):
        system = make_system()
        spec = unif_stream(rate=200.0, duration=10.0, seed=1)
        drv = WorkloadDriver(system, spec)
        drv.run()
        assert abs(drv.n_generated / 10.0 - 200.0) < 40.0
        assert system.stats.n_injected == drv.n_generated

    def test_arrivals_stop_at_end(self):
        system = make_system()
        spec = unif_stream(rate=100.0, duration=5.0, seed=1)
        drv = WorkloadDriver(system, spec)
        drv.start()
        system.run_until(100.0)
        # no arrivals after duration: rate*duration +- slack
        assert drv.n_generated <= 5.0 * 100.0 * 1.5

    def test_reshuffles_counted(self):
        """The hot destination moves at each ``reshuffle`` boundary."""
        spec = cuzipf_stream(rate=300.0, alpha=1.5, warmup=1.0, phase=1.0,
                             n_phases=3, seed=1)
        still = dataclasses.replace(spec, segments=tuple(
            dataclasses.replace(seg, reshuffle=False)
            for seg in spec.segments
        ))

        def hot_by_phase(spec):
            phases = [[], [], []]
            for t, _, dest in iter_arrivals(spec, 511, 8):
                if t >= 1.0:
                    phases[int(t) - 1].append(dest)
            return [max(set(dests), key=dests.count) for dests in phases]

        # without reshuffles the initial permutation's top rank stays hot
        initial = hot_by_phase(still)
        assert len(set(initial)) == 1
        trail = initial[:1] + hot_by_phase(spec)
        assert sum(a != b for a, b in zip(trail, trail[1:])) == 3

    def test_zipf_skews_destinations(self):
        dests = _record_destinations(
            uzipf_stream(rate=500.0, duration=6.0, alpha=1.5, seed=2)
        )
        top = max(set(dests), key=dests.count)
        assert dests.count(top) / len(dests) > 0.05  # way above uniform 1/511

    def test_uniform_spreads_destinations(self):
        dests = _record_destinations(unif_stream(rate=500.0, duration=6.0, seed=2))
        top = max(set(dests), key=dests.count)
        assert dests.count(top) / len(dests) < 0.02

    def test_double_start_rejected(self):
        system = make_system()
        drv = WorkloadDriver(system, unif_stream(rate=10.0, duration=1.0))
        drv.start()
        with pytest.raises(RuntimeError):
            drv.start()

    def test_deterministic_given_seed(self):
        outs = []
        for _ in range(2):
            system = make_system()
            drv = WorkloadDriver(system, unif_stream(rate=100.0, duration=5.0,
                                                     seed=11))
            drv.run()
            outs.append((drv.n_generated, system.stats.n_completed,
                         round(system.stats.latency.mean, 9)))
        assert outs[0] == outs[1]


# The first 64 arrivals of two seeded streams over 511 nodes and 8
# servers, recorded at commit f2b874a (when the serial driver still drew
# them in a second body).  Every fixed-seed fingerprint hangs off this
# draw order; times are exact float reprs.
GOLDEN_CUZIPF = (
    (0.030535024431994868, 1, 30), (0.07742603709762681, 5, 302),
    (0.08738270167682816, 7, 507), (0.10526000657735114, 4, 312),
    (0.1347539613552683, 3, 40), (0.13925213325119407, 5, 2),
    (0.1440342435028558, 2, 497), (0.15612243525793154, 2, 163),
    (0.1580678275484273, 4, 114), (0.16463462508077806, 3, 190),
    (0.16533096851928752, 7, 59), (0.2496391803343636, 1, 294),
    (0.25866100021207233, 1, 368), (0.2744264791883738, 2, 3),
    (0.3132217735884095, 2, 425), (0.33836203880308635, 2, 263),
    (0.3629682297325097, 7, 288), (0.38335926688477073, 3, 248),
    (0.38867592675990464, 5, 323), (0.39817003683245833, 0, 444),
    (0.417764945212546, 4, 274), (0.4213207315227865, 4, 349),
    (0.42325821146611414, 2, 285), (0.4300178622786542, 0, 180),
    (0.43018283896101966, 6, 112), (0.43791876846108774, 7, 489),
    (0.4700196106094961, 2, 4), (0.5881494899118426, 2, 75),
    (0.5956360030258939, 5, 483), (0.5966799160107091, 6, 418),
    (0.5969419262435097, 3, 75), (0.6144314929809344, 6, 344),
    (0.6187447483512096, 3, 497), (0.6454580944838607, 2, 466),
    (0.6459681108999327, 6, 481), (0.6599804385446484, 4, 308),
    (0.665635127511362, 0, 75), (0.7213583423374752, 3, 239),
    (0.7489811412196699, 2, 235), (0.7582587710209038, 4, 293),
    (0.7887639425707333, 1, 119), (0.8253692359182963, 6, 293),
    (0.8831328511899346, 1, 208), (0.9139496889269806, 6, 157),
    (0.9706188653962575, 7, 156), (0.9814455688702198, 0, 476),
    (0.990161819977472, 3, 93), (0.999537935194291, 3, 165),
    (1.0040376536327678, 1, 270), (1.0359679772060784, 6, 451),
    (1.0384424314335514, 1, 270), (1.0719880704550764, 0, 227),
    (1.0809102983279655, 6, 270), (1.083115662027128, 0, 205),
    (1.0848910117413666, 0, 508), (1.0969307242666801, 7, 17),
    (1.1016251002577842, 2, 254), (1.1268447968198632, 0, 443),
    (1.1527628621997212, 7, 254), (1.2193638507376312, 3, 227),
    (1.2368228401512333, 3, 273), (1.2711667546388177, 2, 35),
    (1.2977629870645402, 7, 393), (1.2995086352956797, 0, 254),
)
GOLDEN_FLASH_CROWD = (
    (0.0019657606704069435, 5, 185), (0.01100361813546716, 4, 128),
    (0.03501865566595781, 7, 38), (0.03565267464516957, 0, 210),
    (0.09051813929805222, 0, 296), (0.10091351869673587, 5, 261),
    (0.10282485985996914, 3, 85), (0.14366037366475348, 2, 280),
    (0.22091911637422285, 3, 218), (0.23083823736202816, 1, 106),
    (0.27693088269893035, 3, 485), (0.28088887720477224, 3, 47),
    (0.2826365261043442, 5, 22), (0.2927847023241667, 6, 226),
    (0.34042075752734385, 0, 432), (0.3439437013803543, 5, 390),
    (0.34918965175706623, 0, 400), (0.379555156987911, 1, 89),
    (0.38041238430599567, 7, 236), (0.38119025977585047, 7, 9),
    (0.3844432558422561, 1, 361), (0.3846930642183724, 6, 161),
    (0.445625052433093, 1, 221), (0.4751771195010201, 7, 317),
    (0.476499443162886, 4, 444), (0.4812814796642649, 7, 361),
    (0.5049623410841285, 7, 429), (0.5189190901967216, 2, 237),
    (0.5221244300452839, 7, 216), (0.5311866927729479, 6, 321),
    (0.5352247590458175, 2, 220), (0.5402339125630126, 0, 505),
    (0.5497965692704719, 5, 485), (0.5626068816009291, 0, 303),
    (0.5630462648330494, 1, 207), (0.5661048276954562, 2, 387),
    (0.5668595682565869, 6, 114), (0.5768725489032636, 7, 8),
    (0.6028025332327622, 0, 303), (0.6040282877192664, 7, 345),
    (0.6045752269686997, 6, 147), (0.6062833717849389, 3, 237),
    (0.6124496688208878, 5, 303), (0.619141923808463, 7, 167),
    (0.6240592864903689, 3, 237), (0.6397426235412104, 4, 237),
    (0.6405278666705322, 0, 303), (0.6444811686064587, 4, 505),
    (0.6446137474607981, 6, 303), (0.6737171373303681, 5, 433),
    (0.675580005713589, 7, 303), (0.6790570463640546, 5, 300),
    (0.6911984676218524, 5, 329), (0.693470242098762, 7, 303),
    (0.7003033919562073, 7, 496), (0.7028799854321589, 5, 171),
    (0.7077117730091975, 2, 237), (0.7325179815389459, 1, 303),
    (0.7331774357927492, 3, 303), (0.7575045845169649, 7, 33),
    (0.7771840245898081, 6, 303), (0.7823965292079522, 2, 285),
    (0.80171952337289, 0, 237), (0.8050466513173619, 7, 137),
)


class TestGoldenStream:
    def test_cuzipf_rows(self):
        spec = cuzipf_stream(rate=40.0, alpha=1.0, warmup=0.5, phase=0.5,
                             n_phases=2, seed=5)
        rows = tuple(islice(iter_arrivals(spec, 511, 8), 64))
        # both reshuffle boundaries fall inside the recorded rows
        assert rows[0][0] < 0.5 < 1.0 < rows[-1][0]
        assert rows == GOLDEN_CUZIPF

    def test_flash_crowd_rows(self):
        spec = WorkloadSpec(
            rate=60.0,
            segments=(StreamSegment(0.5, alpha=0.0),
                      StreamSegment(1.0, alpha=1.2, reshuffle=True,
                                    rate_mult=2.0)),
            seed=9,
        )
        rows = tuple(islice(iter_arrivals(spec, 511, 8), 64))
        assert rows[0][0] < 0.5 < rows[-1][0]  # spans the surge boundary
        assert rows == GOLDEN_FLASH_CROWD


class TestSegmentSampler:
    """The one destination sampler: ``iter_arrivals`` draws through it
    by arrival time, the live generator by elapsed time."""

    SPEC = WorkloadSpec(
        rate=50.0,
        segments=(StreamSegment(1.0, alpha=0.0),
                  StreamSegment(1.0, alpha=1.0, reshuffle=True),
                  StreamSegment(1.0, alpha=1.5, reshuffle=True),
                  StreamSegment(1.0, alpha=1.0, reshuffle=True)),
        seed=4,
    )

    def test_samplers_are_built_up_front_without_drawing(self):
        rng, twin = random.Random(4), random.Random(4)
        sampler = SegmentSampler(self.SPEC, 511, rng)
        assert sorted(sampler._samplers) == [1.0, 1.5]
        twin.shuffle(list(range(511)))  # the one draw: the permutation
        assert rng.getstate() == twin.getstate()

    def test_destinations_follow_the_segments(self):
        sampler = SegmentSampler(self.SPEC, 511, random.Random(4))
        before = list(sampler.perm)
        assert all(0 <= sampler.dest(0.5) < 511 for _ in range(50))
        assert sampler.perm == before
        hot = [sampler.dest(1.5) for _ in range(400)]
        assert sampler.perm != before  # reshuffled at the boundary
        top = sampler.perm[0]
        assert hot.count(top) > 400 * 0.08  # rank 0 of Zipf(1.0): ~15 %
        # past the last boundary the last segment keeps applying
        assert sampler.segment_at(99.0) is self.SPEC.segments[-1]

    def test_iter_arrivals_draws_its_destinations_through_the_sampler(self):
        """Driven by hand in the stream's draw order -- the reshuffles
        crossed, the source, the destination, the next gap -- the
        sampler yields the stream's destinations."""
        rows = list(iter_arrivals(self.SPEC, 511, 8))
        rng = random.Random(self.SPEC.seed ^ 0xA11CE5)
        sampler = SegmentSampler(self.SPEC, 511, rng)
        t = exponential(rng, 1.0 / (self.SPEC.rate
                                    * self.SPEC.segments[0].rate_mult))
        by_hand = []
        while t < self.SPEC.duration:
            seg = sampler.segment_at(t)
            src = rng.randrange(8)
            by_hand.append((t, src, sampler.dest(t)))
            t += exponential(rng, 1.0 / (self.SPEC.rate * seg.rate_mult))
        assert len(rows) > 150
        assert by_hand == rows


class TestFlashCrowd:
    def test_rate_mult_validation(self):
        with pytest.raises(ValueError):
            StreamSegment(duration=1.0, rate_mult=0.0)
        with pytest.raises(ValueError):
            StreamSegment(duration=1.0, rate_mult=-2.0)

    def test_surge_multiplies_crowd_rate(self):
        spec = WorkloadSpec(
            rate=200.0,
            segments=(StreamSegment(5.0, alpha=0.0),
                      StreamSegment(5.0, alpha=1.0, reshuffle=True,
                                    rate_mult=4.0)),
            seed=3,
        )
        times = [t for t, _, _ in iter_arrivals(spec, 511, 8)]
        n_normal = sum(1 for t in times if t < 5.0)
        n_crowd = len(times) - n_normal
        # ~1000 normal arrivals vs ~4000 during the surge
        assert 700 < n_normal < 1300
        assert 3.0 < n_crowd / n_normal < 5.0

    def test_driver_matches_iter_arrivals_under_rate_mult(self):
        spec = WorkloadSpec(
            rate=80.0,
            segments=(StreamSegment(3.0, alpha=0.0),
                      StreamSegment(4.0, alpha=1.2, reshuffle=True,
                                    rate_mult=2.5)),
            seed=7,
        )
        stub = _StubSystem(n_nodes=511, n_servers=8)
        rec = []
        stub.inject = lambda src, dest: rec.append(
            (stub.engine.now, src, dest)
        )
        WorkloadDriver(stub, spec).run()
        assert rec == list(iter_arrivals(spec, 511, 8))
