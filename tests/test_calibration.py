"""Utilisation calibration, and its tests.

Experiments convert a target mean utilisation into an arrival rate via
``rate = util * N / (T_hop * E[hops])``, with ``E[hops]`` guessed by the
:class:`~repro.experiments.common.Scale`.  :func:`calibrate_rate` runs
short probe simulations, measures the *achieved* mean utilisation, and
iterates the rate until the measurement lands within tolerance -- the
check that the guess is close.
"""

import pytest

from repro.experiments.common import Scale, build, make_ns, run_workload
from repro.workload.streams import unif_stream


def measure_utilization(scale, rate, probe_duration=10.0, seed=0,
                        preset="BCR"):
    """One probe run; returns measured mean utilisation and mean hops."""
    system = build(make_ns(scale), scale, preset=preset, seed=seed)
    run_workload(system, unif_stream(rate, probe_duration, seed=seed),
                 drain=2.0)
    means = system.stats.loads.means()
    steady = means[max(1, len(means) // 4):] or means  # skip warm-up
    return {
        "utilization": sum(steady) / len(steady),
        "mean_hops": system.stats.mean_hops,
        "drop_fraction": system.stats.drop_fraction,
    }


def calibrate_rate(target_util, scale, tolerance=0.05, max_iterations=5,
                   probe_duration=10.0, seed=0, preset="BCR"):
    """Find the arrival rate achieving ``target_util`` mean utilisation.

    Iterates ``rate *= target / measured`` (utilisation is close to
    linear in rate below saturation) until within relative
    ``tolerance`` or ``max_iterations``.
    """
    if not 0.0 < target_util < 0.9:
        raise ValueError("target_util must be in (0, 0.9)")
    if tolerance <= 0:
        raise ValueError("tolerance must be > 0")
    rate = scale.rate(target_util)
    measured = measure_utilization(scale, rate, probe_duration, seed, preset)
    iterations = 1
    while (
        abs(measured["utilization"] - target_util) > tolerance * target_util
        and iterations < max_iterations
    ):
        if measured["utilization"] <= 0:
            rate *= 2.0
        else:
            rate *= target_util / measured["utilization"]
        measured = measure_utilization(
            scale, rate, probe_duration, seed, preset
        )
        iterations += 1
    return {
        "rate": rate,
        "utilization": measured["utilization"],
        "mean_hops": measured["mean_hops"],
        "iterations": float(iterations),
        "converged": float(
            abs(measured["utilization"] - target_util)
            <= tolerance * target_util
        ),
    }

MICRO = Scale(
    name="tiny", ns_levels=7, nc_nodes=500, n_servers=8,
    warmup=2.0, phase=2.0, n_phases=1, drain=2.0, cache_slots=8,
    digest_probe_limit=1,
)


class TestMeasure:
    def test_probe_returns_metrics(self):
        r = measure_utilization(MICRO, rate=150.0, probe_duration=5.0, seed=1)
        assert 0.0 <= r["utilization"] <= 1.0
        assert r["mean_hops"] > 0
        assert 0.0 <= r["drop_fraction"] <= 1.0

    def test_utilization_monotone_in_rate(self):
        lo = measure_utilization(MICRO, rate=80.0, probe_duration=6.0, seed=1)
        hi = measure_utilization(MICRO, rate=320.0, probe_duration=6.0, seed=1)
        assert hi["utilization"] > lo["utilization"]


class TestCalibrate:
    def test_converges_to_target(self):
        r = calibrate_rate(0.3, scale=MICRO, tolerance=0.15,
                           probe_duration=6.0, seed=2)
        assert r["converged"] == 1.0
        assert r["utilization"] == pytest.approx(0.3, rel=0.15)
        assert r["rate"] > 0

    def test_bad_estimate_corrected(self):
        """Even a wildly wrong hops estimate calibrates out."""
        bad = Scale(
            name="tiny", ns_levels=7, nc_nodes=500, n_servers=8,
            warmup=2.0, phase=2.0, n_phases=1, drain=2.0, cache_slots=8,
            digest_probe_limit=1, hops_estimate=30.0,  # ~10x too high
        )
        r = calibrate_rate(0.25, scale=bad, tolerance=0.2,
                           probe_duration=6.0, seed=3)
        assert r["converged"] == 1.0
        assert r["iterations"] >= 2  # the first probe must have missed

    def test_validation(self):
        with pytest.raises(ValueError):
            calibrate_rate(0.0, scale=MICRO)
        with pytest.raises(ValueError):
            calibrate_rate(0.95, scale=MICRO)
        with pytest.raises(ValueError):
            calibrate_rate(0.3, scale=MICRO, tolerance=0.0)
