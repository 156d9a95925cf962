"""Validate the queueing substrate against M/M/1/K theory.

A single simulated server fed direct Poisson lookups for its own nodes
is exactly an M/M/1/K queue (K = queue_size + 1): the measured drop
probability and utilisation must match the closed-form results within
sampling error.  This pins down the correctness of the DES engine, the
exponential sampler, the bounded queue, and the busy-time meter in one
end-to-end check.
"""

import math
from typing import List

import pytest

from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.namespace.generators import balanced_tree
from repro.sim.rng import exponential
import random


# ----------------------------------------------------------------------
# Closed-form M/M/1/K results: Poisson arrivals, exponential service,
# one server, K total slots (1 in service + queue_size waiting),
# arrivals beyond K dropped.
# ----------------------------------------------------------------------

def mm1k_state_probabilities(rho: float, k: int) -> List[float]:
    """Stationary probabilities P0..PK of an M/M/1/K queue.

    Args:
        rho: offered load lambda/mu (any positive value; rho >= 1 is
            fine for a finite queue).
        k: total capacity (in service + waiting).
    """
    if rho < 0:
        raise ValueError("rho must be >= 0")
    if k < 1:
        raise ValueError("k must be >= 1")
    if abs(rho - 1.0) < 1e-12:
        p = 1.0 / (k + 1)
        return [p] * (k + 1)
    norm = (1.0 - rho) / (1.0 - rho ** (k + 1))
    return [norm * rho**n for n in range(k + 1)]


def mm1k_blocking_probability(rho: float, k: int) -> float:
    """P(arrival dropped) = P(system full) = P_K."""
    return mm1k_state_probabilities(rho, k)[-1]


def mm1k_utilization(rho: float, k: int) -> float:
    """Fraction of time the server is busy = 1 - P_0."""
    return 1.0 - mm1k_state_probabilities(rho, k)[0]


def mm1k_mean_number_in_system(rho: float, k: int) -> float:
    """E[N], the mean number of requests in the system."""
    probs = mm1k_state_probabilities(rho, k)
    return sum(n * p for n, p in enumerate(probs))


def mm1k_throughput(lam: float, mu: float, k: int) -> float:
    """Accepted-arrival rate = lambda * (1 - P_K)."""
    if lam < 0 or mu <= 0:
        raise ValueError("need lam >= 0 and mu > 0")
    return lam * (1.0 - mm1k_blocking_probability(lam / mu, k))


def mm1k_mean_response_time(lam: float, mu: float, k: int) -> float:
    """E[T] for accepted requests, by Little's law: E[N]/throughput."""
    thr = mm1k_throughput(lam, mu, k)
    if thr == 0:
        return 0.0
    return mm1k_mean_number_in_system(lam / mu, k) / thr


class TestClosedForms:
    def test_probabilities_sum_to_one(self):
        for rho in (0.1, 0.5, 0.9, 1.0, 1.5, 3.0):
            probs = mm1k_state_probabilities(rho, 12)
            assert math.isclose(sum(probs), 1.0, rel_tol=1e-9)

    def test_rho_one_uniform(self):
        probs = mm1k_state_probabilities(1.0, 4)
        assert all(math.isclose(p, 0.2) for p in probs)

    def test_blocking_monotone_in_rho(self):
        bs = [mm1k_blocking_probability(r, 12) for r in (0.2, 0.6, 1.0, 2.0)]
        assert bs == sorted(bs)

    def test_blocking_decreases_with_k(self):
        assert mm1k_blocking_probability(0.8, 24) < mm1k_blocking_probability(
            0.8, 6
        )

    def test_utilization_below_rho(self):
        assert mm1k_utilization(0.5, 12) <= 0.5 + 1e-12

    def test_throughput_conserved(self):
        # accepted rate never exceeds service capacity
        assert mm1k_throughput(lam=300.0, mu=200.0, k=13) <= 200.0

    def test_response_time_littles_law(self):
        lam, mu, k = 150.0, 200.0, 13
        t = mm1k_mean_response_time(lam, mu, k)
        n = mm1k_mean_number_in_system(lam / mu, k)
        thr = mm1k_throughput(lam, mu, k)
        assert math.isclose(t * thr, n, rel_tol=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError):
            mm1k_state_probabilities(-0.1, 4)
        with pytest.raises(ValueError):
            mm1k_state_probabilities(0.5, 0)
        with pytest.raises(ValueError):
            mm1k_throughput(1.0, 0.0, 4)


def _run_single_server(rho: float, seed: int = 1, horizon: float = 400.0):
    """One server, K = queue_size+1 = 13, all lookups locally owned."""
    ns = balanced_tree(levels=3)  # 15 nodes, one server owns all
    cfg = SystemConfig.base(
        n_servers=1, seed=seed, queue_size=12, service_mean=0.005,
        net_delay=0.0, replication_enabled=False,
    )
    system = build_system(ns, cfg)
    mu = 1.0 / cfg.service_mean
    lam = rho * mu
    rng = random.Random(seed)
    t = 0.0
    while True:
        t += exponential(rng, 1.0 / lam)
        if t >= horizon:
            break
        system.engine.schedule(t, system.inject, 0, rng.randrange(len(ns)))
    system.run_until(horizon + 1.0)
    return system, 13


class TestSimulationMatchesTheory:
    @pytest.mark.parametrize("rho", [0.5, 0.9, 1.3])
    def test_drop_probability(self, rho):
        system, k = _run_single_server(rho)
        expected = mm1k_blocking_probability(rho, k)
        measured = system.stats.drop_fraction
        # ~60-100k arrivals: allow 20% relative + small absolute slack
        assert measured == pytest.approx(expected, rel=0.25, abs=0.01)

    @pytest.mark.parametrize("rho", [0.5, 0.9])
    def test_utilization(self, rho):
        system, k = _run_single_server(rho)
        expected = mm1k_utilization(rho, k)
        means = system.stats.loads.means()
        steady = means[5:]
        measured = sum(steady) / len(steady)
        assert measured == pytest.approx(expected, rel=0.1)

    def test_overload_throughput_saturates(self):
        system, k = _run_single_server(2.0, horizon=200.0)
        # accepted throughput ~ mu = 200/s
        accepted = system.stats.n_completed / 200.0
        assert accepted == pytest.approx(200.0, rel=0.1)
