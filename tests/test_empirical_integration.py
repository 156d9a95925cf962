"""Integration: empirical (trace-derived) namespaces through the whole
stack -- build from paths, serve lookups, and search."""

import io

import pytest

from repro.client.client import TerraDirClient
from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.workload.arrivals import WorkloadDriver, empirical_arrivals
from repro.workload.trace import namespace_from_paths

LISTING = """
# a small project volume with access counts
40 /src/core/engine.py
25 /src/core/routing.py
9  /src/net/transport.py
3  /docs/design.md
2  /docs/api/reference.md
70 /release/v1.0/archive.tar.gz
1  /release/v1.0/CHECKSUMS
"""


@pytest.fixture(scope="module")
def volume():
    ns, counts = namespace_from_paths(io.StringIO(LISTING))
    cfg = SystemConfig.replicated(n_servers=6, seed=4, digest_probe_limit=1)
    system = build_system(ns, cfg)
    return ns, counts, system


class TestEmpiricalVolume:
    def test_namespace_shape(self, volume):
        ns, counts, _ = volume
        assert ns.id_of("/src/core/engine.py") >= 0
        assert ns.id_of("/release/v1.0") >= 0  # implicit ancestor
        assert len(counts) == 7

    def test_hot_file_dominates_traffic(self, volume):
        ns, counts, system = volume
        seen = {}
        system.on_inject = lambda t, s, d: seen.__setitem__(
            d, seen.get(d, 0) + 1
        )
        WorkloadDriver(system, empirical_arrivals(
            250.0, 6.0, dict(counts), len(system.peers), seed=9)).start()
        system.run_until(11.0)
        system.on_inject = None
        hot = ns.id_of("/release/v1.0/archive.tar.gz")
        assert seen.get(hot, 0) > 0.3 * sum(seen.values())
        assert system.stats.n_completed / system.stats.n_injected > 0.95

    def test_client_search_over_volume(self, volume):
        ns, counts, system = volume
        node = ns.id_of("/src/core/engine.py")
        owner = system.peers[system.owner[node]]
        owner.metadata.meta(node).add_keywords(["python"])
        client = TerraDirClient(system, home_server=0)
        result = client.wait(
            client.search("/src", keyword="python"), timeout=120.0
        )
        assert result.matches == ["/src/core/engine.py"]
