"""Unit tests for the deep-sizeof accounting helper."""

import sys
from array import array

import pytest

from repro.namespace.generators import balanced_tree
from repro.sim.memsize import deep_sizeof, fmt_bytes, report, rss_bytes


class TestDeepSizeof:
    def test_counts_container_contents(self):
        assert deep_sizeof([10**9, 2 * 10**9]) > deep_sizeof([])

    def test_shared_objects_counted_once(self):
        shared = list(range(1000))
        assert deep_sizeof([shared, shared]) < 2 * deep_sizeof(shared)

    def test_cycles_terminate(self):
        a = []
        a.append(a)
        assert deep_sizeof(a) >= sys.getsizeof(a)

    def test_array_is_flat(self):
        """An int arena costs ~4 bytes/element; a list of the same ints
        costs several times more (the point of the arena refactor)."""
        arr = array("i", range(10000))
        boxed = list(range(10000))
        assert deep_sizeof(arr) < deep_sizeof(boxed) / 3

    def test_slots_instances(self):
        class Slotted:
            __slots__ = ("x", "y")

            def __init__(self):
                self.x = list(range(100))
                self.y = "payload" * 50

        s = Slotted()
        assert deep_sizeof(s) > deep_sizeof(s.x) + deep_sizeof(s.y) - 1

    def test_dict_keys_and_values(self):
        d = {"k" * 100: list(range(100))}
        assert deep_sizeof(d) > deep_sizeof("k" * 100) + deep_sizeof(
            list(range(100))
        )

    def test_skips_code_objects(self):
        assert deep_sizeof(deep_sizeof) == 0
        assert deep_sizeof(sys) == 0

    def test_namespace_smaller_than_boxed_equivalent(self):
        ns = balanced_tree(levels=10)
        boxed_anc = [tuple(ns.anc[v]) for v in range(len(ns))]
        assert deep_sizeof(ns) < deep_sizeof(boxed_anc)

    def test_shared_seen_set(self):
        shared = list(range(500))
        sizes = report({"first": [shared], "second": [shared]})
        assert sizes["first"] > sizes["second"]


class TestRss:
    def test_rss_positive_on_linux(self):
        rss = rss_bytes()
        assert rss == 0 or rss > 1024 * 1024  # zero only when unsupported


class TestFmtBytes:
    def test_units(self):
        assert fmt_bytes(512) == "512 B"
        assert fmt_bytes(1536) == "1.5 KiB"
        assert fmt_bytes(3 * 1024**2) == "3.0 MiB"
        assert fmt_bytes(2 * 1024**3) == "2.0 GiB"


class TestMemSmokeFleet:
    """``python -m repro mem-smoke --servers N``: the fleet point."""

    def test_reports_index_sizes_and_enforces_the_budget(self, capsys):
        from repro.experiments import mem_smoke

        (point,) = mem_smoke.run_fleet(500, 4).values()
        assert point["nodes"] == 511 and point["servers"] == 4
        assert 0 < point["index_bytes_per_peer_mean"] <= (
            point["index_bytes_per_peer_max"])
        assert point["index_bytes_total"] < 511 * 200  # arrays, no dicts
        # the build budget is read per phase
        assert point["namespace_s"] >= 0 and point["system_s"] > 0
        assert point["build_s"] == pytest.approx(
            point["namespace_s"] + point["system_s"], abs=2e-3)
        argv = ["--nodes", "500", "--servers", "4", "--budget-mb"]
        if point["peak_rss_bytes"]:  # 0 where the platform hides RSS
            assert mem_smoke.main(argv + ["100000"]) == 0
            assert mem_smoke.main(argv + ["1"]) == 1
        assert "fleet_l8_s4" in capsys.readouterr().out


class TestMemSmokeLevels:
    """``--nodes N`` builds the smallest balanced tree of at least N
    nodes, so a full tree size builds exactly that tree."""

    @pytest.mark.parametrize("n", [3, 4095, 131071, 2**20 - 1])
    def test_full_tree_size_builds_that_tree(self, n):
        from repro.experiments.mem_smoke import _levels_for

        assert 2 ** (_levels_for(n) + 1) - 1 == n

    @pytest.mark.parametrize("n, nodes", [(100000, 131071),
                                          (10**6, 2**20 - 1), (500, 511)])
    def test_other_sizes_round_up_to_the_next_tree(self, n, nodes):
        from repro.experiments.mem_smoke import _levels_for

        assert 2 ** (_levels_for(n) + 1) - 1 == nodes
