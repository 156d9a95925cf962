"""Tests for the application-facing TerraDir client."""

import pytest

from repro.client.client import TerraDirClient
from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.namespace.generators import university_tree
from repro.namespace.tree import Namespace


@pytest.fixture
def system():
    ns = university_tree()
    cfg = SystemConfig.replicated(n_servers=len(ns), seed=2,
                                  bootstrap_known_peers=0)
    return ns, build_system(ns, cfg, owner=list(range(len(ns))))


class TestLookup:
    def test_remote_lookup(self, system):
        ns, sys_ = system
        client = TerraDirClient(sys_, home_server=ns.id_of("/university/public"))
        fut = client.lookup("/university/private/people/staff/Ann")
        result = client.wait(fut)
        assert result.name == "/university/private/people/staff/Ann"
        assert ns.id_of("/university/private/people/staff/Ann") == result.node
        assert result.servers  # some host resolved
        assert result.hops >= 1
        assert result.latency > 0

    def test_local_lookup(self, system):
        ns, sys_ = system
        home = ns.id_of("/university")
        client = TerraDirClient(sys_, home_server=home)
        result = client.wait(client.lookup("/university"))
        assert result.hops == 0

    def test_unknown_name_raises(self, system):
        ns, sys_ = system
        client = TerraDirClient(sys_, home_server=0)
        with pytest.raises(KeyError):
            client.lookup("/nope")

    def test_meta_version_in_result(self, system):
        ns, sys_ = system
        target = "/university/private"
        node = ns.id_of(target)
        owner = sys_.peers[sys_.owner[node]]
        owner.bump_meta(node)
        owner.bump_meta(node)
        client = TerraDirClient(sys_, home_server=0)
        result = client.wait(client.lookup(target))
        assert result.meta_version == 2

    def test_bad_home_server(self, system):
        ns, sys_ = system
        with pytest.raises(ValueError):
            TerraDirClient(sys_, home_server=999)

    def test_rejects_fewer_than_one_retrieve_attempt(self, system):
        """With no attempt allowed, every non-local retrieve would fail
        with "no data host reachable" whatever the lookup map held."""
        ns, sys_ = system
        with pytest.raises(ValueError, match="retrieve_attempts"):
            TerraDirClient(sys_, home_server=0, retrieve_attempts=0)

    def test_counters(self, system):
        ns, sys_ = system
        client = TerraDirClient(sys_, home_server=0)
        client.wait(client.lookup("/university"))
        assert client.n_lookups == 1


class TestRetrieve:
    def test_two_step_retrieval(self, system):
        ns, sys_ = system
        target = "/university/private/people/faculty/Lisa"
        node = ns.id_of(target)
        owner = sys_.peers[sys_.owner[node]]
        owner.metadata.set_data(node, b"lisa's homepage")
        owner.metadata.meta(node).set_attribute("role", "faculty")

        client = TerraDirClient(sys_, home_server=0)
        result = client.wait(client.retrieve(target))
        assert result.data == b"lisa's homepage"
        assert result.meta.attributes["role"] == "faculty"
        assert result.served_by == owner.sid
        assert result.attempts >= 1

    def test_meta_only_retrieval(self, system):
        ns, sys_ = system
        target = "/university/public/people"
        node = ns.id_of(target)
        sys_.peers[sys_.owner[node]].metadata.meta(node).add_keywords(
            ["directory"]
        )
        client = TerraDirClient(sys_, home_server=1)
        result = client.wait(client.retrieve(target, want_meta=True))
        assert "directory" in result.meta.keywords
        assert result.data is None

    def test_redirect_from_routing_replica(self, system):
        """A lookup may resolve at a routing replica; the data request
        is redirected to the owner (replicas export no data)."""
        ns, sys_ = system
        target = "/university/private/people"
        node = ns.id_of(target)
        owner = sys_.peers[sys_.owner[node]]
        owner.metadata.set_data(node, "the-data")
        # install a replica on another server and poison the client's
        # first retrieval target to be that replica
        other = sys_.peers[ns.id_of("/university/public/people")]
        other.store.install(owner.store.build_payload(node), 0.0)

        client = TerraDirClient(sys_, home_server=0)
        lookup = client.wait(client.lookup(target))
        fut = client.retrieve(target)
        result = client.wait(fut)
        assert result.data == "the-data"
        assert result.served_by == owner.sid


class TestSearch:
    def test_search_whole_subtree(self, system):
        ns, sys_ = system
        client = TerraDirClient(sys_, home_server=0)
        result = client.wait(
            client.search("/university/private/people"), timeout=120.0
        )
        assert sorted(result.matches) == sorted(
            ns.name_of(v)
            for v in ns.subtree(ns.id_of("/university/private/people"))
        )
        assert not result.failed

    def test_search_with_keyword_filter(self, system):
        ns, sys_ = system
        # tag two people as 'staff'
        for name in ("/university/private/people/staff/Ann",
                     "/university/private/people/staff/Mary"):
            node = ns.id_of(name)
            sys_.peers[sys_.owner[node]].metadata.meta(node).add_keywords(
                ["staff"]
            )
        client = TerraDirClient(sys_, home_server=0)
        result = client.wait(
            client.search("/university/private", keyword="staff"),
            timeout=120.0,
        )
        assert sorted(result.matches) == [
            "/university/private/people/staff/Ann",
            "/university/private/people/staff/Mary",
        ]

    def test_search_with_attribute_filter(self, system):
        ns, sys_ = system
        node = ns.id_of("/university/public/people/students/John")
        sys_.peers[sys_.owner[node]].metadata.meta(node).set_attribute(
            "year", "2004"
        )
        client = TerraDirClient(sys_, home_server=2)
        result = client.wait(
            client.search("/university/public", attribute=("year", "2004")),
            timeout=120.0,
        )
        assert result.matches == ["/university/public/people/students/John"]

    def test_search_max_nodes_cap(self, system):
        ns, sys_ = system
        client = TerraDirClient(sys_, home_server=0)
        result = client.wait(
            client.search("/university", max_nodes=3), timeout=120.0
        )
        assert len(result.matches) == 3

    def test_search_rejects_a_negative_cap(self):
        """``max_nodes=-1`` used to slice ``nodes[:-1]`` and silently
        skip the subtree's last node (3 of 4 resolved on ``/a``)."""
        ns = Namespace.from_names(["/a/x", "/a/y", "/a/z", "/b/w"])
        sys_ = build_system(ns, SystemConfig.replicated(n_servers=2, seed=1))
        client = TerraDirClient(sys_, home_server=0)
        with pytest.raises(ValueError, match="max_nodes"):
            client.search("/a", max_nodes=-1)


class TestMetaStore:
    def test_attributes_and_keywords(self):
        from repro.namespace.meta import MetaStore

        store = MetaStore()
        m = store.meta(5)
        assert m.set_attribute("color", "red") == 1
        assert m.add_keywords(["a", "b"]) == 2
        assert m.add_keywords(["a"]) == 2  # no change, no version bump

    def test_matching(self):
        from repro.namespace.meta import MetaStore

        store = MetaStore()
        store.meta(1).add_keywords(["x"])
        store.meta(2).set_attribute("k", "v")
        one, two = store.meta(1), store.meta(2)
        assert one.matches(keyword="x") and not two.matches(keyword="x")
        assert two.matches(attribute=("k", "v"))
        assert not one.matches(attribute=("k", "v"))
        assert one.matches() and two.matches()

    def test_snapshot_detached(self):
        from repro.namespace.meta import MetaStore

        store = MetaStore()
        m = store.meta(1)
        m.set_attribute("a", "1")
        snap = m.snapshot()
        m.set_attribute("a", "2")
        assert snap.attributes["a"] == "1"
        assert m.attributes["a"] == "2"

    def test_data(self):
        from repro.namespace.meta import MetaStore

        store = MetaStore()
        assert store.get_data(1) is None and 1 not in store
        store.set_data(1, b"bytes")
        assert store.get_data(1) == b"bytes"
        assert 1 in store
