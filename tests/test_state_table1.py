"""Tests for paper Table 1: server-node relationships and their state."""

import pytest

from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.namespace.generators import balanced_tree
from repro.server.state import (
    STATE_MATRIX,
    Relationship,
    audit_peer,
    relationship_of,
    state_kinds,
)


@pytest.fixture
def system():
    ns = balanced_tree(levels=5)
    cfg = SystemConfig.replicated(n_servers=8, seed=4, bootstrap_known_peers=0)
    return ns, build_system(ns, cfg)


class TestMatrix:
    def test_matrix_matches_paper(self):
        assert STATE_MATRIX[Relationship.OWNED] == {
            "name", "map", "data", "meta", "context"
        }
        assert STATE_MATRIX[Relationship.REPLICATED] == {
            "name", "map", "meta", "context"
        }
        assert STATE_MATRIX[Relationship.NEIGHBORING] == {"name", "map"}
        assert STATE_MATRIX[Relationship.CACHED] == {"name", "map"}

    def test_replicated_lacks_data(self):
        """Only the owner exports node data; replicas keep meta + maps +
        context but never the data itself (lookup vs retrieval split)."""
        assert "data" not in STATE_MATRIX[Relationship.REPLICATED]


class TestClassification:
    def test_owned(self, system):
        ns, sys_ = system
        p = sys_.peers[0]
        v = next(iter(p.owned))
        assert relationship_of(p, v) is Relationship.OWNED

    def test_replicated(self, system):
        ns, sys_ = system
        src, dst = sys_.peers[0], sys_.peers[1]
        v = next(iter(src.owned))
        dst.store.install(src.store.build_payload(v), 0.0)
        assert relationship_of(dst, v) is Relationship.REPLICATED

    def test_neighboring(self, system):
        ns, sys_ = system
        p = sys_.peers[0]
        v = next(iter(p.owned))
        for nbr in ns.neighbors(v):
            if not p.hosts(nbr):
                assert relationship_of(p, nbr) is Relationship.NEIGHBORING
                break

    def test_cached(self, system):
        ns, sys_ = system
        p = sys_.peers[0]
        free = next(v for v in range(len(ns))
                    if not p.hosts(v) and not p.pinned(v))
        p.cache.put(free, [1])
        assert relationship_of(p, free) is Relationship.CACHED

    def test_none(self, system):
        ns, sys_ = system
        p = sys_.peers[0]
        free = next(v for v in range(len(ns))
                    if not p.hosts(v) and not p.pinned(v)
                    and v not in p.cache)
        assert relationship_of(p, free) is Relationship.NONE

    def test_owned_takes_precedence_over_neighboring(self, system):
        """A node can be owned AND a neighbor of another owned node;
        Table 1 classification reports the strongest relationship."""
        ns, sys_ = system
        p = sys_.peers[0]
        owned_pair = [
            v for v in p.owned
            if any(n in p.owned for n in ns.neighbors(v))
        ]
        if owned_pair:  # depends on random assignment; usually non-empty
            assert relationship_of(p, owned_pair[0]) is Relationship.OWNED


class TestStateKinds:
    def test_owned_has_all_columns(self, system):
        ns, sys_ = system
        p = sys_.peers[0]
        v = next(iter(p.owned))
        assert state_kinds(p, v) == {"name", "map", "data", "meta", "context"}

    def test_replica_has_table1_columns(self, system):
        ns, sys_ = system
        src, dst = sys_.peers[0], sys_.peers[1]
        v = next(iter(src.owned))
        dst.store.install(src.store.build_payload(v), 0.0)
        assert state_kinds(dst, v) == {"name", "map", "meta", "context"}

    def test_cached_has_name_and_map_only(self, system):
        ns, sys_ = system
        p = sys_.peers[0]
        free = next(v for v in range(len(ns))
                    if not p.hosts(v) and not p.pinned(v))
        p.cache.put(free, [1])
        assert state_kinds(p, free) == {"name", "map"}


class TestAudit:
    def test_fresh_system_passes_audit(self, system):
        ns, sys_ = system
        for p in sys_.peers:
            counts = audit_peer(p)
            assert counts[Relationship.OWNED] == len(p.owned)

    def test_audit_after_replication(self, system):
        ns, sys_ = system
        src, dst = sys_.peers[0], sys_.peers[1]
        v = next(iter(src.owned))
        dst.store.install(src.store.build_payload(v), 0.0)
        counts = audit_peer(dst)
        assert counts[Relationship.REPLICATED] == 1

    def test_audit_after_eviction(self, system):
        ns, sys_ = system
        src, dst = sys_.peers[0], sys_.peers[1]
        v = next(iter(src.owned))
        dst.store.install(src.store.build_payload(v), 0.0)
        dst.store.evict(v, 1.0)
        counts = audit_peer(dst)
        assert counts[Relationship.REPLICATED] == 0
