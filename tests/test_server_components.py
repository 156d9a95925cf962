"""Unit tests for the peer pipeline components and who owns what."""

from types import MemberDescriptorType

import pytest

from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.namespace.generators import balanced_tree
from repro.server.ingress import IngressQueue
from repro.server.peer import Peer
from repro.server.replica_store import ReplicaStore
from repro.server.routing_core import RoutingCore
from repro.server.softstate import SoftStateAbsorber


class TestIngressQueue:
    def test_fifo_order(self):
        q = IngressQueue(capacity=4)
        for i in range(3):
            assert q.offer(i)
        assert [q.pop(), q.pop(), q.pop()] == [0, 1, 2]

    def test_drop_when_full(self):
        q = IngressQueue(capacity=2)
        assert q.offer("a")
        assert q.offer("b")
        assert not q.offer("c")
        assert not q.offer("d")
        assert q.n_drops == 2
        assert len(q) == 2

    def test_zero_capacity_drops_everything(self):
        q = IngressQueue(capacity=0)
        assert not q.offer("a")
        assert q.n_drops == 1
        assert len(q) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            IngressQueue(capacity=-1)

    def test_clear_does_not_count_drops(self):
        q = IngressQueue(capacity=4)
        q.offer("a")
        q.offer("b")
        q.clear()
        assert len(q) == 0
        assert q.n_drops == 0

    def test_bool_and_repr(self):
        q = IngressQueue(capacity=2)
        assert not q
        q.offer("a")
        assert q
        assert "depth=1/2" in repr(q)

    def test_pop_reopens_capacity(self):
        q = IngressQueue(capacity=1)
        q.offer("a")
        assert not q.offer("b")
        q.pop()
        assert q.offer("c")
        assert q.n_drops == 1


def make(n_servers=4, levels=4, **over):
    ns = balanced_tree(levels=levels)
    defaults = dict(n_servers=n_servers, seed=3, bootstrap_known_peers=0)
    defaults.update(over)
    cfg = SystemConfig.replicated(**defaults)
    return ns, build_system(ns, cfg)


class TestPeerFacade:
    """Each piece of peer state has one owner, and callers name it."""

    def test_component_wiring(self):
        ns, system = make()
        p = system.peers[0]
        assert isinstance(p.ingress, IngressQueue)
        assert isinstance(p.absorber, SoftStateAbsorber)
        assert isinstance(p.router, RoutingCore)
        assert isinstance(p.store, ReplicaStore)

    def test_drop_accounting_delegates(self):
        ns, system = make(queue_size=1)
        p = system.peers[0]
        dest = system.peers[1].owned_nodes()[0]
        for i in range(4):
            p.inject(dest, qid=i)
        assert p.ingress.n_drops == 2

    def test_state_has_one_owner(self):
        """The peer re-exports no component state: no property or
        one-line forward reaches the same state a second way."""
        forwards = {
            "queue", "n_queue_drops", "in_service", "replicas",
            "hosted_list", "adverts_recent", "n_hosted", "iter_hosted",
            "install_replica", "evict_replica", "build_replica_payload",
            "note_replica_created", "adopt_node",
        }
        assert not forwards & set(vars(Peer))
        assert "iter_hosted" not in vars(ReplicaStore)
        # the in-band load table is a plain peer slot; the absorber
        # writes it and keeps no table of its own
        assert isinstance(vars(Peer)["known_loads"], MemberDescriptorType)
        assert SoftStateAbsorber.__slots__ == ("peer",)
        ns, system = make()
        p = system.peers[0]
        assert set(p.store.hosted_list) == set(p.owned_nodes())
