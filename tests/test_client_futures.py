"""Edge-case tests for the client future machinery and timeouts."""

import pytest

from repro.client.client import TerraDirClient
from repro.client.results import Future
from repro.cluster.builder import build_system
from repro.cluster.config import SystemConfig
from repro.cluster.failures import FailureInjector
from repro.namespace.generators import balanced_tree


class TestFuture:
    def test_resolve_once(self):
        f = Future()
        f.resolve(1)
        f.resolve(2)  # ignored
        assert f.value == 1
        assert f.ok

    def test_fail_once(self):
        f = Future()
        f.fail("boom")
        f.resolve(2)  # ignored after failure
        assert f.error == "boom"
        assert not f.ok

    def test_on_done_before_resolution(self):
        f = Future()
        seen = []
        f.on_done(lambda fut: seen.append(fut.value))
        f.resolve(7)
        assert seen == [7]

    def test_on_done_after_resolution_fires_immediately(self):
        f = Future()
        f.resolve(7)
        seen = []
        f.on_done(lambda fut: seen.append(fut.value))
        assert seen == [7]

    def test_multiple_callbacks(self):
        f = Future()
        seen = []
        f.on_done(lambda fut: seen.append("a"))
        f.on_done(lambda fut: seen.append("b"))
        f.resolve(0)
        assert seen == ["a", "b"]


def make_system(**over):
    ns = balanced_tree(levels=5)
    defaults = dict(n_servers=4, seed=3, digest_probe_limit=1)
    defaults.update(over)
    return ns, build_system(ns, SystemConfig.replicated(**defaults))


class TestTimeouts:
    def test_lookup_timeout_on_black_hole(self):
        """A lookup whose destination became unreachable times out with
        a failed future, not a hang."""
        ns, system = make_system()
        inj = FailureInjector(system)
        victim = 2
        node = system.peers[victim].owned_nodes()[0]
        inj.fail(victim)
        client = TerraDirClient(system, home_server=0, lookup_timeout=2.0)
        fut = client.lookup_node(node)
        with pytest.raises(RuntimeError):
            client.wait(fut, timeout=30.0)
        assert client.n_timeouts == 1

    def test_wait_timeout_raises_timeout_error(self):
        ns, system = make_system()
        client = TerraDirClient(system, home_server=0, lookup_timeout=50.0)
        node = system.peers[2].owned_nodes()[0]
        fut = client.lookup_node(node)
        # drain the engine artificially short: deadline before response
        with pytest.raises(TimeoutError):
            client.wait(fut, timeout=0.001)

    def test_timeout_cancelled_on_success(self):
        ns, system = make_system()
        client = TerraDirClient(system, home_server=0, lookup_timeout=5.0)
        node = system.peers[2].owned_nodes()[0]
        result = client.wait(client.lookup_node(node))
        assert result.node == node
        # let the (cancelled) timeout instant pass: no spurious failure
        system.run_until(system.engine.now + 10.0)
        assert client.n_timeouts == 0

    def test_client_validation(self):
        ns, system = make_system()
        with pytest.raises(ValueError):
            TerraDirClient(system, home_server=0, lookup_timeout=0.0)


class TestRetrieveFailures:
    def test_retrieve_fails_when_no_data_host(self):
        """All mapped servers redirect in circles -> bounded attempts."""
        ns, system = make_system()
        inj = FailureInjector(system)
        node = system.peers[2].owned_nodes()[0]
        client = TerraDirClient(system, home_server=0, lookup_timeout=3.0,
                                retrieve_attempts=2)
        lookup = client.wait(client.lookup_node(node))
        inj.fail(2)  # the only data host dies after the lookup
        name = ns.name_of(node)
        fut = client.retrieve(name)
        with pytest.raises((RuntimeError, TimeoutError)):
            client.wait(fut, timeout=30.0)

    def test_home_served_retrieval(self):
        ns, system = make_system()
        home = system.peers[0]
        node = home.owned_nodes()[0]
        home.metadata.set_data(node, "local")
        client = TerraDirClient(system, home_server=0)
        result = client.wait(client.retrieve(ns.name_of(node)))
        assert result.data == "local"
        assert result.served_by == 0


class TestLookupRetries:
    def test_retry_masks_transient_failure(self):
        """The destination's host is down for the first attempt and
        back for the retry: the client masks the outage."""
        ns, system = make_system()
        inj = FailureInjector(system)
        victim = 2
        node = system.peers[victim].owned_nodes()[0]
        client = TerraDirClient(system, home_server=0, lookup_timeout=2.0,
                                lookup_retries=2)
        inj.fail(victim)
        # schedule recovery during the first timeout window
        system.engine.schedule_after(1.0, inj.recover, victim)
        result = client.wait(client.lookup_node(node), timeout=60.0)
        assert result.node == node
        assert client.n_retries >= 1

    def test_retries_exhausted_fails(self):
        ns, system = make_system()
        inj = FailureInjector(system)
        victim = 2
        node = system.peers[victim].owned_nodes()[0]
        inj.fail(victim)
        client = TerraDirClient(system, home_server=0, lookup_timeout=1.0,
                                lookup_retries=1)
        fut = client.lookup_node(node)
        with pytest.raises(RuntimeError):
            client.wait(fut, timeout=60.0)
        assert client.n_timeouts == 2  # initial + 1 retry

    def test_negative_retries_rejected(self):
        ns, system = make_system()
        with pytest.raises(ValueError):
            TerraDirClient(system, home_server=0, lookup_retries=-1)
