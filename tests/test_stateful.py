"""Model-based (stateful) hypothesis tests.

The LRU cache and the event engine are compared operation-by-operation
against trivially correct reference models under random operation
sequences -- the classic way to catch ordering and eviction bugs that
example-based tests miss.
"""

from collections import OrderedDict

from hypothesis import settings
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.server.cache import LRUCache
from repro.sim.engine import Engine


class LRUCacheModel(RuleBasedStateMachine):
    """LRUCache vs an OrderedDict reference implementation."""

    def __init__(self) -> None:
        super().__init__()
        self.capacity = 4
        self.rmap = 3
        self.cache = LRUCache(capacity=self.capacity, rmap=self.rmap)
        self.model: "OrderedDict[int, list]" = OrderedDict()
        self.model_evictions = 0

    def _model_put(self, node: int, servers) -> None:
        if node in self.model:
            entry = self.model[node]
            for s in servers:
                if s not in entry and len(entry) < self.rmap:
                    entry.append(s)
            self.model.move_to_end(node)
            return
        entry = []
        for s in servers:
            if s not in entry and len(entry) < self.rmap:
                entry.append(s)
        if not entry:
            return
        if len(self.model) >= self.capacity:
            self.model.popitem(last=False)
            self.model_evictions += 1
        self.model[node] = entry

    @rule(node=st.integers(0, 9),
          servers=st.lists(st.integers(0, 5), max_size=5))
    def put(self, node, servers):
        self.cache.put(node, servers)
        self._model_put(node, servers)

    @rule(path=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 5)),
                        max_size=6))
    def put_path(self, path):
        """One batched call == the per-hop put loop it replaced."""
        own_sid, owned, replicas = 0, {1}, {2: None}
        self.cache.put_path(path, own_sid, owned, replicas)
        for node, server in path:
            if server != own_sid and node not in owned \
                    and node not in replicas:
                self._model_put(node, (server,))

    @rule(node=st.integers(0, 9))
    def get(self, node):
        got = self.cache.get(node)
        expected = self.model.get(node)
        if expected is not None:
            self.model.move_to_end(node)
        assert (None if got is None else list(got)) == expected

    @rule(node=st.integers(0, 9))
    def peek(self, node):
        got = self.cache.peek(node)
        assert (None if got is None else list(got)) == self.model.get(node)

    @rule(node=st.integers(0, 9))
    def touch(self, node):
        self.cache.touch(node)
        if node in self.model:
            self.model.move_to_end(node)

    @rule(node=st.integers(0, 9))
    def remove(self, node):
        assert self.cache.remove(node) == (self.model.pop(node, None)
                                           is not None)

    @rule(node=st.integers(0, 9), server=st.integers(0, 5))
    def remove_server(self, node, server):
        self.cache.remove_server(node, server)
        entry = self.model.get(node)
        if entry is not None and server in entry:
            entry.remove(server)
            if not entry:
                del self.model[node]

    @invariant()
    def same_contents_and_order(self):
        assert [(n, list(e)) for n, e in self.cache.items()] == [
            (n, e) for n, e in self.model.items()]
        assert len(self.cache) <= self.capacity
        assert self.cache.evictions == self.model_evictions


TestLRUCacheModel = LRUCacheModel.TestCase
TestLRUCacheModel.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)


class EngineModel(RuleBasedStateMachine):
    """Engine dispatch order vs a sorted reference list."""

    handles = Bundle("handles")

    def __init__(self) -> None:
        super().__init__()
        self.engine = Engine()
        self.expected = []  # (time, seq, tag) of live events
        self.fired = []
        self.seq = 0

    @rule(target=handles, delay=st.floats(0.0, 10.0))
    def schedule(self, delay):
        self.seq += 1
        tag = self.seq
        t = self.engine.now + delay
        handle = self.engine.schedule(t, self.fired.append, tag, handle=True)
        self.expected.append([t, self.seq, tag, handle])
        return (tag, handle)

    @rule(h=handles)
    def cancel(self, h):
        tag, handle = h
        handle.cancel()
        self.expected = [e for e in self.expected if e[2] != tag]

    @rule(horizon=st.floats(0.0, 5.0))
    def run_until(self, horizon):
        t = self.engine.now + horizon
        due = sorted((e for e in self.expected if e[0] <= t),
                     key=lambda e: (e[0], e[1]))
        self.expected = [e for e in self.expected if e[0] > t]
        before = len(self.fired)
        self.engine.run(until=t)
        assert self.fired[before:] == [e[2] for e in due]
        assert self.engine.now == t

    @invariant()
    def clock_monotone(self):
        assert self.engine.now >= 0.0


TestEngineModel = EngineModel.TestCase
TestEngineModel.settings = settings(
    max_examples=50, stateful_step_count=30, deadline=None
)
