"""LRU cache of node maps (paper section 2.4).

A cache entry for a node consists solely of some mapping for that node:
a bounded list of servers believed to host it.  Cache entries lack
routing context -- a hit cannot resolve a query by itself, it only
supplies a shortcut pointer.  Entries are replaced LRU, touched
whenever used in routing, and populated by *path propagation*: every
server along a query's path caches the path walked so far.

The cache is written far more often than it is read (about four puts
per message, one closest-entry query per routing decision), so it
keeps no search structure beside the ``OrderedDict``: every mutator is
O(1), and routing finds the closest cached node by scanning the
entries in LRU order (:func:`repro.core.routing.scan_cache`; cost
linear in ``capacity``, DESIGN.md section 10).  An entry is a
read-only tuple, like a ``Peer.maps`` value (DESIGN.md section 11.7):
a write stores a new tuple, never edits the one a reader holds.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Container, Iterable, Iterator, List, Optional, Sequence, Tuple


class LRUCache:
    """Bounded LRU map from node id to a node map of server ids.

    Entries are read-only tuples, like :attr:`Peer.maps` values: a
    write stores a new tuple in the entry's place, so an entry handed
    out by :meth:`get` or :meth:`peek` never changes under its reader.

    >>> c = LRUCache(capacity=2, rmap=4)
    >>> c.put(1, [10]); c.put(2, [20]); c.put(3, [30])
    >>> c.get(1) is None  # evicted
    True
    """

    __slots__ = ("capacity", "rmap", "_entries", "hits", "misses",
                 "evictions")

    def __init__(self, capacity: int, rmap: int = 4) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if rmap < 1:
            raise ValueError("rmap must be >= 1")
        self.capacity = capacity
        self.rmap = rmap
        self._entries: "OrderedDict[int, Tuple[int, ...]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, node: int) -> bool:
        return node in self._entries

    def nodes(self) -> Iterator[int]:
        """Iterate cached node ids in LRU order (no LRU touch)."""
        return iter(self._entries)

    def items(self) -> Iterator[Tuple[int, Sequence[int]]]:
        return iter(self._entries.items())

    def peek(self, node: int) -> Optional[Sequence[int]]:
        """Read an entry without touching LRU order or hit counters."""
        return self._entries.get(node)

    def get(self, node: int) -> Optional[Sequence[int]]:
        """Read an entry, marking it most-recently-used."""
        entry = self._entries.get(node)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(node)
        self.hits += 1
        return entry

    def touch(self, node: int) -> None:
        """Mark as most-recently-used (an entry 'used in routing')."""
        if node in self._entries:
            self._entries.move_to_end(node)

    def put(self, node: int, servers: Sequence[int]) -> None:
        """Insert or extend an entry (union, bounded by ``rmap``).

        The merged entry keeps existing servers and appends new ones up
        to ``rmap``, as a new tuple; a fresh insert may evict the LRU
        entry.
        """
        if self.capacity == 0:
            return
        cur = self._entries.get(node)
        if cur is not None:
            for s in servers:
                if s not in cur and len(cur) < self.rmap:
                    cur = (*cur, s)
            self._entries[node] = cur
            self._entries.move_to_end(node)
            return
        entry: List[int] = []
        for s in servers:
            if s not in entry and len(entry) < self.rmap:
                entry.append(s)
        if not entry:
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[node] = tuple(entry)

    def put_path(
        self,
        path: Iterable[Tuple[int, int]],
        own_sid: int,
        owned: Container[int],
        replicas: Container[int],
    ) -> None:
        """Absorb a propagated path: ``put(node, (server,))`` for every
        ``(node, server)`` hop in order, skipping hops served by
        ``own_sid`` and nodes the caching server hosts itself (members
        of ``owned`` or ``replicas``).

        One call per message instead of one per hop; entries, LRU order
        and the eviction count come out exactly as from the ``put`` loop.
        """
        capacity = self.capacity
        if capacity == 0:
            return
        entries = self._entries
        get = entries.get
        move_to_end = entries.move_to_end
        rmap = self.rmap
        for node, server in path:
            if server == own_sid or node in owned or node in replicas:
                continue
            cur = get(node)
            if cur is not None:
                if server not in cur and len(cur) < rmap:
                    entries[node] = (*cur, server)
                move_to_end(node)
                continue
            if len(entries) >= capacity:
                entries.popitem(last=False)
                self.evictions += 1
            entries[node] = (server,)

    def replace(self, node: int, servers: Sequence[int]) -> None:
        """Overwrite an entry's map (post-merge/filter update).

        Keeps the entry's LRU position: this is a content update, not a
        use.
        """
        if node in self._entries:
            if servers:
                self._entries[node] = tuple(servers[: self.rmap])
            else:
                del self._entries[node]

    def remove(self, node: int) -> bool:
        """Drop an entry (e.g. it proved stale); True if present."""
        return self._entries.pop(node, None) is not None

    def clear(self) -> None:
        self._entries.clear()
