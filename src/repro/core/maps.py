"""Node mapping management (paper section 3.7).

A *node map* associates a node with a possibly incomplete, possibly
stale list of servers that own or replicate it.  Maps are bounded to
``rmap`` entries both at rest and in flight.  Merging keeps advertised
new-replica entries first and fills the remainder at random from the
union; filtering drops entries whose digest test fails.

Maps are stored as plain ``list[int]`` on the hot path; the
:class:`NodeMap` wrapper exists for the public API and tests.
"""

from __future__ import annotations

import random
from array import array
from typing import Callable, Iterable, List, Optional, Sequence


def merge_maps(
    mine: Sequence[int],
    incoming: Sequence[int],
    rmap: int,
    rng: random.Random,
    advertised: Sequence[int] = (),
) -> List[int]:
    """Merge two maps for the same node into one of at most ``rmap`` entries.

    Paper rules: (i) entries in ``advertised`` (the most recently
    created replicas the owner wants traffic diverted to) are always
    kept, (ii) the rest of the result is chosen at random from the
    remaining union.

    The same pair of maps may be merged twice with different draws --
    once for the map kept at the server, once for the map propagated
    with the query -- which is why this is a pure function of an RNG.
    """
    if rmap < 1:
        raise ValueError("rmap must be >= 1")
    # maps hold <= rmap (four) small ints: ``in`` on the output list
    # beats hashing into a set, and the list is what gets returned
    out: List[int] = []
    for s in advertised:
        if s not in out:
            out.append(s)
            if len(out) >= rmap:
                return out
    kept = len(out)
    for s in mine:
        if s not in out:
            out.append(s)
    for s in incoming:
        if s not in out:
            out.append(s)
    if len(out) > rmap:
        # overflow: the tail is the union in first-occurrence order
        out[kept:] = rng.sample(out[kept:], rmap - kept)
    return out


def select_host(
    node_map: Sequence[int],
    rng: random.Random,
    exclude: Optional[int] = None,
) -> Optional[int]:
    """Pick a host uniformly at random from a node map (paper: replica
    selection chooses the destination at random from available choice).

    Args:
        exclude: a server id to skip (typically the selecting server
            itself); None disables exclusion.

    Returns:
        A server id, or None when no eligible entry exists.
    """
    if exclude is None:
        return rng.choice(list(node_map)) if node_map else None
    eligible = [s for s in node_map if s != exclude]
    if not eligible:
        return None
    return rng.choice(eligible)


class NodeMap:
    """Public-API wrapper around a bounded node map.

    >>> m = NodeMap(node=7, rmap=3)
    >>> m.add(1), m.add(2), m.add(1)
    (True, True, False)
    >>> sorted(m.servers)
    [1, 2]
    """

    __slots__ = ("node", "rmap", "_servers")

    def __init__(
        self, node: int, rmap: int, servers: Iterable[int] = ()
    ) -> None:
        if rmap < 1:
            raise ValueError("rmap must be >= 1")
        self.node = node
        self.rmap = rmap
        # bounded (<= rmap) and int-only: a C int array, not a list of
        # boxed ints
        self._servers = array("i")
        for s in servers:
            self.add(s)

    @property
    def servers(self) -> List[int]:
        return list(self._servers)

    def __len__(self) -> int:
        return len(self._servers)

    def __contains__(self, server: int) -> bool:
        return server in self._servers

    def add(self, server: int) -> bool:
        """Add an entry if absent and there is room; True if added."""
        if server in self._servers:
            return False
        if len(self._servers) >= self.rmap:
            return False
        self._servers.append(server)
        return True

    def add_preferred(self, server: int, rng: random.Random) -> None:
        """Add an entry, evicting a random other entry when full.

        Used for advertised new replicas, which must enter the map so
        excess traffic is diverted to them quickly.  The eviction draw
        comes from the caller's seeded stream, never ambient entropy.
        """
        if server in self._servers:
            return
        if len(self._servers) >= self.rmap:
            self._servers.pop(rng.randrange(len(self._servers)))
        self._servers.insert(0, server)

    def discard(self, server: int) -> bool:
        """Remove an entry if present; True if removed."""
        try:
            self._servers.remove(server)
            return True
        except ValueError:
            return False

    def merge(
        self,
        incoming: Sequence[int],
        rng: random.Random,
        advertised: Sequence[int] = (),
    ) -> None:
        self._servers = array(
            "i", merge_maps(self._servers, incoming, self.rmap, rng, advertised)
        )

    def filter(self, keep_predicate: Callable[[int], bool]) -> int:
        """Drop entries failing ``keep_predicate(server)``; return #dropped.

        This is the digest-based map pruning of paper section 3.6.2:
        the predicate should return False only when a digest test for
        the node *fails* (a conservative, no-false-removal operation,
        modulo digest staleness).
        """
        before = len(self._servers)
        self._servers = array(
            "i", [s for s in self._servers if keep_predicate(s)]
        )
        return before - len(self._servers)

    def select(
        self, rng: random.Random, exclude: Optional[int] = None
    ) -> Optional[int]:
        return select_host(self._servers, rng, exclude)

    def __repr__(self) -> str:
        return f"NodeMap(node={self.node}, servers={list(self._servers)})"
