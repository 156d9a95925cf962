"""Node mapping management (paper section 3.7).

A *node map* associates a node with a possibly incomplete, possibly
stale list of servers that own or replicate it.  Maps are bounded to
``rmap`` entries both at rest and in flight.  Merging keeps advertised
new-replica entries first and fills the remainder at random from the
union.

Maps are plain sequences of server ids, never edited in place (what
``Peer.map_of`` returns; a peer stores only those that differ from the
owner table's default): :func:`merge_maps` writes them, and
``repro.core.routing._select`` / ``_select_filtered`` draw a host from
one, the latter skipping entries whose digest denies the node.
"""

from __future__ import annotations

import random
from typing import List, Sequence


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

    >>> rng = random.Random(0)
    >>> merge_maps([1, 2], [2, 3], rmap=4, rng=rng)
    [1, 2, 3]
    >>> merge_maps([1], [2], rmap=2, rng=rng, advertised=(7, 8, 9))
    [7, 8]
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
