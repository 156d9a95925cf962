"""Inverse-mapping digests (paper section 3.6).

A *digest* approximates the inverse of the name-to-host mapping: given
a server, which nodes does it host?  Each server maintains a Bloom
filter over the ids of the nodes it hosts (owned + replicated) and
piggybacks versioned snapshots of it on outgoing messages.  Remote
servers keep the most recent snapshot per peer in a
:class:`DigestDirectory` and use it to

* discover routing shortcuts (test the destination and its ancestors
  against known digests -- section 3.6.1), and
* prune stale entries from node maps (section 3.6.2).

A snapshot is a ``(version, vector)`` pair, ``vector`` the filter's
bits as immutable ``bytes``.  A digest copies its vector once per
*version*, not once per message: :meth:`Digest.snapshot` returns the
same tuple until the digest mutates, so every message, directory and
link table holding an unchanged digest holds one shared object --
safely, because nothing can write to ``bytes``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.filters.bloom import BloomFilter, Positions, Snapshot


class Digest:
    """A server's own digest of the node ids it currently hosts.

    Bloom filters cannot delete, so un-hosting a node triggers a rebuild
    from the live host set; the version number increments on every
    mutation so remote snapshots can be ordered.
    """

    __slots__ = ("_bloom", "version", "owner_server", "_snap")

    def __init__(
        self,
        capacity: int,
        fp_rate: float = 0.01,
        owner_server: int = -1,
        salt: int = 0x7E44AD12,
    ) -> None:
        self._start(
            BloomFilter.with_capacity(capacity, fp_rate, salt=salt),
            owner_server,
        )

    def _start(self, bloom: BloomFilter, owner_server: int) -> None:
        self._bloom = bloom
        self.version = 0
        self.owner_server = owner_server
        # the snapshot last handed out; no version is ever negative
        self._snap: Snapshot = (-1, b"")

    @classmethod
    def like(cls, template: "Digest", owner_server: int = -1) -> "Digest":
        """An empty digest of ``template``'s geometry, sharing its
        position cache: how every digest of a fleet after the first is
        built, at set-up and when a server joins later."""
        n_bits, n_hashes, salt = template._bloom.geometry
        bloom = BloomFilter(n_bits, n_hashes, salt=salt)
        bloom.share_cache_with(template._bloom)
        digest = cls.__new__(cls)
        digest._start(bloom, owner_server)
        return digest

    @property
    def bloom(self) -> BloomFilter:
        """The underlying filter (geometry, positions, raw tests)."""
        return self._bloom

    def add(self, node: int) -> None:
        """Record that this server now hosts ``node``."""
        self._bloom.add(node)
        self.version += 1

    def add_many(self, nodes: Iterable[int]) -> None:
        """Record that this server now hosts ``nodes``: one version per
        node, as :meth:`add` in a loop, for one pass over the bits."""
        bloom = self._bloom
        before = bloom.n_items
        bloom.add_many(nodes)
        self.version += bloom.n_items - before

    def rebuild(self, hosted: Iterable[int]) -> None:
        """Rebuild after un-hosting (replica eviction)."""
        self._bloom.clear()
        self._bloom.add_many(hosted)
        self.version += 1

    def __contains__(self, node: int) -> bool:
        return node in self._bloom

    def snapshot(self) -> Snapshot:
        """The ``(version, vector)`` pair to piggyback: one object per
        version, copied from the filter only when the version moved."""
        snap = self._snap
        if snap[0] != self.version:
            snap = self._snap = (self.version, self._bloom.snapshot())
        return snap


class DigestDirectory:
    """Per-server store of the freshest known digest snapshot per peer.

    All digests in one system share Bloom geometry, so the reference
    digest's positions locate a key in any stored vector; a snapshot of
    another length cannot be probed with them and is refused on arrival
    (:attr:`n_rejected`).

    The directory is read once per routing decision but mutates only
    when piggybacked snapshots arrive, so the eligible-snapshot list
    the digest shortcut probes is cached and invalidated by a directory
    version counter (bumped on every stored snapshot).
    """

    __slots__ = ("positions", "pos_cache", "_n_bytes", "_snaps", "max_peers",
                 "version", "n_rejected", "_snaps_cache_key", "_snaps_cache")

    def __init__(self, reference: Digest, max_peers: int = 0) -> None:
        #: ``BloomFilter.positions`` of the shared geometry
        self.positions = reference.bloom.positions
        #: the dict behind it (key -> positions), shared fleet-wide; a
        #: filter joins a shared cache before its directory is built
        self.pos_cache = reference.bloom.pos_cache
        self._n_bytes = reference.bloom.n_bits // 8
        self._snaps: Dict[int, Snapshot] = {}
        self.max_peers = max_peers  # 0 = unbounded
        #: bumped on every mutation; keys the eligible-snapshot cache
        self.version = 0
        #: snapshots refused for not having the fleet's vector length
        self.n_rejected = 0
        self._snaps_cache_key: Optional[Tuple[int, int, int]] = None
        self._snaps_cache: List[Tuple[int, bytes]] = []

    def __len__(self) -> int:
        return len(self._snaps)

    def observe(self, server: int, snap: Snapshot) -> bool:
        """Record a snapshot for ``server`` if newer; return True if stored."""
        snaps = self._snaps
        cur = snaps.get(server)
        if cur is not None and cur[0] >= snap[0]:
            return False
        if len(snap[1]) != self._n_bytes:
            # probing it with this geometry's positions could raise
            # in the middle of a routing decision
            self.n_rejected += 1
            return False
        if cur is None and self.max_peers and len(snaps) >= self.max_peers:
            # make room: evict the stalest snapshot, i.e. the first
            # entry in directory order holding the lowest version
            entries = iter(snaps.items())
            victim, held = next(entries)
            lowest = held[0]
            for s, held in entries:
                if held[0] < lowest:
                    victim, lowest = s, held[0]
            del snaps[victim]
        snaps[server] = snap
        self.version += 1
        return True

    def eligible_snaps(
        self, exclude: int, limit: int = 0
    ) -> List[Tuple[int, bytes]]:
        """The ``(server, vector)`` list the digest shortcut probes.

        Directory iteration order, skipping ``exclude``, truncated to
        the first ``limit`` entries (0 = unbounded); cached until the
        directory's :attr:`version` moves or the parameters change, so
        steady-state decisions reuse one list.
        """
        key = (self.version, exclude, limit)
        if key == self._snaps_cache_key:
            return self._snaps_cache
        out: List[Tuple[int, bytes]] = []
        for server, snap in self._snaps.items():
            if server == exclude:
                continue
            out.append((server, snap[1]))
            if limit and len(out) >= limit:
                break
        self._snaps_cache_key = key
        self._snaps_cache = out
        return out

    def get(self, server: int) -> Optional[Snapshot]:
        return self._snaps.get(server)

    def test(self, server: int, node: int) -> Optional[bool]:
        """Does ``server`` (by its last known digest) host ``node``?

        Returns None when no snapshot is known for ``server``.
        """
        snap = self._snaps.get(server)
        if snap is None:
            return None
        vector = snap[1]
        for i, m in self.positions(node):
            if not vector[i] & m:
                return False
        return True

    def undenied(
        self, servers: Iterable[int], node: int, drop: int = -1,
        keep: int = -1,
    ) -> List[int]:
        """The members of ``servers`` whose last known digest does not
        deny hosting ``node``, in order: map filtering (section 3.6.2)
        for a whole map at once, ``node``'s positions looked up once.

        A server with no known snapshot passes, like ``test(...) is not
        False``.  ``drop`` is left out and ``keep`` kept whatever their
        digests say (a selecting server never picks itself; a filtering
        server never vetoes itself).
        """
        get = self._snaps.get
        pos: Optional[Positions] = None
        out: List[int] = []
        for s in servers:
            if s == drop:
                continue
            snap = get(s)
            if snap is not None and s != keep:
                if pos is None:
                    pos = self.positions(node)
                vector = snap[1]
                for i, m in pos:
                    if not vector[i] & m:
                        break
                else:
                    out.append(s)
                continue
            out.append(s)
        return out
