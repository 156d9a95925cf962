"""Node data and meta-data (paper section 2.1).

Nodes export two types of optional application-supplied information:

* **data** -- the node's actual contents (for a file system, the file),
  exported only by the owner;
* **meta-data** -- annotations, most commonly attributes (name-value
  pairs) and searchable keywords.

Only the owner may modify meta-data; replicas keep the newest version
they have encountered (no freshness guarantees -- soft state).  The
:class:`MetaStore` is the owner-side container; replica sides carry
only the version counter (see
:class:`repro.server.replica_store.Replica`) plus whatever the
application chooses to piggyback.

A :class:`MetaStore` holds a record only for a node whose meta-data was
written: writers ask :meth:`MetaStore.meta`, which creates the record;
readers ask :meth:`MetaStore.read`, which creates nothing and answers a
node never written with the empty meta-data (version 0) it would have.
A lookup resolved at its owner reads the version; it does not leave a
record behind.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set, Tuple


class NodeMeta:
    """Meta-data of one node: attributes, keywords, and a version."""

    __slots__ = ("attributes", "keywords", "version")

    def __init__(self) -> None:
        self.attributes: Dict[str, str] = {}
        self.keywords: Set[str] = set()
        self.version = 0

    def set_attribute(self, name: str, value: str) -> int:
        """Set one attribute; returns the new meta-data version."""
        self.attributes[name] = value
        self.version += 1
        return self.version

    def add_keywords(self, words: Iterable[str]) -> int:
        added = False
        for w in words:
            if w not in self.keywords:
                self.keywords.add(w)
                added = True
        if added:
            self.version += 1
        return self.version

    def matches(self, keyword: Optional[str] = None,
                attribute: Optional[Tuple[str, str]] = None) -> bool:
        """True if this meta-data satisfies the given predicates."""
        if keyword is not None and keyword not in self.keywords:
            return False
        if attribute is not None:
            name, value = attribute
            if self.attributes.get(name) != value:
                return False
        return True

    def snapshot(self) -> "NodeMeta":
        """A detached copy (what a replica would carry)."""
        out = NodeMeta()
        out.attributes = dict(self.attributes)
        out.keywords = set(self.keywords)
        out.version = self.version
        return out


#: what :meth:`MetaStore.read` answers for a node nobody wrote; read-only
_UNWRITTEN = NodeMeta()


class MetaStore:
    """Owner-side store of node data and meta-data.

    Data is opaque to the protocol (we store whatever bytes/objects the
    application supplies); only its placement semantics matter: the
    owner is the server that exports it, and lookup never moves it.
    """

    __slots__ = ("_meta", "_data")

    def __init__(self) -> None:
        self._meta: Dict[int, NodeMeta] = {}
        self._data: Dict[int, object] = {}

    def __contains__(self, node: int) -> bool:
        return node in self._meta or node in self._data

    def meta(self, node: int) -> NodeMeta:
        """The node's meta-data to write (created empty on first access)."""
        m = self._meta.get(node)
        if m is None:
            m = NodeMeta()
            self._meta[node] = m
        return m

    def read(self, node: int) -> NodeMeta:
        """The node's meta-data to read, creating nothing: a node never
        written answers with one shared empty record (version 0, whose
        :meth:`NodeMeta.snapshot` is a fresh empty copy).  Never write
        to what this returns; write through :meth:`meta`."""
        return self._meta.get(node, _UNWRITTEN)

    def set_data(self, node: int, data: object) -> None:
        self._data[node] = data

    def get_data(self, node: int) -> Optional[object]:
        return self._data.get(node)
