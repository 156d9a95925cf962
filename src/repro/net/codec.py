"""Packed message bodies: the one codec every wire in the tree shares.

A *body* is the struct-packed field layout of one message class from
:mod:`repro.net.message`, compiled from the class's declaration when
this module is imported.  Two framings carry bodies and neither owns a
second copy of them:

* :mod:`repro.net.frame` -- the live wire: ``u8 type_id | body`` behind
  a 4-byte length header, one frame per message on a UDS/TCP stream;
* :mod:`repro.sim.shardcodec` -- the sharded data plane: a 27-byte
  merge-key header, ``type_id``, body length and body per record of a
  cross-shard batch.

The closed type-id table (:data:`repro.net.message.WIRE_TYPES`) is the
allowlist: a class without an entry cannot be encoded, an id without an
entry cannot be decoded, and decoding can only ever build the message
structs listed there.

**Layouts.**  Each class declares its fields once, in wire order, as a
``__slots__`` dict ``{field: kind}``.  The kinds and their wire forms:

* ``"i32"``, ``"i64"``, ``"f64"``, ``"bool"`` (one byte) -- scalars; a
  run of consecutive scalar fields is one ``struct.Struct``;
* ``"list[int]"`` -- a u32 count and that many i32;
* ``(list, record)`` / ``(dict, record)`` -- a u32 count, then each
  record's fields by the same rules; a record is a declared class or a
  tuple of kinds (a dict's is ``(key kind, value kind)``);
* ``("digest", sender)`` -- a digest snapshot, interned per link under
  the scalar field ``sender`` declared before it (below);
* ``"meta"`` / ``"data"`` -- a :class:`~repro.namespace.meta.NodeMeta`
  snapshot or ``None``, and an application data scalar: two leaf
  codecs with tagged grammars of their own.  Neither is a message
  layout and neither is restated anywhere, so a generic union kind
  would buy nothing.

:func:`compile_layout` generates one encoder and one decoder per class
as straight-line source, so a field costs no Python call (the digest and
the leaves are one helper call each).  A declaration it cannot read --
an unknown kind, a slot without a kind or a kind without a slot, a
digest keyed by an undeclared field -- raises :class:`TypeError` naming
class and field.

**Digest interning.**  A query or response piggybacks its sender's
versioned digest snapshot (paper section 3.6), and a receiver keeps
only the freshest one per peer, so on a FIFO link re-sending an
unchanged snapshot buys nothing.  The digest field therefore has three
forms: absent, *full* ``(version, vector)``, and *version only*.  The
full form is a head (version, u64 word count) and then the snapshot's
``bytes`` as they are -- the vector is its own wire body, read back as
one bounds-checked slice copy.  The version-only form is written when
the :class:`DigestTable` handed to the encoder shows this link already
carried that sender's snapshot at that version, and is expanded on read
from the receiving end's table to the identical ``(version, vector)``
tuple.  Both tables see the same byte stream in the same order, so they
stay in step by construction; with no table (shard batches, the client
plane, tests) the field is always written -- and must always arrive --
in full.  A digest's version increments on every mutation (:class:`repro
.filters.digest.Digest`), which is what lets a version stand for its
vector; the reader still refuses a version-only marker that does not
match the version it holds, so an out-of-step pair of tables costs an
error, not a wrong snapshot.  Whether a vector fits the *receiver's*
geometry is for ``DigestDirectory.observe`` to check, not the wire.

Everything is little-endian with explicit ``struct`` formats.  Encoders
and decoders are pure functions of their arguments (tables included):
no clocks, RNG or I/O.  A value its kind cannot hold raises
:class:`CodecError` naming class and field on encode; what a decoder
may raise on malformed input is listed at :data:`DECODE_ERRORS`.
"""

from __future__ import annotations

import struct
from types import MemberDescriptorType
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.filters.bloom import Snapshot
from repro.namespace.meta import NodeMeta
from repro.net.message import WIRE_TYPES

__all__ = [
    "Buf",
    "CodecError",
    "DECODERS",
    "DECODE_ERRORS",
    "DigestTable",
    "ENCODERS",
    "compile_layout",
]


class CodecError(ValueError):
    """A message or frame cannot be encoded/decoded faithfully."""


#: everything a decoder can raise on truncated or corrupt bytes: short
#: ``unpack_from`` (struct.error), a flag byte past the end
#: (IndexError), invalid utf-8 (UnicodeDecodeError), and the codec's
#: own checks.  Framings catch exactly these and re-raise their own
#: error type.
DECODE_ERRORS = (CodecError, struct.error, IndexError, UnicodeDecodeError)

Buf = Union[bytes, bytearray, memoryview]

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")


class DigestTable:
    """One direction of one link: ``sender sid -> last snapshot carried``.

    The writing end and the reading end of a connection each own one.
    ``counts`` tallies the digests *written* through the table as
    ``[full, elided]``; a wire hands one list to the tables of all its
    links, so its tally outlives any single connection.
    """

    __slots__ = ("snaps", "counts")

    def __init__(self, counts: Optional[List[int]] = None) -> None:
        self.snaps: Dict[int, Snapshot] = {}
        self.counts = counts if counts is not None else [0, 0]

    @property
    def n_full(self) -> int:
        """Digests written with their words."""
        return self.counts[0]

    @property
    def n_elided(self) -> int:
        """Digests written as a version the link already carried."""
        return self.counts[1]

    def __repr__(self) -> str:
        return (
            f"DigestTable(senders={sorted(self.snaps)}, "
            f"full={self.n_full}, elided={self.n_elided})"
        )


# ----------------------------------------------------------------------
# helper fields: length-prefixed bytes, the digest, the two leaves
# ----------------------------------------------------------------------

def _w_bytes(out: bytearray, b: Union[bytes, bytearray]) -> None:
    out += _U32.pack(len(b))
    out += b


def _r_bytes(buf: Buf, off: int) -> Tuple[bytes, int]:
    """A u32-length-prefixed byte string: a ``bytes`` or a str's utf-8."""
    (n,) = _U32.unpack_from(buf, off)
    off += 4
    b = bytes(buf[off:off + n])
    if len(b) != n:  # a slice would silently come back short
        raise CodecError("truncated string or bytes field")
    return b, off + n


# digest field forms (first byte)
_DIGEST_NONE, _DIGEST_FULL, _DIGEST_VERSION = range(3)
_DIGEST_HEAD = struct.Struct("<qI")  # version, n_words


def _w_digest(
    out: bytearray, digest: Optional[Snapshot], sid: int,
    sent: Optional[DigestTable],
) -> None:
    """``sid``'s digest snapshot: ``None`` or ``(version, vector)``.

    With a link table, a snapshot whose version the link already
    carried for ``sid`` shrinks to its version.
    """
    if digest is None:
        out.append(_DIGEST_NONE)
        return
    version, vector = digest
    n, rest = divmod(len(vector), 8)
    if rest:
        raise CodecError(
            f"digest vector of {len(vector)} bytes is not whole u64 words"
        )
    if sent is not None:
        prev = sent.snaps.get(sid)
        if prev is not None and prev[0] == version:
            sent.counts[1] += 1
            out.append(_DIGEST_VERSION)
            out += _I64.pack(version)
            return
    out.append(_DIGEST_FULL)
    out += _DIGEST_HEAD.pack(version, n)  # an overflow leaves the table be
    out += vector
    if sent is not None:
        sent.snaps[sid] = digest
        sent.counts[0] += 1


def _r_digest(
    buf: Buf, off: int, sid: int, seen: Optional[DigestTable]
) -> Tuple[Optional[Snapshot], int]:
    form = buf[off]
    off += 1
    if form == _DIGEST_NONE:
        return None, off
    if form == _DIGEST_FULL:
        version, n = _DIGEST_HEAD.unpack_from(buf, off)
        off += 12
        end = off + 8 * n
        if end > len(buf):  # a slice would silently come back short
            raise CodecError("truncated digest vector")
        snap = (version, bytes(buf[off:end]))
        if seen is not None:
            seen.snaps[sid] = snap
        return snap, end
    if form == _DIGEST_VERSION:
        (version,) = _I64.unpack_from(buf, off)
        if seen is None:
            raise CodecError("version-only digest on a wire with no link table")
        held = seen.snaps.get(sid)
        if held is None or held[0] != version:
            raise CodecError(
                f"version-only digest {version} for sender {sid}, but this "
                f"link holds "
                f"{'nothing' if held is None else f'version {held[0]}'}"
            )
        return held, off + 8
    raise CodecError(f"unknown digest form {form}")


def _w_meta(out: bytearray, meta: Any) -> None:
    """A :class:`NodeMeta` snapshot or ``None``.

    Attributes travel in ``items()`` order (dict insertion order is the
    value's identity -- replicas compare versions, not orders, but the
    round-trip stays exact); keywords travel sorted and are rebuilt
    into a set.
    """
    if meta is None:
        out.append(0)
        return
    if not isinstance(meta, NodeMeta):
        raise CodecError(
            f"cannot encode meta payload of type {type(meta).__name__}; "
            "the wire ships NodeMeta snapshots only"
        )
    out.append(1)
    out += _I64.pack(meta.version)
    out += _U32.pack(len(meta.attributes))
    for k, v in meta.attributes.items():
        _w_bytes(out, k.encode())
        _w_bytes(out, v.encode())
    keywords = sorted(meta.keywords)
    out += _U32.pack(len(keywords))
    for w in keywords:
        _w_bytes(out, w.encode())


def _r_meta(buf: Buf, off: int) -> Tuple[Optional[NodeMeta], int]:
    flag = buf[off]
    off += 1
    if not flag:
        return None, off
    meta = NodeMeta()
    (meta.version,) = _I64.unpack_from(buf, off)
    off += 8
    (n_attrs,) = _U32.unpack_from(buf, off)
    off += 4
    for _ in range(n_attrs):
        k, off = _r_bytes(buf, off)
        v, off = _r_bytes(buf, off)
        meta.attributes[k.decode()] = v.decode()
    (n_kw,) = _U32.unpack_from(buf, off)
    off += 4
    for _ in range(n_kw):
        w, off = _r_bytes(buf, off)
        meta.keywords.add(w.decode())
    return meta, off


# application data payloads (DataReply.data): opaque to the protocol,
# but the wire is typed -- only scalar payloads cross it
_DATA_NONE, _DATA_STR, _DATA_BYTES, _DATA_BOOL, _DATA_INT, _DATA_FLOAT = range(6)


def _w_data(out: bytearray, data: Any) -> None:
    if data is None:
        out.append(_DATA_NONE)
    elif isinstance(data, str):
        out.append(_DATA_STR)
        _w_bytes(out, data.encode())
    elif isinstance(data, (bytes, bytearray)):
        out.append(_DATA_BYTES)
        _w_bytes(out, data)
    elif isinstance(data, bool):
        out.append(_DATA_BOOL)
        out.append(1 if data else 0)
    elif isinstance(data, int):
        out.append(_DATA_INT)
        out += _I64.pack(data)
    elif isinstance(data, float):
        out.append(_DATA_FLOAT)
        out += _F64.pack(data)
    else:
        raise CodecError(
            f"cannot encode data payload of type {type(data).__name__}; "
            "store str/bytes/int/float node data to put it on a wire"
        )


def _r_data(buf: Buf, off: int) -> Tuple[Any, int]:
    kind = buf[off]
    off += 1
    if kind == _DATA_NONE:
        return None, off
    if kind == _DATA_STR:
        b, off = _r_bytes(buf, off)
        return b.decode(), off
    if kind == _DATA_BYTES:
        return _r_bytes(buf, off)
    if kind == _DATA_BOOL:
        return bool(buf[off]), off + 1
    if kind == _DATA_INT:
        (v,) = _I64.unpack_from(buf, off)
        return v, off + 8
    if kind == _DATA_FLOAT:
        (f,) = _F64.unpack_from(buf, off)
        return f, off + 8
    raise CodecError(f"unknown data payload kind {kind}")


# ----------------------------------------------------------------------
# the layout compiler
# ----------------------------------------------------------------------
#
# Every encoder is ``(out, msg, sent)`` and every decoder
# ``(buf, off, seen) -> (msg, end)``; the table argument is the link's
# DigestTable or None, and only a digest field reads it.

Encoder = Callable[[bytearray, Any, Optional[DigestTable]], None]
Decoder = Callable[[Buf, int, Optional[DigestTable]], Tuple[Any, int]]

_SCALARS = {"i32": "i", "i64": "q", "f64": "d", "bool": "?"}
_NOT_A_PAIR: Tuple[Any, Any] = (None, None)

#: (label for errors, name, expression, kind).  The expression --
#: ``m.qid``, ``o3.node``, a tuple element's local ``t7`` -- is the
#: encoder's source and the decoder's target alike.
_Field = Tuple[str, str, str, Any]


def _declaration(cls: type) -> Tuple[Tuple[str, Any], ...]:
    """``cls``'s ``(field, kind)`` pairs, checked against its slots."""
    kinds = vars(cls).get("__slots__")
    for klass in cls.__mro__:
        slots = vars(klass).get("__slots__", ())
        for name in (slots,) if isinstance(slots, str) else slots:
            if klass is not cls or not isinstance(kinds, dict):
                raise TypeError(
                    f"{cls.__name__}.{name}: slot has no declared wire kind"
                )
    if not isinstance(kinds, dict):
        raise TypeError(f"{cls.__name__} has no __slots__ wire declaration")
    for name in kinds:
        if type(vars(cls).get(name)) is not MemberDescriptorType:
            raise TypeError(
                f"{cls.__name__}.{name}: declared wire kind has no slot"
            )
    return tuple(kinds.items())


class _Layout:
    """The generated encoder and decoder lines of ``cls``'s ``fields``."""

    def __init__(self, cls: type, fields: Tuple[Tuple[str, Any], ...]) -> None:
        self.cls = cls
        self.enc: List[str] = []
        self.dec: List[str] = []
        self.env: Dict[str, Any] = {
            "U32": _U32, "pack": struct.pack, "unpack_from": struct.unpack_from,
            "new": object.__new__, "struct_error": struct.error,
            "w_digest": _w_digest, "r_digest": _r_digest,
            "w_meta": _w_meta, "r_meta": _r_meta,
            "w_data": _w_data, "r_data": _r_data, "misfit": _misfit,
        }
        self.n = 0
        _emit(self, [(f"{cls.__name__}.{name}", name, f"m.{name}", kind)
                     for name, kind in fields], 0)

    def fresh(self, stem: str, value: Any = None) -> str:
        """A new identifier, bound to ``value`` when one is given."""
        self.n += 1
        name = f"{stem}{self.n}"
        if value is not None:
            self.env[name] = value
        return name

    def w(self, depth: int, line: str) -> None:
        self.enc.append("    " * depth + line)

    def r(self, depth: int, line: str) -> None:
        self.dec.append("    " * depth + line)

    def define(self, head: str, body: List[str]) -> Any:
        """The function ``head`` with ``body``, run in the layout's names."""
        source = "\n".join([head] + ["    " + line for line in body])
        ns: Dict[str, Any] = {}
        exec(compile(source, f"<wire layout of {self.cls.__name__}>", "exec"),
             self.env, ns)
        return ns.popitem()[1]


def _emit(lay: _Layout, fields: List[_Field], d: int) -> None:
    """The encoder's and the decoder's lines for ``fields``, at depth ``d``."""
    run: List[Tuple[str, str]] = []  # consecutive scalars: one struct
    earlier: Dict[str, str] = {}
    for label, name, x, kind in fields + [("", "", "", None)]:
        if isinstance(kind, str) and kind in _SCALARS:
            run.append((x, _SCALARS[kind]))
            earlier[name] = x  # what a later digest may be keyed by
            continue
        if run:
            layout = struct.Struct("<" + "".join(c for _, c in run))
            s, xs = lay.fresh("S", layout), ", ".join(e for e, _ in run)
            lay.w(d, f"out += {s}.pack({xs})")
            lay.r(d, f"({xs},) = {s}.unpack_from(buf, off)")
            lay.r(d, f"off += {layout.size}")
            run = []
        if kind is None:
            return
        head, arg = kind if isinstance(kind, tuple) and len(kind) == 2 \
            else _NOT_A_PAIR
        if kind == "list[int]":
            v, n = lay.fresh("v"), lay.fresh("n")
            lay.w(d, f"{v} = {x}")
            lay.w(d, f"out += U32.pack(len({v}))")
            lay.w(d, f'out += pack("<%di" % len({v}), *{v})')
            lay.r(d, f"({n},) = U32.unpack_from(buf, off)")
            lay.r(d, f'{x} = list(unpack_from("<%di" % {n}, buf, off + 4))')
            lay.r(d, f"off += 4 + 4 * {n}")
        elif kind in ("meta", "data"):
            lay.w(d, f"w_{kind}(out, {x})")
            lay.r(d, f"{x}, off = r_{kind}(buf, off)")
        elif head == "digest" and isinstance(arg, str):
            if arg not in earlier:
                raise TypeError(f"{label}: digest keyed by {arg!r}, which is "
                                "not a scalar field declared before it")
            lay.w(d, f"w_digest(out, {x}, {earlier[arg]}, sent)")
            lay.r(d, f"{x}, off = r_digest(buf, off, {earlier[arg]}, seen)")
        elif (head is list and isinstance(arg, (type, tuple))
              or head is dict and isinstance(arg, tuple) and len(arg) == 2):
            v, n = lay.fresh("v"), lay.fresh("n")
            if isinstance(arg, tuple):  # a tuple: one local per element
                temps = [lay.fresh("t") for _ in arg]
                item = f"({', '.join(temps)},)"
                sub = [(label, t, t, k) for t, k in zip(temps, arg)]
            else:  # a declared class: one local, its fields attributes
                item = lay.fresh("o")
                sub = [(f"{arg.__name__}.{f}", f, f"{item}.{f}", k)
                       for f, k in _declaration(arg)]
            lay.w(d, f"{v} = {x}")
            lay.w(d, f"out += U32.pack(len({v}))")
            lay.w(d, f"for {item} in {v}{'.items()' if head is dict else ''}:")
            lay.r(d, f"({n},) = U32.unpack_from(buf, off)")
            lay.r(d, "off += 4")
            lay.r(d, f"{v} = []")
            lay.r(d, f"for _ in range({n}):")
            if not isinstance(arg, tuple):
                lay.r(d + 1, f"{item} = new({lay.fresh('K', arg)})")
            _emit(lay, sub, d + 1)
            lay.r(d + 1, f"{v}.append({item})")
            lay.r(d, f"{x} = {f'dict({v})' if head is dict else v}")
        else:
            raise TypeError(f"{label}: unknown wire kind {kind!r}")


def _misfit(cls: type, msg: Any, exc: struct.error) -> CodecError:
    """The :class:`CodecError` for an encode ``struct`` refused.

    Re-encodes ever longer prefixes of the declaration until one fails,
    so the error names the first field whose value its kind cannot hold.
    """
    fields = _declaration(cls)
    for i in range(1, len(fields) + 1):
        lay = _Layout(cls, fields[:i])
        try:
            lay.define("def encode(out, m, sent):", lay.enc)(bytearray(), msg, None)
        except struct.error as field_exc:
            return CodecError(f"{cls.__name__}.{fields[i - 1][0]} overflows "
                              f"its wire kind: {field_exc}")
    return CodecError(f"{cls.__name__}: {exc}")


def compile_layout(cls: type) -> Tuple[Encoder, Decoder]:
    """``cls``'s body encoder and decoder, generated from its declaration.

    Raises :class:`TypeError` naming class and field when the
    declaration is malformed (see the module docstring).
    """
    lay = _Layout(cls, _declaration(cls))
    k = lay.fresh("K", cls)
    encode: Encoder = lay.define(
        f"def encode_{cls.__name__}(out, m, sent):", [
            "try:", *["    " + line for line in lay.enc or ["pass"]],
            "except struct_error as exc:",  # zero-cost until it fires
            f"    raise misfit({k}, m, exc) from None",
        ],
    )
    decode: Decoder = lay.define(
        f"def decode_{cls.__name__}(buf, off, seen):",
        [f"m = new({k})", *lay.dec, "return m, off"],
    )
    return encode, decode


#: class -> (type id, encoder): what a framing looks a message up in
ENCODERS: Dict[type, Tuple[int, Encoder]] = {}
#: type id -> decoder
DECODERS: Dict[int, Decoder] = {}
for _tid, _cls in WIRE_TYPES.items():
    _enc, DECODERS[_tid] = compile_layout(_cls)
    ENCODERS[_cls] = (_tid, _enc)
