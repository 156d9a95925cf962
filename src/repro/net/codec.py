"""Packed message bodies: the one codec every wire in the tree shares.

A *body* is the struct-packed field layout of one message class from
:mod:`repro.net.message`, written by its ``_enc_*`` function and read
back by the matching ``_dec_*``.  Two framings carry bodies and neither
owns a second copy of them:

* :mod:`repro.net.frame` -- the live wire: ``u8 type_id | body`` behind
  a 4-byte length header, one frame per message on a UDS/TCP stream;
* :mod:`repro.sim.shardcodec` -- the sharded data plane: a 27-byte
  merge-key header, ``type_id``, body length and body per record of a
  cross-shard batch.

The closed ``type id -> (class, encoder, decoder)`` table
(:data:`_CODECS`) is the allowlist: a class without an entry cannot be
encoded, an id without an entry cannot be decoded, and decoding can
only ever build the message structs listed there.

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
no clocks, RNG or I/O.  A value a format cannot hold raises
:class:`CodecError` on encode; what a decoder may raise on malformed
input is listed at :data:`DECODE_ERRORS`.
"""

from __future__ import annotations

import struct
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.filters.bloom import Snapshot
from repro.namespace.meta import NodeMeta
from repro.net.message import (
    Advertisement,
    AdvertMessage,
    ClientLookup,
    ClientLookupReply,
    DataReply,
    DataRequest,
    ProbeMessage,
    ProbeReplyMessage,
    QueryMessage,
    ReplicaPayload,
    ResponseMessage,
    TransferAckMessage,
    TransferMessage,
)

__all__ = [
    "Buf",
    "CodecError",
    "DECODERS",
    "DECODE_ERRORS",
    "DigestTable",
    "ENCODERS",
    "require_encodable",
    "supported_types",
]


class CodecError(ValueError):
    """A message or frame cannot be encoded/decoded faithfully."""


#: everything a ``_dec_*`` function can raise on truncated or corrupt
#: bytes: short ``unpack_from`` (struct.error), a flag byte past the
#: end (IndexError), invalid utf-8 (UnicodeDecodeError), and the
#: codec's own checks.  Framings catch exactly these and re-raise their
#: own error type.
DECODE_ERRORS = (CodecError, struct.error, IndexError, UnicodeDecodeError)

Buf = Union[bytes, bytearray, memoryview]

_U32 = struct.Struct("<I")
_I32 = struct.Struct("<i")
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
# primitive writers / readers
# ----------------------------------------------------------------------

def _w_ints(out: bytearray, xs: Sequence[int]) -> None:
    n = len(xs)
    out += _U32.pack(n)
    if n:
        try:
            out += struct.pack(f"<{n}i", *xs)
        except struct.error as exc:
            raise CodecError(f"int32 overflow in {xs!r}") from exc


def _r_ints(buf: Buf, off: int) -> Tuple[List[int], int]:
    (n,) = _U32.unpack_from(buf, off)
    off += 4
    if not n:
        return [], off
    vals = struct.unpack_from(f"<{n}i", buf, off)
    return list(vals), off + 4 * n


def _w_pairs(out: bytearray, pairs: Sequence[Tuple[int, int]]) -> None:
    n = len(pairs)
    out += _U32.pack(n)
    if n:
        flat: List[int] = []
        for a, b in pairs:
            flat.append(a)
            flat.append(b)
        try:
            out += struct.pack(f"<{2 * n}i", *flat)
        except struct.error as exc:
            raise CodecError(f"int32 overflow in {pairs!r}") from exc


def _r_pairs(buf: Buf, off: int) -> Tuple[List[Tuple[int, int]], int]:
    (n,) = _U32.unpack_from(buf, off)
    off += 4
    if not n:
        return [], off
    flat = struct.unpack_from(f"<{2 * n}i", buf, off)
    return (
        [(flat[2 * i], flat[2 * i + 1]) for i in range(n)],
        off + 8 * n,
    )


def _w_str(out: bytearray, s: str) -> None:
    b = s.encode("utf-8")
    out += _U32.pack(len(b))
    out += b


def _r_str(buf: Buf, off: int) -> Tuple[str, int]:
    (n,) = _U32.unpack_from(buf, off)
    off += 4
    b = bytes(buf[off:off + n])
    if len(b) != n:
        raise CodecError("truncated string field")
    return b.decode("utf-8"), off + n


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
        sent.snaps[sid] = digest
        sent.counts[0] += 1
    out.append(_DIGEST_FULL)
    out += _DIGEST_HEAD.pack(version, n)
    out += vector


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
        out += b"\x00"
        return
    if not isinstance(meta, NodeMeta):
        raise CodecError(
            f"cannot encode meta payload of type {type(meta).__name__}; "
            "the wire ships NodeMeta snapshots only"
        )
    out += b"\x01"
    out += _I64.pack(meta.version)
    out += _U32.pack(len(meta.attributes))
    for k, v in meta.attributes.items():
        _w_str(out, k)
        _w_str(out, v)
    keywords = sorted(meta.keywords)
    out += _U32.pack(len(keywords))
    for w in keywords:
        _w_str(out, w)


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
        k, off = _r_str(buf, off)
        v, off = _r_str(buf, off)
        meta.attributes[k] = v
    (n_kw,) = _U32.unpack_from(buf, off)
    off += 4
    for _ in range(n_kw):
        w, off = _r_str(buf, off)
        meta.keywords.add(w)
    return meta, off


# application data payloads (DataReply.data): opaque to the protocol,
# but the wire is typed -- only scalar payloads cross it
_DATA_NONE, _DATA_STR, _DATA_BYTES, _DATA_BOOL, _DATA_INT, _DATA_FLOAT = range(6)


def _w_data(out: bytearray, data: Any) -> None:
    if data is None:
        out.append(_DATA_NONE)
    elif isinstance(data, str):
        out.append(_DATA_STR)
        _w_str(out, data)
    elif isinstance(data, (bytes, bytearray)):
        out.append(_DATA_BYTES)
        out += _U32.pack(len(data))
        out += data
    elif isinstance(data, bool):
        out.append(_DATA_BOOL)
        out.append(1 if data else 0)
    elif isinstance(data, int):
        out.append(_DATA_INT)
        try:
            out += _I64.pack(data)
        except struct.error as exc:
            raise CodecError("int data payload out of i64 range") from exc
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
        return _r_str(buf, off)
    if kind == _DATA_BYTES:
        (n,) = _U32.unpack_from(buf, off)
        off += 4
        return bytes(buf[off:off + n]), off + n
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
# per-class bodies
# ----------------------------------------------------------------------
#
# Every encoder is ``(out, msg, sent)`` and every decoder
# ``(buf, off, seen) -> (msg, end)``; the table argument is the link's
# DigestTable or None, and only the two digest-bearing classes read it.

_QUERY_FIXED = struct.Struct("<qiidiidii")  # qid dest origin created hops sender load stale via
_ADVERT_PAIR = struct.Struct("<ii")


def _enc_query(
    out: bytearray, m: QueryMessage, sent: Optional[DigestTable]
) -> None:
    out += _QUERY_FIXED.pack(
        m.qid, m.dest, m.origin, m.created_at, m.hops, m.sender,
        m.sender_load, m.stale_hops, m.via,
    )
    _w_digest(out, m.sender_digest, m.sender, sent)
    _w_ints(out, m.dest_map)
    _w_pairs(out, m.path)
    out += _U32.pack(len(m.adverts))
    for ad in m.adverts:
        out += _ADVERT_PAIR.pack(ad.node, ad.server)


def _dec_query(
    buf: Buf, off: int, seen: Optional[DigestTable]
) -> Tuple[QueryMessage, int]:
    m = QueryMessage.__new__(QueryMessage)
    (m.qid, m.dest, m.origin, m.created_at, m.hops, m.sender,
     m.sender_load, m.stale_hops, m.via) = _QUERY_FIXED.unpack_from(buf, off)
    off += _QUERY_FIXED.size
    m.sender_digest, off = _r_digest(buf, off, m.sender, seen)
    m.dest_map, off = _r_ints(buf, off)
    m.path, off = _r_pairs(buf, off)
    (n_ads,) = _U32.unpack_from(buf, off)
    off += 4
    adverts: List[Advertisement] = []
    for _ in range(n_ads):
        node, server = _ADVERT_PAIR.unpack_from(buf, off)
        off += 8
        adverts.append(Advertisement(node, server))
    m.adverts = adverts
    return m, off


_RESP_FIXED = struct.Struct("<qiidiiiqd")  # qid dest origin created hops resolver stale mver load


def _enc_response(
    out: bytearray, m: ResponseMessage, sent: Optional[DigestTable]
) -> None:
    out += _RESP_FIXED.pack(
        m.qid, m.dest, m.origin, m.created_at, m.hops, m.resolver,
        m.stale_hops, m.meta_version, m.sender_load,
    )
    _w_digest(out, m.sender_digest, m.resolver, sent)
    _w_ints(out, m.dest_map)
    _w_pairs(out, m.path)


def _dec_response(
    buf: Buf, off: int, seen: Optional[DigestTable]
) -> Tuple[ResponseMessage, int]:
    m = ResponseMessage.__new__(ResponseMessage)
    (m.qid, m.dest, m.origin, m.created_at, m.hops, m.resolver,
     m.stale_hops, m.meta_version, m.sender_load) = _RESP_FIXED.unpack_from(buf, off)
    off += _RESP_FIXED.size
    m.sender_digest, off = _r_digest(buf, off, m.resolver, seen)
    m.dest_map, off = _r_ints(buf, off)
    m.path, off = _r_pairs(buf, off)
    return m, off


def _enc_advert(
    out: bytearray, m: AdvertMessage, sent: Optional[DigestTable]
) -> None:
    out += _I32.pack(m.node)
    _w_ints(out, m.servers)


def _dec_advert(
    buf: Buf, off: int, seen: Optional[DigestTable]
) -> Tuple[AdvertMessage, int]:
    m = AdvertMessage.__new__(AdvertMessage)
    (m.node,) = _I32.unpack_from(buf, off)
    m.servers, off = _r_ints(buf, off + 4)
    return m, off


_PROBE = struct.Struct("<qid")


def _enc_probe(
    out: bytearray, m: ProbeMessage, sent: Optional[DigestTable]
) -> None:
    out += _PROBE.pack(m.session, m.src, m.src_load)


def _dec_probe(
    buf: Buf, off: int, seen: Optional[DigestTable]
) -> Tuple[ProbeMessage, int]:
    m = ProbeMessage.__new__(ProbeMessage)
    m.session, m.src, m.src_load = _PROBE.unpack_from(buf, off)
    return m, off + _PROBE.size


_PROBE_REPLY = struct.Struct("<qidB")


def _enc_probe_reply(
    out: bytearray, m: ProbeReplyMessage, sent: Optional[DigestTable]
) -> None:
    out += _PROBE_REPLY.pack(m.session, m.src, m.load, 1 if m.willing else 0)


def _dec_probe_reply(
    buf: Buf, off: int, seen: Optional[DigestTable]
) -> Tuple[ProbeReplyMessage, int]:
    m = ProbeReplyMessage.__new__(ProbeReplyMessage)
    m.session, m.src, m.load, willing = _PROBE_REPLY.unpack_from(buf, off)
    m.willing = bool(willing)
    return m, off + _PROBE_REPLY.size


_TRANSFER_FIXED = struct.Struct("<qid")
_PAYLOAD_FIXED = struct.Struct("<iq")


def _enc_transfer(
    out: bytearray, m: TransferMessage, sent: Optional[DigestTable]
) -> None:
    out += _TRANSFER_FIXED.pack(m.session, m.src, m.load_delta)
    out += _U32.pack(len(m.payloads))
    for p in m.payloads:
        out += _PAYLOAD_FIXED.pack(p.node, p.meta_version)
        _w_ints(out, p.node_map)
        out += _U32.pack(len(p.context))
        for node, nmap in p.context.items():
            out += _I32.pack(node)
            _w_ints(out, nmap)
        _w_meta(out, p.meta)


def _dec_transfer(
    buf: Buf, off: int, seen: Optional[DigestTable]
) -> Tuple[TransferMessage, int]:
    m = TransferMessage.__new__(TransferMessage)
    m.session, m.src, m.load_delta = _TRANSFER_FIXED.unpack_from(buf, off)
    off += _TRANSFER_FIXED.size
    (n_payloads,) = _U32.unpack_from(buf, off)
    off += 4
    payloads: List[ReplicaPayload] = []
    for _ in range(n_payloads):
        p = ReplicaPayload.__new__(ReplicaPayload)
        p.node, p.meta_version = _PAYLOAD_FIXED.unpack_from(buf, off)
        off += _PAYLOAD_FIXED.size
        p.node_map, off = _r_ints(buf, off)
        (n_ctx,) = _U32.unpack_from(buf, off)
        off += 4
        context: Dict[int, List[int]] = {}
        for _ in range(n_ctx):
            (node,) = _I32.unpack_from(buf, off)
            context[node], off = _r_ints(buf, off + 4)
        p.context = context
        p.meta, off = _r_meta(buf, off)
        payloads.append(p)
    m.payloads = payloads
    return m, off


_ACK_FIXED = struct.Struct("<qi")


def _enc_transfer_ack(
    out: bytearray, m: TransferAckMessage, sent: Optional[DigestTable]
) -> None:
    out += _ACK_FIXED.pack(m.session, m.src)
    _w_ints(out, m.installed)


def _dec_transfer_ack(
    buf: Buf, off: int, seen: Optional[DigestTable]
) -> Tuple[TransferAckMessage, int]:
    m = TransferAckMessage.__new__(TransferAckMessage)
    m.session, m.src = _ACK_FIXED.unpack_from(buf, off)
    m.installed, off = _r_ints(buf, off + _ACK_FIXED.size)
    return m, off


_DATA_REQ = struct.Struct("<qiiB")


def _enc_data_request(
    out: bytearray, m: DataRequest, sent: Optional[DigestTable]
) -> None:
    out += _DATA_REQ.pack(m.rid, m.node, m.origin, 1 if m.want_meta else 0)


def _dec_data_request(
    buf: Buf, off: int, seen: Optional[DigestTable]
) -> Tuple[DataRequest, int]:
    m = DataRequest.__new__(DataRequest)
    m.rid, m.node, m.origin, want_meta = _DATA_REQ.unpack_from(buf, off)
    m.want_meta = bool(want_meta)
    return m, off + _DATA_REQ.size


_DATA_REPLY_FIXED = struct.Struct("<qii")


def _enc_data_reply(
    out: bytearray, m: DataReply, sent: Optional[DigestTable]
) -> None:
    out += _DATA_REPLY_FIXED.pack(m.rid, m.node, m.responder)
    _w_data(out, m.data)
    _w_meta(out, m.meta)
    _w_ints(out, m.redirect_map)


def _dec_data_reply(
    buf: Buf, off: int, seen: Optional[DigestTable]
) -> Tuple[DataReply, int]:
    m = DataReply.__new__(DataReply)
    m.rid, m.node, m.responder = _DATA_REPLY_FIXED.unpack_from(buf, off)
    off += _DATA_REPLY_FIXED.size
    m.data, off = _r_data(buf, off)
    m.meta, off = _r_meta(buf, off)
    m.redirect_map, off = _r_ints(buf, off)
    return m, off


_CLIENT_LOOKUP = struct.Struct("<qi")


def _enc_client_lookup(
    out: bytearray, m: ClientLookup, sent: Optional[DigestTable]
) -> None:
    out += _CLIENT_LOOKUP.pack(m.cqid, m.node)


def _dec_client_lookup(
    buf: Buf, off: int, seen: Optional[DigestTable]
) -> Tuple[ClientLookup, int]:
    m = ClientLookup.__new__(ClientLookup)
    m.cqid, m.node = _CLIENT_LOOKUP.unpack_from(buf, off)
    return m, off + _CLIENT_LOOKUP.size


_CLIENT_REPLY_FIXED = struct.Struct("<qiBqid")  # cqid node ok mver hops latency


def _enc_client_reply(
    out: bytearray, m: ClientLookupReply, sent: Optional[DigestTable]
) -> None:
    out += _CLIENT_REPLY_FIXED.pack(
        m.cqid, m.node, 1 if m.ok else 0, m.meta_version, m.hops, m.latency,
    )
    _w_ints(out, m.servers)


def _dec_client_reply(
    buf: Buf, off: int, seen: Optional[DigestTable]
) -> Tuple[ClientLookupReply, int]:
    m = ClientLookupReply.__new__(ClientLookupReply)
    (m.cqid, m.node, ok, m.meta_version, m.hops,
     m.latency) = _CLIENT_REPLY_FIXED.unpack_from(buf, off)
    m.ok = bool(ok)
    m.servers, off = _r_ints(buf, off + _CLIENT_REPLY_FIXED.size)
    return m, off


Encoder = Callable[[bytearray, Any, Optional[DigestTable]], None]
Decoder = Callable[[Buf, int, Optional[DigestTable]], Tuple[Any, int]]

#: type id -> (class, encoder, decoder); ids are wire format, never
#: reused.  1-9 are the peer plane (``PEER_DISPATCH``), 10-11 the live
#: client plane.
_CODECS: Dict[int, Tuple[type, Encoder, Decoder]] = {
    1: (QueryMessage, _enc_query, _dec_query),
    2: (ResponseMessage, _enc_response, _dec_response),
    3: (AdvertMessage, _enc_advert, _dec_advert),
    4: (ProbeMessage, _enc_probe, _dec_probe),
    5: (ProbeReplyMessage, _enc_probe_reply, _dec_probe_reply),
    6: (TransferMessage, _enc_transfer, _dec_transfer),
    7: (TransferAckMessage, _enc_transfer_ack, _dec_transfer_ack),
    8: (DataRequest, _enc_data_request, _dec_data_request),
    9: (DataReply, _enc_data_reply, _dec_data_reply),
    10: (ClientLookup, _enc_client_lookup, _dec_client_lookup),
    11: (ClientLookupReply, _enc_client_reply, _dec_client_reply),
}

#: class -> (type id, encoder): what a framing looks a message up in
ENCODERS: Dict[type, Tuple[int, Encoder]] = {
    cls: (tid, enc) for tid, (cls, enc, _) in _CODECS.items()
}
#: type id -> decoder
DECODERS: Dict[int, Decoder] = {
    tid: dec for tid, (_, _, dec) in _CODECS.items()
}


def supported_types() -> Tuple[type, ...]:
    """Every message class the packed codec can carry."""
    return tuple(ENCODERS)


def require_encodable(types: Iterable[type]) -> None:
    """Fail fast when a registered message class has no codec entry.

    Called at coordinator construction with the peer dispatch
    registry's types, so adding a new cross-shard message class without
    extending the codec breaks loudly before any window runs.
    """
    missing = [t.__name__ for t in types if t not in ENCODERS]
    if missing:
        raise CodecError(
            f"no packed codec for message type(s) "
            f"{', '.join(sorted(missing))}; extend repro.net.codec"
        )
