"""The live wire's framing (repro.net.frame) over the shared body codec.

One codec, one property suite: every wire class round-trips through
``encode_frame`` -> arbitrarily fragmented ``FrameReader.feed`` ->
``decode_message`` field for field; a peer class's frame body is the
same bytes as its body inside a shard batch; and no mutation of a valid
frame makes the decoder do anything but decode or raise ``FrameError``.
The strategies are shared with ``tests/test_shardcodec.py``.
"""

import inspect
import re
import struct
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.namespace.meta import NodeMeta
from repro.net import codec
from repro.net.codec import (
    CodecError,
    DigestTable,
    compile_layout,
)
from repro.net.frame import (
    HEADER_SIZE,
    MAX_FRAME,
    FrameError,
    FrameReader,
    decode_message,
    encode_frame,
    encode_message,
)
from repro.net.message import (
    WIRE_TYPES,
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
from repro.sim.shardcodec import decode_batch, encode_batch
from tests.wire_strategies import (
    messages,
    peer_messages,
    state,
    wire_messages,
    words,
)


def make_query():
    q = QueryMessage(7, 42, 1, 0.125)
    q.hops = 3
    q.sender = 5
    q.sender_load = 0.75
    q.sender_digest = (4, words(1 << 63, 0, 0xDEADBEEF))
    q.dest_map = [1, 2, 3]
    q.path = [(3, 1), (5, 2)]
    q.adverts = [Advertisement(9, 4)]
    q.stale_hops = 1
    q.via = 9
    return q


def make_meta():
    meta = NodeMeta()
    meta.add_keywords(["alpha", "beta"])
    meta.set_attribute("k", "v")
    return meta


# ----------------------------------------------------------------------
# codec fidelity
# ----------------------------------------------------------------------

def test_query_roundtrip_preserves_structure():
    q2 = decode_message(encode_message(make_query()))
    assert (q2.qid, q2.dest, q2.origin, q2.created_at) == (7, 42, 1, 0.125)
    assert q2.hops == 3 and q2.stale_hops == 1 and q2.via == 9
    assert q2.dest_map == [1, 2, 3]
    # tuples must stay tuples: routing code unpacks path pairs and
    # compares digest snapshots structurally
    assert q2.path == [(3, 1), (5, 2)]
    assert all(isinstance(p, tuple) for p in q2.path)
    assert q2.sender_digest == (4, words(1 << 63, 0, 0xDEADBEEF))
    assert isinstance(q2.sender_digest, tuple)
    assert type(q2.sender_digest[1]) is bytes  # immutable: it is shared
    assert q2.adverts[0].node == 9 and q2.adverts[0].server == 4


def test_response_and_payload_roundtrip():
    resp = ResponseMessage(make_query(), resolver=2, dest_map=[2, 0],
                           meta_version=5)
    r2 = decode_message(encode_message(resp))
    assert r2.resolver == 2 and r2.dest_map == [2, 0]
    assert r2.meta_version == 5 and r2.qid == 7

    payload = ReplicaPayload(9, 2, [1, 2], {8: [1], 10: [2]})
    t = TransferMessage(1, 0, [payload], load_delta=0.5)
    t2 = decode_message(encode_message(t))
    assert t2.load_delta == 0.5
    assert t2.payloads[0].node == 9
    assert t2.payloads[0].context == {8: [1], 10: [2]}


def test_node_meta_roundtrip():
    meta = make_meta()
    reply = DataReply(1, 42, 3)
    reply.meta = meta
    m2 = decode_message(encode_message(reply)).meta
    assert m2.keywords == {"alpha", "beta"}
    assert m2.attributes == {"k": "v"}
    assert m2.version == meta.version


def test_client_plane_roundtrip():
    cl = decode_message(encode_message(ClientLookup(11, 42)))
    assert (cl.cqid, cl.node) == (11, 42)
    rep = ClientLookupReply(11, 42, True, servers=[3, 1], meta_version=2,
                            hops=4, latency=0.25)
    r2 = decode_message(encode_message(rep))
    assert r2.ok and r2.servers == [3, 1] and r2.hops == 4
    assert r2.latency == 0.25


def fragments(stream, cuts):
    """``stream`` split at the (sorted, deduplicated) offsets ``cuts``."""
    bounds = sorted({c for c in cuts if 0 < c < len(stream)})
    return [
        stream[a:b] for a, b in zip([0] + bounds, bounds + [len(stream)])
    ]


@given(
    msgs=st.lists(wire_messages, min_size=1, max_size=4),
    cuts=st.lists(st.integers(0, 4096), max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_every_wire_class_round_trips_through_fragmented_frames(msgs, cuts):
    stream = b"".join(encode_frame(m) for m in msgs)
    reader = FrameReader()
    payloads = []
    for chunk in fragments(stream, [c % (len(stream) + 1) for c in cuts]):
        payloads.extend(reader.feed(chunk))
    assert reader.pending() == 0 and reader.n_frames == len(msgs)
    got = [decode_message(p) for p in payloads]
    assert [state(m) for m in got] == [state(m) for m in msgs]


def test_the_strategies_cover_every_wire_class():
    # eleven classes on the wire, and the property above draws them all
    assert len(codec.ENCODERS) == 11
    seen = set()

    @given(wire_messages)
    @settings(max_examples=300, database=None, deadline=None)
    def collect(m):
        seen.add(type(m))

    collect()
    assert seen == set(codec.ENCODERS)


@given(peer_messages)
@settings(max_examples=100, deadline=None)
def test_frame_body_is_the_batch_body(msg):
    """One codec, not two that agree: the bytes after a frame's type id
    are the bytes after a batch record's header."""
    payload = encode_message(msg)
    batch = encode_batch([(0.0, 0, 0, 0, msg)])
    record = batch[8:]  # past magic + count
    tid, body_len = struct.unpack_from("<BI", record, 22)
    assert tid == payload[0]
    assert record[27:] == payload[1:] and body_len == len(payload) - 1


# ----------------------------------------------------------------------
# digest interning (per-link tables)
# ----------------------------------------------------------------------

def test_digest_travels_once_per_version_with_tables():
    sent, seen = DigestTable(), DigestTable()
    q = make_query()
    first = encode_message(q, sent)
    second = encode_message(q, sent)
    assert first == encode_message(q)  # new to the link: the full form
    assert len(second) == len(first) - 4 - 8 * 3  # words and their count
    a, b = decode_message(first, seen), decode_message(second, seen)
    assert a.sender_digest == b.sender_digest == q.sender_digest
    assert b.sender_digest is a.sender_digest  # expanded from the table
    q.sender_digest = (5, words(1, 2, 3))  # a mutation bumps the version
    assert encode_message(q, sent) == encode_message(q)
    assert (sent.n_full, sent.n_elided) == (2, 1)


def test_version_only_digest_needs_the_matching_table_entry():
    sent = DigestTable()
    q = make_query()
    encode_message(q, sent)
    marker = encode_message(q, sent)
    with pytest.raises(FrameError, match="no link table"):
        decode_message(marker)
    with pytest.raises(FrameError, match="holds nothing"):
        decode_message(marker, DigestTable())
    stale = DigestTable()
    stale.snaps[q.sender] = (3, words(0, 0, 0))
    with pytest.raises(FrameError, match="holds version 3"):
        decode_message(marker, stale)


@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3),
                          st.booleans()), max_size=30))
@settings(max_examples=100, deadline=None)
def test_tables_in_step_decode_what_a_stateless_link_would(script):
    """Any interleaving of senders, versions and message kinds: the
    table-carrying link decodes exactly what full frames decode."""
    sent, seen = DigestTable(), DigestTable()
    for sid, version, as_response in script:
        q = make_query()
        q.sender = sid
        snap = (version, words(sid, version, 7))
        if as_response:
            msg = ResponseMessage(q, resolver=sid, dest_map=[sid])
            msg.sender_digest = snap
        else:
            msg = q
            msg.sender_digest = snap
        got = decode_message(encode_message(msg, sent), seen)
        assert state(got) == state(decode_message(encode_message(msg)))
    assert sent.snaps == seen.snaps


# ----------------------------------------------------------------------
# the snapshot's bytes are the digest field's body
# ----------------------------------------------------------------------

#: ``encode_message(make_query())`` as the parent of issue 19 wrote it,
#: one ``struct.pack`` per u64 word of a word-tuple snapshot
GOLDEN_QUERY = bytes.fromhex(
    "0107000000000000002a00000001000000000000000000c03f03000000050000"
    "00000000000000e83f0100000009000000"
    "01" "0400000000000000" "03000000"  # full form, version 4, 3 words
    "0000000000000080" "0000000000000000" "efbeadde00000000"
    "0300000001000000020000000300000002000000030000000100000005000000"
    "02000000010000000900000004000000"
)


def test_golden_query_frame_is_byte_identical():
    assert encode_message(make_query()) == GOLDEN_QUERY
    assert state(decode_message(GOLDEN_QUERY)) == state(make_query())


def test_a_vector_is_appended_not_packed_word_by_word():
    """Pins the cost: the encoder adds ``len(vector)`` bytes for a
    vector it was handed and keeps that very object in the link table;
    no per-word ``struct`` format is left to build one from."""
    vector = words(1 << 63, 0, 0xDEADBEEF)
    snap = (4, vector)
    sent, out = DigestTable(), bytearray()
    codec._w_digest(out, snap, 5, sent)
    assert len(out) == 1 + 12 + len(vector) and out[13:] == vector
    assert sent.snaps[5] is snap
    again = bytearray()
    codec._w_digest(again, snap, 5, sent)  # forwarded twice: its version
    assert len(again) == 1 + 8
    got, end = codec._r_digest(bytes(out), 0, 5, None)
    assert got == snap and end == len(out) and type(got[1]) is bytes
    assert not re.search(r"\}Q\"", inspect.getsource(codec))


def test_a_vector_that_is_not_whole_words_is_refused():
    q = make_query()
    for n in (1, 7, 9, 23):
        q.sender_digest = (4, bytes(n))
        sent = DigestTable()
        with pytest.raises(CodecError, match="whole u64 words"):
            encode_message(q, sent)
        assert sent.snaps == {} and sent.n_full == 0  # table untouched


def test_n_words_field_mutations_never_yield_a_short_vector():
    """``bytes(buf[off:end])`` cannot raise on a short buffer the way
    ``unpack_from`` did: the bound is checked, and a frame whose word
    count lies is a ``FrameError``, never a vector of another length."""
    payload = encode_message(make_query())
    at = GOLDEN_QUERY.index(bytes.fromhex("03000000000000000000008000"))
    assert payload[at:at + 4] == (3).to_bytes(4, "little")
    for n in (0, 1, 2, 4, 5, 255, 2 ** 16, 2 ** 31, 2 ** 32 - 1):
        mutant = payload[:at] + n.to_bytes(4, "little") + payload[at + 4:]
        with pytest.raises(FrameError):
            decode_message(mutant)
        with pytest.raises(FrameError):
            decode_message(mutant, DigestTable())
        # the claimed words cut off at every point inside the vector
        for cut in range(at + 4, len(mutant)):
            with pytest.raises(FrameError):
                decode_message(mutant[:cut])
    with pytest.raises(CodecError, match="truncated digest vector"):
        codec._r_digest(payload[:at + 4 + 23], at - 9, 5, None)


# ----------------------------------------------------------------------
# the closed type table is the allowlist
# ----------------------------------------------------------------------

class NotAWireType:
    pass


def test_encode_rejects_unregistered_types():
    with pytest.raises(FrameError):
        encode_message(NotAWireType())
    with pytest.raises(FrameError):
        encode_message({"just": "a dict"})
    with pytest.raises(FrameError):
        encode_frame(NotAWireType())


def test_decode_refuses_garbage():
    with pytest.raises(FrameError):
        decode_message(b"\x00\x01not a body")
    with pytest.raises(FrameError, match="unknown wire type id"):
        decode_message(b"\xee" + b"\x00" * 16)
    with pytest.raises(FrameError, match="empty"):
        decode_message(b"")


def test_decode_refuses_trailing_and_missing_bytes():
    payload = encode_message(ProbeMessage(1, 2, 0.5))
    with pytest.raises(FrameError, match="decoder read"):
        decode_message(payload + b"\x00")
    with pytest.raises(FrameError):
        decode_message(payload[:-1])


def test_frame_over_max_frame_is_refused():
    reply = DataReply(1, 2, 3)
    reply.data = b"\x00" * (MAX_FRAME + 1)
    with pytest.raises(FrameError, match="MAX_FRAME"):
        encode_frame(reply)


def overflowing_query():
    q = make_query()
    q.sender_digest = (2 ** 63, words(1))
    return q


def overflowing_transfer():
    payload = ReplicaPayload(9, 2, [1, 2], {8: [2 ** 31]})
    return TransferMessage(1, 0, [payload])


@pytest.mark.parametrize("make, field", [
    (lambda: ProbeMessage(1, 2 ** 31, 0.5), "ProbeMessage.src"),
    (lambda: ClientLookupReply(2 ** 63, 1, True), "ClientLookupReply.cqid"),
    (lambda: AdvertMessage(3, [1, -2 ** 31 - 1]), "AdvertMessage.servers"),
    (overflowing_query, "QueryMessage.sender_digest"),
    (overflowing_transfer, "TransferMessage.payloads"),
])
def test_an_overflow_is_a_codec_error_naming_class_and_field(make, field):
    """Both framings: a value its kind cannot hold is never a bare
    ``struct.error``."""
    with pytest.raises(CodecError, match=re.escape(field)):
        encode_message(make())
    with pytest.raises(CodecError, match=re.escape(field)):
        encode_batch([(0.0, 0, 0, 0, make())])


def test_an_overflowing_digest_leaves_the_link_table_untouched():
    sent = DigestTable()
    with pytest.raises(CodecError, match="sender_digest"):
        encode_message(overflowing_query(), sent)
    assert sent.snaps == {} and sent.n_full == 0


@pytest.mark.parametrize("data, head", [
    (b"\x00\xff", b"\x02\x02\x00\x00\x00"),  # bytes tag, 2 bytes
    ("héllo", b"\x01\x06\x00\x00\x00"),  # str tag, 6 utf-8 bytes
])
def test_a_length_running_past_the_end_is_a_truncated_field(data, head):
    """``str`` and ``bytes`` share one bounds-checked reader, in both
    framings."""
    reply = DataReply(2, 43, 4)
    reply.data = data
    payload = encode_message(reply)
    batch = encode_batch([(0.0, 0, 0, 0, reply)])
    for wire, decode, error in ((payload, decode_message, FrameError),
                                (batch, decode_batch, CodecError)):
        at = wire.index(head) + 1
        # one byte more than the wire holds after the length, and on
        for n in (len(wire) - at - 3, 100, 2 ** 32 - 1):
            mutant = wire[:at] + n.to_bytes(4, "little") + wire[at + 4:]
            with pytest.raises(error, match="truncated string or bytes"):
                decode(mutant)


# ----------------------------------------------------------------------
# declarations: one per class, compiled at import
# ----------------------------------------------------------------------

def test_the_type_table_is_derived_from_the_declarations():
    assert sorted(codec.DECODERS) == sorted(WIRE_TYPES) == list(range(1, 12))
    assert {cls: tid for cls, (tid, _) in codec.ENCODERS.items()} == \
        {cls: tid for tid, cls in WIRE_TYPES.items()}
    for cls in WIRE_TYPES.values():
        assert isinstance(cls.__slots__, dict)


class Deny:
    """A message declared here and entered in no type-id table."""

    __slots__ = {
        "sender": "i32", "via": "i32", "version": "i64", "hit": "bool",
        "sender_digest": ("digest", "sender"),
        "hints": (list, ("i32", "f64")),
        "seen": (dict, ("i32", "list[int]")),
        "adverts": (list, Advertisement),
        "meta": "meta",
    }


@given(messages(Deny))
@settings(max_examples=100, deadline=None)
def test_an_unregistered_declaration_compiles_and_round_trips(msg):
    """A new message needs its declaration and nothing in the codec."""
    assert Deny not in codec.ENCODERS
    encode, decode = compile_layout(Deny)
    out = bytearray()
    encode(out, msg, None)
    got, end = decode(bytes(out), 0, None)
    assert end == len(out) and state(got) == state(msg)
    assert isinstance(got.seen, dict)
    assert all(type(h) is tuple for h in got.hints)


def declared(**slots):
    return type("Bad", (), {"__slots__": slots})


class TestDeclarationErrors:
    """A malformed declaration raises ``TypeError`` naming class and
    field -- at import, for the classes of ``WIRE_TYPES``."""

    def test_unknown_kind(self):
        for kind in ("u16", "list[str]", ("digest",), (list, "i32"),
                     (dict, ("i32",)), (set, ("i32",))):
            with pytest.raises(TypeError, match=r"Bad\.odd: unknown wire kind"):
                compile_layout(declared(ok="i32", odd=kind))

    def test_unknown_kind_inside_a_record(self):
        with pytest.raises(TypeError, match=r"Bad\.rows: unknown wire kind"):
            compile_layout(declared(rows=(list, ("i32", "f32"))))

    def test_slot_without_a_kind(self):
        class Bad:
            __slots__ = ("a", "b")

        with pytest.raises(TypeError, match=r"Bad\.a: slot has no declared"):
            compile_layout(Bad)

        class Base:
            __slots__ = ("extra",)

        class Derived(Base):
            __slots__ = {"x": "i32"}

        with pytest.raises(TypeError, match=r"Derived\.extra: slot has no"):
            compile_layout(Derived)

    def test_kind_without_a_slot(self):
        with pytest.raises(TypeError,
                           match=r"Bad\.__weakref__: declared wire kind has no slot"):
            compile_layout(declared(x="i32", __weakref__="i32"))

    def test_no_declaration(self):
        with pytest.raises(TypeError, match="NotAWireType has no __slots__"):
            compile_layout(NotAWireType)

    def test_digest_keyed_by_an_undeclared_field(self):
        with pytest.raises(TypeError, match=r"Bad\.d: digest keyed by 'sender'"):
            compile_layout(declared(d=("digest", "sender")))
        # declared, but after the digest: the decoder could not key it
        with pytest.raises(TypeError, match=r"Bad\.d: digest keyed by 'sender'"):
            compile_layout(declared(d=("digest", "sender"), sender="i32"))


# ----------------------------------------------------------------------
# mutation fuzz: decode or FrameError, nothing else
# ----------------------------------------------------------------------

def corpus():
    """One valid payload per wire class, nested fields populated."""
    return [encode_message(m) for m in corpus_messages()]


def corpus_messages():
    q = make_query()
    resp = ResponseMessage(make_query(), resolver=2, dest_map=[2, 0],
                           meta_version=5)
    resp.sender_digest = (9, words(1, 2))
    payload = ReplicaPayload(9, 2, [1, 2], {8: [1], 10: [2]}, make_meta())
    reply = DataReply(1, 42, 3)
    reply.data, reply.meta, reply.redirect_map = "héllo", make_meta(), [4]
    raw = DataReply(2, 43, 4)
    raw.data = b"\x00\xff"
    msgs = [
        q, resp, AdvertMessage(3, [1, 2]), ProbeMessage(1, 2, 0.5),
        ProbeReplyMessage(1, 2, 0.25, True),
        TransferMessage(1, 0, [payload], load_delta=0.5),
        TransferAckMessage(1, 2, [9]), DataRequest(5, 6, 7, True),
        reply, raw, ClientLookup(11, 42),
        ClientLookupReply(11, 42, True, servers=[3, 1], hops=4),
    ]
    assert {type(m) for m in msgs} == set(codec.ENCODERS)
    return msgs


def decodes_or_frame_error(payload, seen=None):
    try:
        decode_message(payload, seen)
    except FrameError:
        pass  # any other exception type propagates and fails the test


#: ``corpus()``'s twelve payloads (all eleven classes, both data-reply
#: forms), then ``make_query()``'s interned form, as the hand-written
#: per-class encoders wrote them
GOLDEN_CORPUS = tuple(bytes.fromhex(h) for h in (
    (
        "0107000000000000002a00000001000000000000000000c03f03000000050000"
        "00000000000000e83f0100000009000000010400000000000000030000000000"
        "0000000000800000000000000000efbeadde0000000003000000010000000200"
        "0000030000000200000003000000010000000500000002000000010000000900"
        "000004000000"
    ),
    (
        "0207000000000000002a00000001000000000000000000c03f03000000020000"
        "0001000000050000000000000000000000000000000109000000000000000200"
        "0000010000000000000002000000000000000200000002000000000000000200"
        "000003000000010000000500000002000000"
    ),
    "0303000000020000000100000002000000",
    "04010000000000000002000000000000000000e03f",
    "05010000000000000002000000000000000000d03f01",
    (
        "06010000000000000000000000000000000000e03f0100000009000000020000"
        "0000000000020000000100000002000000020000000800000001000000010000"
        "000a000000010000000200000001020000000000000001000000010000006b01"
        "000000760200000005000000616c7068610400000062657461"
    ),
    "070100000000000000020000000100000009000000",
    "080500000000000000060000000700000001",
    (
        "0901000000000000002a00000003000000010600000068c3a96c6c6f01020000"
        "000000000001000000010000006b01000000760200000005000000616c706861"
        "04000000626574610100000004000000"
    ),
    "0902000000000000002b00000004000000020200000000ff0000000000",
    "0a0b000000000000002a000000",
    (
        "0b0b000000000000002a00000001000000000000000004000000000000000000"
        "0000020000000300000001000000"
    ),
    (
        "0107000000000000002a00000001000000000000000000c03f03000000050000"
        "00000000000000e83f0100000009000000020400000000000000030000000100"
        "0000020000000300000002000000030000000100000005000000020000000100"
        "00000900000004000000"
    ),
))


def test_every_wire_class_payload_is_byte_identical():
    sent, seen = DigestTable(), DigestTable()
    encode_message(make_query(), sent)
    payloads = corpus() + [encode_message(make_query(), sent)]
    assert payloads == list(GOLDEN_CORPUS)
    # and each golden payload decodes to what re-encodes to it
    for golden in GOLDEN_CORPUS[:-1]:
        assert encode_message(decode_message(golden)) == golden
    decode_message(GOLDEN_CORPUS[0], seen)
    interned = decode_message(GOLDEN_CORPUS[-1], seen)
    assert state(interned) == state(make_query())


def test_truncation_at_every_offset():
    for payload in corpus():
        for cut in range(len(payload)):
            with pytest.raises(FrameError):
                decode_message(payload[:cut])


def test_every_byte_flipped():
    for payload in corpus():
        for i in range(len(payload)):
            for mask in (0x01, 0x80, 0xFF):
                mutant = bytearray(payload)
                mutant[i] ^= mask
                decodes_or_frame_error(bytes(mutant))
                decodes_or_frame_error(bytes(mutant), DigestTable())


def test_two_frames_spliced():
    payloads = corpus()
    for a in payloads:
        for b in payloads:
            for cut in (1, len(a) // 2, len(a) - 1):
                decodes_or_frame_error(a[:cut] + b)
                decodes_or_frame_error(a[:cut] + b[len(b) // 2:])


# ----------------------------------------------------------------------
# cost: no Python call per field
# ----------------------------------------------------------------------

def python_calls(fn, *args):
    """Python-level ``call`` events of one ``fn(*args)``, itself included."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


class TestCodecCost:
    """A compiled layout costs no Python call per field.

    Python-level ``call`` events (``sys.setprofile``) of one
    ``encode_message`` / ``decode_message`` per ``corpus()`` payload,
    bounded at what the hand-written per-class encoders and decoders
    cost (one function per class plus one per list, string, digest and
    meta field).  The count is deterministic, so the bound holds on any
    host; a generated body that calls a helper per field fails it.
    """

    #: ``corpus_messages()`` order: query, response, advert, probe,
    #: probe reply, transfer, ack, data request, data reply (meta),
    #: data reply (bytes), client lookup, client reply
    MAX_ENCODE_CALLS = (5, 5, 3, 2, 2, 10, 3, 2, 10, 5, 2, 3)
    MAX_DECODE_CALLS = (7, 6, 3, 2, 2, 11, 3, 2, 11, 5, 2, 3)

    def test_encode_calls_per_payload(self):
        got = tuple(python_calls(encode_message, m) for m in corpus_messages())
        assert all(n <= bound for n, bound in
                   zip(got, self.MAX_ENCODE_CALLS)), got

    def test_decode_calls_per_payload(self):
        got = tuple(python_calls(decode_message, p) for p in corpus())
        assert all(n <= bound for n, bound in
                   zip(got, self.MAX_DECODE_CALLS)), got


# ----------------------------------------------------------------------
# framing and reassembly
# ----------------------------------------------------------------------

def test_frame_layout():
    frame = encode_frame(ProbeMessage(1, 2, 0.5))
    length = int.from_bytes(frame[:HEADER_SIZE], "big")
    assert length == len(frame) - HEADER_SIZE
    # u8 type id, then the body's fixed struct: nothing else
    assert length == 1 + struct.calcsize("<qid")
    msg = decode_message(frame[HEADER_SIZE:])
    assert (msg.session, msg.src, msg.src_load) == (1, 2, 0.5)


def test_reader_single_feed_multiple_frames():
    msgs = [ProbeMessage(i, i + 1, 0.1 * i) for i in range(5)]
    stream = b"".join(encode_frame(m) for m in msgs)
    reader = FrameReader()
    payloads = reader.feed(stream)
    assert len(payloads) == 5
    assert [decode_message(p).session for p in payloads] == [0, 1, 2, 3, 4]
    assert reader.pending() == 0


def test_reader_byte_by_byte_reassembly():
    frames = b"".join(
        encode_frame(ClientLookup(i, 100 + i)) for i in range(3)
    )
    reader = FrameReader()
    out = []
    for i in range(len(frames)):
        out.extend(reader.feed(frames[i:i + 1]))
    assert [decode_message(p).cqid for p in out] == [0, 1, 2]
    assert reader.pending() == 0
    assert reader.n_frames == 3


def test_reader_split_inside_header_and_payload():
    frame = encode_frame(make_query())
    reader = FrameReader()
    # half a header first: nothing completes, bytes are buffered
    assert reader.feed(frame[:2]) == []
    assert reader.pending() == 2
    # up to mid-payload: still nothing
    mid = HEADER_SIZE + (len(frame) - HEADER_SIZE) // 2
    assert reader.feed(frame[2:mid]) == []
    # the rest completes exactly one frame
    payloads = reader.feed(frame[mid:])
    assert len(payloads) == 1
    assert decode_message(payloads[0]).qid == 7


def test_reader_frame_boundary_straddles_feeds():
    a = encode_frame(ProbeMessage(1, 0, 0.0))
    b = encode_frame(ProbeMessage(2, 0, 0.0))
    reader = FrameReader()
    # feed a + first 3 bytes of b
    first = reader.feed(a + b[:3])
    assert len(first) == 1 and decode_message(first[0]).session == 1
    assert reader.pending() == 3  # only the partial tail is buffered
    second = reader.feed(b[3:])
    assert len(second) == 1 and decode_message(second[0]).session == 2


def test_reader_whole_frames_buffer_nothing():
    reader = FrameReader()
    chunk = encode_frame(ProbeMessage(1, 0, 0.0)) * 3
    payloads = reader.feed(chunk)
    assert len(payloads) == 3 and reader.pending() == 0
    assert all(type(p) is bytes for p in payloads)


def test_reader_keeps_nothing_of_a_reused_receive_buffer():
    """The live protocols feed a view of one receive buffer, which the
    next read overwrites: what ``feed`` returns and what it buffers
    must be copies."""
    frames = [encode_frame(m) for m in corpus_messages()]
    stream = b"".join(frames)
    cut = len(stream) - len(frames[-1]) // 2  # the last frame half in
    recv = bytearray(len(stream))
    recv[:cut] = stream[:cut]
    reader = FrameReader()
    payloads = reader.feed(memoryview(recv)[:cut])
    assert reader.pending() == cut - (len(stream) - len(frames[-1]))
    recv[:] = b"\xff" * len(recv)  # the next read lands
    assert payloads == [bytes(f[HEADER_SIZE:]) for f in frames[:-1]]
    assert all(type(p) is bytes for p in payloads)
    rest = bytearray(stream[cut:])
    last = reader.feed(memoryview(rest))
    rest[:] = b"\x00" * len(rest)
    assert last == [bytes(frames[-1][HEADER_SIZE:])]
    assert payloads == [bytes(f[HEADER_SIZE:]) for f in frames[:-1]]


def test_frame_is_header_then_message_for_every_golden_class():
    for m in corpus_messages():
        p = encode_message(m)
        assert encode_frame(m) == struct.pack(">I", len(p)) + p
    # and the interned form, each through its own link table
    sent, mirror = DigestTable(), DigestTable()
    encode_frame(make_query(), sent)
    encode_message(make_query(), mirror)
    p = encode_message(make_query(), mirror)
    assert p == GOLDEN_CORPUS[-1]
    assert encode_frame(make_query(), sent) == struct.pack(">I", len(p)) + p


def test_reader_rejects_oversized_header():
    bogus = (MAX_FRAME + 1).to_bytes(4, "big") + b"x"
    with pytest.raises(FrameError):
        FrameReader().feed(bogus)


def test_reader_custom_limit():
    reader = FrameReader(max_frame=8)
    small = encode_frame(ProbeMessage(1, 2, 0.5))
    with pytest.raises(FrameError):
        reader.feed(small)  # a 21-byte probe payload is over the limit
