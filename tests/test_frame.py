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

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.namespace.meta import NodeMeta
from repro.net import codec
from repro.net.codec import CodecError, DigestTable, supported_types
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
from repro.sim.shardcodec import encode_batch
from tests.wire_strategies import peer_messages, state, wire_messages, words


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
@settings(max_examples=200)
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
    assert len(supported_types()) == 11
    seen = set()

    @given(wire_messages)
    @settings(max_examples=300, database=None)
    def collect(m):
        seen.add(type(m))

    collect()
    assert seen == set(supported_types())


@given(peer_messages)
@settings(max_examples=100)
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
@settings(max_examples=100)
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


# ----------------------------------------------------------------------
# mutation fuzz: decode or FrameError, nothing else
# ----------------------------------------------------------------------

def corpus():
    """One valid payload per wire class, nested fields populated."""
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
    assert {type(m) for m in msgs} == set(supported_types())
    return [encode_message(m) for m in msgs]


def decodes_or_frame_error(payload, seen=None):
    try:
        decode_message(payload, seen)
    except FrameError:
        pass  # any other exception type propagates and fails the test


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


def test_reader_rejects_oversized_header():
    bogus = (MAX_FRAME + 1).to_bytes(4, "big") + b"x"
    with pytest.raises(FrameError):
        FrameReader().feed(bogus)


def test_reader_custom_limit():
    reader = FrameReader(max_frame=8)
    small = encode_frame(ProbeMessage(1, 2, 0.5))
    with pytest.raises(FrameError):
        reader.feed(small)  # a 21-byte probe payload is over the limit
