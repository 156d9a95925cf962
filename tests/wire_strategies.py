"""Hypothesis strategies and structural equality for the wire classes.

Shared by ``tests/test_frame.py`` (the live framing) and
``tests/test_shardcodec.py`` (the shard batches): both carry
:mod:`repro.net.codec`'s bodies, so both draw their messages here.
"""

import struct

from hypothesis import strategies as st

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

# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

i32 = st.integers(-(2 ** 31), 2 ** 31 - 1)
u16 = st.integers(0, 2 ** 16 - 1)
u64 = st.integers(0, 2 ** 64 - 1)
i64 = st.integers(-(2 ** 63), 2 ** 63 - 1)
f64 = st.floats(allow_nan=False)
times = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)
ids = st.integers(0, 10_000)
int_lists = st.lists(i32, max_size=6)
pair_lists = st.lists(st.tuples(i32, i32), max_size=6)
short_text = st.text(max_size=12)



def words(*u64s):
    """A digest vector holding ``u64s``: their little-endian bytes."""
    return struct.pack(f"<{len(u64s)}Q", *u64s)


# a vector is whole u64 words on the wire (``_w_digest`` refuses less)
digests = st.none() | st.tuples(
    i64, st.lists(u64, max_size=6).map(lambda ws: words(*ws))
)


@st.composite
def metas(draw):
    m = NodeMeta()
    m.version = draw(i64)
    m.attributes = draw(
        st.dictionaries(short_text, short_text, max_size=4)
    )
    m.keywords = draw(st.sets(short_text, max_size=4))
    return m


@st.composite
def queries(draw):
    m = QueryMessage(
        qid=draw(i64), dest=draw(ids), origin=draw(ids),
        created_at=draw(times),
    )
    m.hops = draw(st.integers(0, 1000))
    m.sender = draw(ids)
    m.sender_load = draw(f64)
    m.sender_digest = draw(digests)
    m.dest_map = draw(int_lists)
    m.path = draw(pair_lists)
    m.adverts = [
        Advertisement(n, s)
        for n, s in draw(st.lists(st.tuples(ids, ids), max_size=4))
    ]
    m.stale_hops = draw(st.integers(0, 1000))
    m.via = draw(i32)
    return m


@st.composite
def responses(draw):
    m = ResponseMessage(draw(queries()), resolver=draw(ids),
                        dest_map=draw(int_lists),
                        meta_version=draw(i64))
    m.sender_load = draw(f64)
    m.sender_digest = draw(digests)
    return m


adverts = st.builds(AdvertMessage, node=ids, servers=int_lists)
probes = st.builds(ProbeMessage, session=i64, src=ids, src_load=f64)
probe_replies = st.builds(
    ProbeReplyMessage, session=i64, src=ids, load=f64, willing=st.booleans()
)


@st.composite
def payloads(draw):
    context = {
        k: draw(int_lists)
        for k in draw(st.lists(ids, max_size=3, unique=True))
    }
    return ReplicaPayload(
        node=draw(ids), meta_version=draw(i64),
        node_map=draw(int_lists), context=context,
        meta=draw(st.none() | metas()),
    )


transfers = st.builds(
    TransferMessage, session=i64, src=ids,
    payloads=st.lists(payloads(), max_size=3), load_delta=f64,
)
acks = st.builds(TransferAckMessage, session=i64, src=ids,
                 installed=int_lists)
data_requests = st.builds(DataRequest, rid=i64, node=ids, origin=ids,
                          want_meta=st.booleans())

data_payloads = (
    st.none() | short_text | st.binary(max_size=12) | st.booleans()
    | i64 | f64
)


@st.composite
def data_replies(draw):
    m = DataReply(rid=draw(i64), node=draw(ids), responder=draw(ids))
    m.data = draw(data_payloads)
    m.meta = draw(st.none() | metas())
    m.redirect_map = draw(int_lists)
    return m


#: the nine peer-plane classes (``PEER_DISPATCH``): what a shard batch
#: may carry
peer_messages = st.one_of(
    queries(), responses(), adverts, probes, probe_replies, transfers,
    acks, data_requests, data_replies(),
)

client_lookups = st.builds(ClientLookup, cqid=i64, node=ids)
client_replies = st.builds(
    ClientLookupReply, cqid=i64, node=ids, ok=st.booleans(),
    servers=int_lists, meta_version=i64, hops=st.integers(0, 1000),
    latency=f64,
)

#: all eleven wire classes: what a live frame may carry
wire_messages = st.one_of(peer_messages, client_lookups, client_replies)


# ---------------------------------------------------------------------------
# structural equality (slot-by-slot, expanding nested objects)
# ---------------------------------------------------------------------------

def state(obj):
    if isinstance(obj, Advertisement):
        return ("ad", obj.node, obj.server)
    if isinstance(obj, ReplicaPayload):
        return ("payload", obj.node, obj.meta_version, obj.node_map,
                obj.context, state(obj.meta))
    if isinstance(obj, NodeMeta):
        return ("meta", obj.version, obj.attributes, obj.keywords)
    if obj is None or isinstance(obj, (int, float, str, bytes, bool,
                                       tuple, list, dict)):
        return obj
    slots = []
    for klass in type(obj).__mro__:
        slots.extend(klass.__dict__.get("__slots__", ()))
    return (type(obj).__name__,) + tuple(
        (name, _nested(getattr(obj, name))) for name in slots
    )


def _nested(v):
    if isinstance(v, list):
        return [state(x) for x in v]
    return state(v)
