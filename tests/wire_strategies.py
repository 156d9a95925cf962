"""Hypothesis strategies and structural equality for the wire classes.

Shared by ``tests/test_frame.py`` (the live framing) and
``tests/test_shardcodec.py`` (the shard batches): both carry
:mod:`repro.net.codec`'s bodies, so both draw their messages here.
Each class's strategy is derived from its wire declaration (its
``__slots__`` dict of field kinds); only what a kind does not pin down
is written out: whole-word digest vectors, ``NodeMeta`` and the data
union.
"""

import struct

from hypothesis import strategies as st

from repro.namespace.meta import NodeMeta
from repro.net.message import WIRE_TYPES
from repro.server.peer import _HANDLER_NAMES, Peer

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
short_text = st.text(max_size=12)


def words(*u64s):
    """A digest vector holding ``u64s``: their little-endian bytes."""
    return struct.pack(f"<{len(u64s)}Q", *u64s)


# a vector is whole u64 words on the wire (the encoder refuses less)
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


data_payloads = (
    st.none() | short_text | st.binary(max_size=12) | st.booleans()
    | i64 | f64
)

#: the kinds whose values a strategy draws directly
_LEAF_KINDS = {
    "i32": i32, "i64": i64, "f64": f64, "bool": st.booleans(),
    "list[int]": st.lists(i32, max_size=6),
    "meta": st.none() | metas(), "data": data_payloads,
}


def values(kind):
    """The values a field of wire kind ``kind`` may hold."""
    if isinstance(kind, str):
        return _LEAF_KINDS[kind]
    head, arg = kind
    if head == "digest":
        return digests
    if head is dict:
        return st.dictionaries(values(arg[0]), values(arg[1]), max_size=3)
    rows = st.tuples(*map(values, arg)) if isinstance(arg, tuple) \
        else messages(arg)
    return st.lists(rows, max_size=4)


def _build(cls, fields):
    m = cls.__new__(cls)
    for name, value in fields.items():
        setattr(m, name, value)
    return m


def messages(cls):
    """Instances of the declared class ``cls``, every field drawn."""
    return st.fixed_dictionaries(
        {name: values(kind) for name, kind in cls.__slots__.items()}
    ).map(lambda fields: _build(cls, fields))


#: the nine peer-plane classes (the ones a ``Peer`` method handles):
#: what a shard batch may carry
peer_messages = st.one_of([
    messages(cls) for cls in WIRE_TYPES.values()
    if hasattr(Peer, _HANDLER_NAMES[cls])
])

#: all eleven wire classes: what a live frame may carry
wire_messages = st.one_of([messages(cls) for cls in WIRE_TYPES.values()])


# ---------------------------------------------------------------------------
# structural equality (declared fields, nested records expanded)
# ---------------------------------------------------------------------------

def state(obj):
    fields = getattr(type(obj), "__slots__", None)
    if isinstance(fields, dict):
        return (type(obj).__name__,) + tuple(
            (name, state(getattr(obj, name))) for name in fields
        )
    if isinstance(obj, NodeMeta):
        return ("meta", obj.version, obj.attributes, obj.keywords)
    if isinstance(obj, list):
        return [state(x) for x in obj]
    return obj
