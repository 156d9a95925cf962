"""Packed wire codec for the sharded data plane.

The process-backed sharded run used to move three kinds of Python
object graphs over the worker pipes every window: pickled egress
batches (cross-shard messages), pickled ingest batches, and -- at
finish -- per-shard stats logs as lists of tuples.  At fig9 scale the
pickle time dwarfs the barrier itself.  This module replaces all of it
with flat ``struct``-packed frames:

* **Egress frames** (:func:`encode_batch` / :func:`decode_batch`): one
  frame per destination shard per window.  Every record carries the
  canonical merge key ``(deliver_at, src_shard, send_seq)`` in a fixed
  27-byte header followed by a type id and a varlen body, so a reader
  can order records -- and a relay can route whole frames -- without
  decoding bodies.  The bodies are :mod:`repro.net.codec`'s -- the same
  compiled layouts the live wire frames -- always with full digest
  snapshots (a batch has no link table).  Registering a new cross-shard
  message class in :data:`repro.server.peer.PEER_DISPATCH` without
  giving it a type id fails loudly at coordinator construction
  (:func:`repro.net.codec.require_encodable`).
* **Step frames** (:func:`encode_step_request` /
  :func:`encode_step_reply`): the per-window worker-pipe protocol --
  one ``send_bytes`` each way per barrier, pure bytes, no pickle.  The
  reply header carries the shard's next pending event time, which the
  coordinator uses for window coalescing (see
  :class:`repro.sim.shard.WindowedCoordinator`).
* **Packed stats logs** (:class:`PackedLog` /
  :func:`decode_stats_log`): the stats hook calls as one flat byte
  buffer plus an interned string table, decoded once at finish, in the
  layouts :data:`STATS_RECORDS` derives from the ``StatsSink`` hooks.
* **Packed arrivals** (:class:`ArrivalBatch`): the pre-generated
  ``(t, src, dest, qid)`` schedule as four flat columns; indexing
  yields the exact tuples :meth:`repro.cluster.system.ShardSystem.feed`
  expects.

Determinism contract: ``decode_batch(encode_batch(entries))`` yields
entries whose keys and message field values compare equal to the
originals, bit for bit (floats travel as IEEE-754 doubles, which is
what they are in memory).  The one representational change is that a
decoded :class:`~repro.net.message.ResponseMessage` no longer aliases
its query's ``path`` list -- pickling already broke that aliasing, and
nothing mutates the path after send.

Everything is little-endian with explicit ``struct`` formats; no
record is ever silently truncated -- malformed frames raise
:class:`ShardCodecError`.
"""

from __future__ import annotations

import inspect
import struct
from array import array
from typing import Any, Iterable, Iterator, List, Sequence, Tuple

from repro.net.codec import DECODE_ERRORS, DECODERS, ENCODERS, Buf, CodecError
from repro.sim.stats import StatsSink

__all__ = [
    "ArrivalBatch",
    "MAGIC",
    "PackedLog",
    "STATS_RECORDS",
    "ShardCodecError",
    "decode_batch",
    "decode_stats_log",
    "decode_step_reply",
    "decode_step_request",
    "encode_batch",
    "encode_step_reply",
    "encode_step_request",
    "stats_records",
]

#: what every function here raises on a frame it cannot write or read;
#: one class with the body codec, so a body's overflow or truncation
#: surfaces from ``encode_batch``/``decode_batch`` unwrapped
ShardCodecError = CodecError

#: frame magic: "Sharded Data Plane v1"
MAGIC = b"SDP1"

Entry = Tuple[float, int, int, int, Any]

# record header: deliver_at, src_shard, send_seq, dest, type_id, body_len
_HDR = struct.Struct("<dHQiBI")
_U32 = struct.Struct("<I")


# ----------------------------------------------------------------------
# egress frames
# ----------------------------------------------------------------------

def encode_batch(entries: Sequence[Entry]) -> bytes:
    """Pack one egress batch into a frame.

    Each entry is the transport's ``(deliver_at, src_shard, send_seq,
    dest, msg)`` tuple; entries are written in order, so a batch that
    was sorted by the canonical key stays sorted on the wire.
    """
    out = bytearray(MAGIC)
    out += _U32.pack(len(entries))
    for at, src_shard, send_seq, dest, msg in entries:
        try:
            tid, enc = ENCODERS[msg.__class__]
        except KeyError:
            raise ShardCodecError(
                f"no packed codec for message type {type(msg).__name__}"
            ) from None
        hdr_at = len(out)
        out += _HDR.pack(at, src_shard, send_seq, dest, tid, 0)
        body_at = len(out)
        enc(out, msg, None)
        # backpatch the body length now that it is known
        _U32.pack_into(out, hdr_at + _HDR.size - 4, len(out) - body_at)
    return bytes(out)


def decode_batch(frame: Buf) -> List[Entry]:
    """Unpack one egress frame back into entry tuples.

    Raises:
        ShardCodecError: bad magic, truncated records, unknown type
            ids, body-length mismatches, or trailing garbage.
    """
    view = memoryview(frame)
    if bytes(view[:4]) != MAGIC:
        raise ShardCodecError(
            f"bad frame magic {bytes(view[:4])!r} (expected {MAGIC!r})"
        )
    try:
        (count,) = _U32.unpack_from(view, 4)
        off = 8
        entries: List[Entry] = []
        for _ in range(count):
            at, src_shard, send_seq, dest, tid, body_len = _HDR.unpack_from(
                view, off
            )
            off += _HDR.size
            dec = DECODERS.get(tid)
            if dec is None:
                raise ShardCodecError(f"unknown message type id {tid}")
            if off + body_len > len(view):
                raise ShardCodecError("truncated record body")
            msg, end = dec(view, off, None)
            if end - off != body_len:
                raise ShardCodecError(
                    f"body length mismatch for type id {tid}: "
                    f"header says {body_len}, decoder read {end - off}"
                )
            off = end
            entries.append((at, src_shard, send_seq, dest, msg))
    except ShardCodecError:
        raise
    except DECODE_ERRORS as exc:
        raise ShardCodecError(f"truncated frame: {exc}") from None
    if off != len(view):
        raise ShardCodecError(
            f"trailing garbage: {len(view) - off} bytes after last record"
        )
    return entries


# ----------------------------------------------------------------------
# worker-pipe step frames (one send_bytes each way per barrier)
# ----------------------------------------------------------------------

#: request opcodes (first byte of every parent->worker frame)
OP_STEP = 0x02
OP_FINISH = 0x03
OP_EXIT = 0x04

#: reply status codes (first byte of every worker->parent frame)
ST_OK = 0x01        # bare acknowledgement
ST_STEP = 0x02      # step reply: next-event time + egress frames
ST_PAYLOAD = 0x03   # pickled payload follows (the finish result)
ST_ERROR = 0x7F     # utf-8 traceback follows

_STEP_REQ = struct.Struct("<dBI")    # end, inclusive, n_frames
_STEP_REPLY = struct.Struct("<dI")   # next_event_time, n_dests
_DEST_FRAME = struct.Struct("<iI")   # dest_shard, frame_len


def encode_step_request(
    end: float, inclusive: bool, frames: Sequence[Buf]
) -> bytes:
    out = bytearray((OP_STEP,))
    out += _STEP_REQ.pack(end, 1 if inclusive else 0, len(frames))
    for f in frames:
        out += _U32.pack(len(f))
        out += f
    return bytes(out)


def decode_step_request(payload: Buf) -> Tuple[float, bool, List[memoryview]]:
    """Parse a step request (minus its leading op byte)."""
    view = memoryview(payload)
    try:
        end, inclusive, n_frames = _STEP_REQ.unpack_from(view, 0)
        off = _STEP_REQ.size
        frames: List[memoryview] = []
        for _ in range(n_frames):
            (flen,) = _U32.unpack_from(view, off)
            off += 4
            if off + flen > len(view):
                raise ShardCodecError("truncated step-request frame")
            frames.append(view[off:off + flen])
            off += flen
    except struct.error as exc:
        raise ShardCodecError(f"truncated step request: {exc}") from None
    if off != len(view):
        raise ShardCodecError("trailing garbage in step request")
    return end, bool(inclusive), frames


def encode_step_reply(
    next_time: float, dest_frames: Sequence[Tuple[int, Buf]]
) -> bytes:
    out = bytearray((ST_STEP,))
    out += _STEP_REPLY.pack(next_time, len(dest_frames))
    for dest, frame in dest_frames:
        out += _DEST_FRAME.pack(dest, len(frame))
        out += frame
    return bytes(out)


def decode_step_reply(payload: Buf) -> Tuple[float, List[Tuple[int, memoryview]]]:
    """Parse a step reply (minus its leading status byte)."""
    view = memoryview(payload)
    try:
        next_time, n_dests = _STEP_REPLY.unpack_from(view, 0)
        off = _STEP_REPLY.size
        dest_frames: List[Tuple[int, memoryview]] = []
        for _ in range(n_dests):
            dest, flen = _DEST_FRAME.unpack_from(view, off)
            off += _DEST_FRAME.size
            if off + flen > len(view):
                raise ShardCodecError("truncated step-reply frame")
            dest_frames.append((dest, view[off:off + flen]))
            off += flen
    except struct.error as exc:
        raise ShardCodecError(f"truncated step reply: {exc}") from None
    if off != len(view):
        raise ShardCodecError("trailing garbage in step reply")
    return next_time, dest_frames


# ----------------------------------------------------------------------
# packed stats logs
# ----------------------------------------------------------------------

#: struct code per hook-argument annotation (a str: string-table index)
_ARG_CODES = {"float": "d", "int": "i", "str": "H"}

#: (hook name, record layout, positions of the str arguments)
StatsRecord = Tuple[str, struct.Struct, Tuple[int, ...]]


def stats_records(sink: type) -> Tuple[StatsRecord, ...]:
    """One record per public hook of ``sink``, in definition order.

    The opcode is the index in the result; the layout is ``<dB``
    (``now``, opcode) plus one struct code per further argument.
    Raises :class:`TypeError` naming the hook (and the parameter) when
    it does not take ``now`` first or annotates an argument otherwise.
    """
    records: List[StatsRecord] = []
    for name, fn in vars(sink).items():
        if name.startswith("_") or not inspect.isfunction(fn):
            continue
        params = list(inspect.signature(fn).parameters)[1:]
        if params[:1] != ["now"]:
            raise TypeError(f"stats hook {name} must take 'now' first")
        codes = ""
        for param in params[1:]:
            ann = fn.__annotations__.get(param)
            if ann not in _ARG_CODES:
                raise TypeError(f"stats hook {name}: parameter {param!r} "
                                f"is {ann!r}, not float, int or str")
            codes += _ARG_CODES[ann]
        str_at = tuple(i for i, c in enumerate(codes) if c == "H")
        records.append((name, struct.Struct("<dB" + codes), str_at))
    return tuple(records)


#: every stats record a shard logs, derived when this module is imported
STATS_RECORDS = stats_records(StatsSink)


class PackedLog:
    """One shard's stats event log as flat bytes + a string table."""

    __slots__ = ("data", "strings", "n")

    def __init__(self, data: bytes, strings: Tuple[str, ...], n: int) -> None:
        self.data = data
        self.strings = strings
        self.n = n

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"PackedLog(records={self.n}, bytes={len(self.data)})"


def decode_stats_log(log: PackedLog) -> List[Tuple[Any, ...]]:
    """Expand a packed log back into ``(t, opcode, *args)`` tuples.

    Done exactly once per shard at finish, for the canonical-order
    replay (:func:`repro.sim.shard.replay_stats`); the opcode indexes
    :data:`STATS_RECORDS`, and string arguments come back as strings.
    """
    data = log.data
    strings = log.strings
    records = STATS_RECORDS
    out: List[Tuple[Any, ...]] = []
    off = 0
    try:
        for _ in range(log.n):
            code = data[off + 8]  # the opcode byte after the timestamp
            if code >= len(records):
                raise ShardCodecError(f"unknown stats opcode {code}")
            _, layout, str_at = records[code]
            rec = layout.unpack_from(data, off)
            off += layout.size
            if str_at:
                vals = list(rec)
                for i in str_at:
                    vals[i + 2] = strings[vals[i + 2]]
                rec = tuple(vals)
            out.append(rec)
    except (struct.error, IndexError) as exc:
        raise ShardCodecError(f"corrupt packed stats log: {exc}") from None
    if off != len(data):
        raise ShardCodecError("trailing garbage in packed stats log")
    return out


# ----------------------------------------------------------------------
# packed arrivals
# ----------------------------------------------------------------------

class ArrivalBatch:
    """One shard's arrival schedule as four flat columns.

    Indexing yields the exact ``(t, src, dest, qid)`` tuples
    :meth:`repro.cluster.system.ShardSystem.feed` schedules from, so
    the feeder code path is unchanged -- only the storage shrinks from
    one tuple + four boxed values per arrival to 24 packed bytes.
    """

    __slots__ = ("t", "src", "dest", "qid")

    def __init__(
        self, arrivals: Iterable[Tuple[float, int, int, int]] = ()
    ) -> None:
        self.t = array("d")
        self.src = array("i")
        self.dest = array("i")
        self.qid = array("q")
        for t, src, dest, qid in arrivals:
            self.t.append(t)
            self.src.append(src)
            self.dest.append(dest)
            self.qid.append(qid)

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, i: int) -> Tuple[float, int, int, int]:
        return (self.t[i], self.src[i], self.dest[i], self.qid[i])

    def __iter__(self) -> Iterator[Tuple[float, int, int, int]]:
        for i in range(len(self.t)):
            yield (self.t[i], self.src[i], self.dest[i], self.qid[i])

    def __repr__(self) -> str:
        return f"ArrivalBatch(n={len(self.t)})"

