"""Framed wire serialization for live-mode transport.

The simulator passes message objects by reference; live mode
(:mod:`repro.runtime.async_wire`) moves the *same* message classes
across TCP/UDS sockets.  This module is the framing both ends share;
the bytes inside a frame are :mod:`repro.net.codec`'s packed bodies,
the same per-class functions the sharded data plane batches.

Frame grammar (one message per frame)::

    frame   := u32be length | payload          length = len(payload)
    payload := u8 type_id | body               body per repro.net.codec

* **Framing** -- a stream is any concatenation of frames;
  :class:`FrameReader` reassembles payloads from arbitrarily fragmented
  reads (sockets deliver whatever they feel like), slicing whole frames
  straight out of the received chunk and buffering only a partial tail.
* **Payload** -- the codec's closed type-id table is the allowlist:
  :func:`encode_message` refuses a class without an entry, and
  :func:`decode_message` can only ever build the message structs listed
  there, field by field from fixed ``struct`` layouts.  Every malformed
  payload -- unknown id, truncation, a body shorter or longer than the
  frame announced, a digest marker the link cannot expand -- is a
  :class:`FrameError`, never another exception type.
* **Link state** -- ``encode_frame(msg, sent)`` / ``decode_message(
  payload, seen)`` take the connection's
  :class:`~repro.net.codec.DigestTable`, which lets an unchanged digest
  snapshot travel as its version (see the codec's docstring).  With no
  table both are stateless and digests always travel in full.

Both directions are pure functions of their input bytes/objects and
tables; no clocks, RNG, or I/O live here (the module stays
protocol-classified under the determinism lint).
"""

from __future__ import annotations

import struct
from typing import Any, List, Optional

from repro.net.codec import (
    DECODE_ERRORS,
    DECODERS,
    ENCODERS,
    Buf,
    CodecError,
    DigestTable,
)

__all__ = [
    "FrameError",
    "FrameReader",
    "HEADER_SIZE",
    "MAX_FRAME",
    "decode_message",
    "encode_frame",
    "encode_message",
]

#: frame header: payload length, 4 bytes big-endian
_HEADER = struct.Struct(">I")
HEADER_SIZE = _HEADER.size

#: hard per-frame payload cap (16 MiB); a header exceeding it means a
#: corrupt or hostile stream, not a large message
MAX_FRAME = 1 << 24


class FrameError(CodecError):
    """Malformed frame, oversized frame, or unregistered payload type."""


def encode_message(msg: Any, sent: Optional[DigestTable] = None) -> bytes:
    """Serialize one wire message to payload bytes."""
    try:
        tid, enc = ENCODERS[msg.__class__]
    except KeyError:
        raise FrameError(
            f"{type(msg).__name__} is not a registered wire type"
        ) from None
    out = bytearray((tid,))
    enc(out, msg, sent)
    return bytes(out)


def decode_message(payload: bytes, seen: Optional[DigestTable] = None) -> Any:
    """Deserialize payload bytes produced by :func:`encode_message`."""
    if not payload:
        raise FrameError("empty frame payload")
    dec = DECODERS.get(payload[0])
    if dec is None:
        raise FrameError(f"unknown wire type id {payload[0]}")
    try:
        msg, end = dec(payload, 1, seen)
    except DECODE_ERRORS as exc:
        raise FrameError(f"undecodable frame payload: {exc}") from exc
    if end != len(payload):
        raise FrameError(
            f"frame announces a {len(payload) - 1}-byte body, "
            f"decoder read {end - 1}"
        )
    return msg


def encode_frame(msg: Any, sent: Optional[DigestTable] = None) -> bytes:
    """One complete frame (header + payload) for ``msg``."""
    payload = encode_message(msg, sent)
    if len(payload) > MAX_FRAME:
        raise FrameError(
            f"frame payload {len(payload)} bytes exceeds MAX_FRAME "
            f"({MAX_FRAME})"
        )
    return _HEADER.pack(len(payload)) + payload


class FrameReader:
    """Incremental frame reassembly over a fragmented byte stream.

    Feed it whatever the socket produced -- half a header, three and a
    half frames, one byte -- and it returns each *payload* exactly once,
    in stream order, as soon as it completes.
    """

    __slots__ = ("_buf", "max_frame", "n_frames")

    def __init__(self, max_frame: int = MAX_FRAME) -> None:
        self._buf = bytearray()  # the partial frame ending the last feed
        self.max_frame = max_frame
        self.n_frames = 0

    def feed(self, data: bytes) -> List[bytes]:
        """Absorb ``data``; return every payload completed by it."""
        buf = self._buf
        src: Buf = data
        if buf:
            buf += data
            src = buf
        size = len(src)
        out: List[bytes] = []
        offset = 0
        while size - offset >= HEADER_SIZE:
            (length,) = _HEADER.unpack_from(src, offset)
            if length > self.max_frame:
                raise FrameError(
                    f"frame header announces {length} bytes "
                    f"(max {self.max_frame}); stream is corrupt"
                )
            end = offset + HEADER_SIZE + length
            if end > size:
                break
            # a slice of a bytes chunk already is the payload object
            out.append(bytes(src[offset + HEADER_SIZE:end]))
            offset = end
        self.n_frames += len(out)
        if src is buf:
            del buf[:offset]
        elif offset < size:
            buf += data[offset:]
        return out

    def pending(self) -> int:
        """Bytes buffered awaiting frame completion."""
        return len(self._buf)

    def __repr__(self) -> str:
        return f"FrameReader(pending={len(self._buf)}, frames={self.n_frames})"
