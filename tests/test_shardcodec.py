"""The packed cross-shard codec (repro.sim.shardcodec).

Property-based round-trips over every message class registered in
``PEER_DISPATCH`` (the exact set the sharded data plane may ever put on
a worker pipe), strict rejection of malformed frames, and the
step-frame / packed-log / packed-arrival layers the process backend is
built on.
"""

import math
import pickle
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.codec import require_encodable, supported_types
from repro.net.message import (
    AdvertMessage,
    ProbeMessage,
    QueryMessage,
    ResponseMessage,
)
from repro.sim.shardcodec import (
    MAGIC,
    ArrivalBatch,
    PackedLog,
    ShardCodecError,
    decode_batch,
    decode_stats_log,
    decode_step_reply,
    decode_step_request,
    encode_batch,
    encode_step_reply,
    encode_step_request,
)
from tests.test_frame import GOLDEN_QUERY, make_query
from tests.wire_strategies import (
    i32,
    i64,
    ids,
    peer_messages,
    state,
    times,
    u16,
    u64,
    words,
)

entries = st.lists(
    st.tuples(times, u16, u64, i32, peer_messages), max_size=6
)


def _entry_state(e):
    at, src, seq, dest, msg = e
    return (at, src, seq, dest, state(msg))


# ---------------------------------------------------------------------------
# round-trips
# ---------------------------------------------------------------------------

class TestRoundTrip:
    @given(entries)
    @settings(max_examples=200)
    def test_batch_round_trip(self, es):
        frame = encode_batch(es)
        got = decode_batch(frame)
        assert [_entry_state(e) for e in got] == \
            [_entry_state(e) for e in es]

    @given(entries)
    @settings(max_examples=50)
    def test_decode_accepts_memoryview(self, es):
        frame = encode_batch(es)
        got = decode_batch(memoryview(frame))
        assert [_entry_state(e) for e in got] == \
            [_entry_state(e) for e in es]

    def test_every_registered_class_is_covered(self):
        from repro.server.peer import PEER_DISPATCH

        registered = set(PEER_DISPATCH.types())
        assert registered <= set(supported_types())
        require_encodable(PEER_DISPATCH.types())  # must not raise

    def test_require_encodable_rejects_unknown_class(self):
        class Rogue:
            pass

        with pytest.raises(ShardCodecError, match="Rogue"):
            require_encodable([QueryMessage, Rogue])

    def test_response_path_no_longer_aliases_query(self):
        q = QueryMessage(qid=1, dest=2, origin=3, created_at=0.5)
        q.path = [(2, 3)]
        r = ResponseMessage(q, resolver=4, dest_map=[4])
        assert r.path is q.path  # constructor aliases...
        (entry,) = decode_batch(encode_batch([(1.0, 0, 1, 0, r)]))
        decoded = entry[4]
        assert decoded.path == r.path  # ...the wire copies


class TestRejection:
    def _one_frame(self):
        m = ProbeMessage(session=7, src=1, src_load=0.25)
        return encode_batch([(1.5, 0, 3, 2, m)])

    def test_empty_batch_round_trips(self):
        assert decode_batch(encode_batch([])) == []

    def test_bad_magic(self):
        frame = bytearray(self._one_frame())
        frame[:4] = b"XXXX"
        with pytest.raises(ShardCodecError, match="magic"):
            decode_batch(bytes(frame))

    def test_truncated_header(self):
        with pytest.raises(ShardCodecError):
            decode_batch(MAGIC + b"\x01")

    def test_truncated_tail(self):
        frame = self._one_frame()
        with pytest.raises(ShardCodecError):
            decode_batch(frame[:-1])

    def test_trailing_garbage(self):
        with pytest.raises(ShardCodecError, match="trailing"):
            decode_batch(self._one_frame() + b"\x00")

    def test_unknown_type_id(self):
        frame = bytearray(self._one_frame())
        # type id lives after magic+count+deliver_at+src_shard+seq+dest
        tid_at = 4 + 4 + 8 + 2 + 8 + 4
        assert frame[tid_at] != 0xEE
        frame[tid_at] = 0xEE
        with pytest.raises(ShardCodecError, match="type id"):
            decode_batch(bytes(frame))

    def test_body_length_mismatch(self):
        frame = bytearray(self._one_frame())
        blen_at = 4 + 4 + 8 + 2 + 8 + 4 + 1  # body_len field
        (blen,) = struct.unpack_from("<I", frame, blen_at)
        struct.pack_into("<I", frame, blen_at, blen + 1)
        with pytest.raises(ShardCodecError):
            decode_batch(bytes(frame))

    def test_unencodable_message_class(self):
        with pytest.raises(ShardCodecError, match="object"):
            encode_batch([(0.0, 0, 0, 0, object())])

    def test_int32_overflow_fails_loudly(self):
        m = AdvertMessage(node=0, servers=[2 ** 40])
        with pytest.raises(ShardCodecError, match="overflow"):
            encode_batch([(0.0, 0, 0, 0, m)])

    def test_garbage_bytes(self):
        with pytest.raises(ShardCodecError):
            decode_batch(b"\xde\xad\xbe\xef" * 8)


class TestDigestBearingBatch:
    """A batch record whose body carries a digest vector: the bytes the
    parent of issue 19 wrote, and nothing but ``ShardCodecError`` out of
    any damaged copy."""

    #: ``encode_batch([(0.5, 1, 2, 3, make_query())])`` on that parent
    GOLDEN = bytes.fromhex(
        "53445031" "01000000" "000000000000e03f" "0100"
        "0200000000000000" "03000000" "01" "85000000"
    ) + GOLDEN_QUERY[1:]

    def _batch(self):
        probe = ProbeMessage(session=7, src=1, src_load=0.25)
        return encode_batch(
            [(0.5, 1, 2, 3, make_query()), (1.5, 0, 3, 2, probe)]
        )

    def test_golden_batch_is_byte_identical(self):
        assert encode_batch([(0.5, 1, 2, 3, make_query())]) == self.GOLDEN
        ((at, src, seq, dest, msg),) = decode_batch(self.GOLDEN)
        assert (at, src, seq, dest) == (0.5, 1, 2, 3)
        assert state(msg) == state(make_query())
        assert type(msg.sender_digest[1]) is bytes

    def test_truncation_at_every_offset(self):
        frame = self._batch()
        for cut in range(len(frame)):
            with pytest.raises(ShardCodecError):
                decode_batch(frame[:cut])
            with pytest.raises(ShardCodecError):
                decode_batch(memoryview(frame)[:cut])

    def test_n_words_field_mutations(self):
        frame = self._batch()
        at = frame.index(words(1 << 63)) - 4
        assert frame[at:at + 4] == (3).to_bytes(4, "little")
        for n in (0, 1, 2, 4, 5, 6, 255, 2 ** 31, 2 ** 32 - 1):
            mutant = frame[:at] + n.to_bytes(4, "little") + frame[at + 4:]
            with pytest.raises(ShardCodecError):
                decode_batch(mutant)

    def test_every_byte_flipped_decodes_or_raises_its_own_error(self):
        frame = self._batch()
        for i in range(len(frame)):
            for mask in (0x01, 0x80, 0xFF):
                mutant = bytearray(frame)
                mutant[i] ^= mask
                try:
                    for entry in decode_batch(bytes(mutant)):
                        snap = getattr(entry[4], "sender_digest", None)
                        if snap is not None:
                            assert len(snap[1]) % 8 == 0
                except ShardCodecError:
                    pass  # any other type propagates and fails the test


# ---------------------------------------------------------------------------
# step frames
# ---------------------------------------------------------------------------

class TestStepFrames:
    @given(
        end=times, inclusive=st.booleans(),
        frames=st.lists(st.binary(max_size=32), max_size=4),
    )
    def test_request_round_trip(self, end, inclusive, frames):
        payload = encode_step_request(end, inclusive, frames)
        got_end, got_incl, got_frames = decode_step_request(
            memoryview(payload)[1:]
        )
        assert got_end == end
        assert got_incl == inclusive
        assert [bytes(f) for f in got_frames] == frames

    @given(
        nt=times | st.just(math.inf),
        dest_frames=st.lists(
            st.tuples(i32, st.binary(max_size=32)), max_size=4
        ),
    )
    def test_reply_round_trip(self, nt, dest_frames):
        payload = encode_step_reply(nt, dest_frames)
        got_nt, got = decode_step_reply(memoryview(payload)[1:])
        assert got_nt == nt
        assert [(d, bytes(f)) for d, f in got] == dest_frames

    def test_truncated_request(self):
        payload = encode_step_request(1.0, False, [b"abcd"])
        with pytest.raises(ShardCodecError):
            decode_step_request(memoryview(payload)[1:-1])

    def test_truncated_reply(self):
        payload = encode_step_reply(1.0, [(1, b"abcd")])
        with pytest.raises(ShardCodecError):
            decode_step_reply(memoryview(payload)[1:-1])


# ---------------------------------------------------------------------------
# packed stats logs
# ---------------------------------------------------------------------------

class TestPackedLog:
    def _recorded(self):
        from repro.sim.engine import Engine
        from repro.sim.shard import ShardRecorder

        eng = Engine()
        rec = ShardRecorder(eng)
        rec.record_injected(0.5)
        rec.record_drop(0.6, "queue")
        rec.record_completion(0.7, 0.2, 3, 1)
        eng.now = 0.8
        rec.record_forward("cache")
        rec.record_stale_hop(0.9)
        rec.record_replica_created(1.0, 2)
        rec.record_replica_evicted(1.1, 3)
        rec.sample_load(1.2, 0.75)
        rec.record_client_lookup(1.3)
        rec.record_client_timeout(1.4)
        rec.record_client_retry(1.5)
        rec.record_drop(1.6, "queue")  # interned: same table entry
        return rec

    def test_decode_matches_recorded_stream(self):
        from repro.sim import shardcodec as sc

        log = self._recorded().packed()
        assert len(log) == 12
        assert decode_stats_log(log) == [
            (0.5, sc.LOG_INJECTED),
            (0.6, sc.LOG_DROP, "queue"),
            (0.7, sc.LOG_COMPLETION, 0.2, 3, 1),
            (0.8, sc.LOG_FORWARD, "cache"),
            (0.9, sc.LOG_STALE_HOP),
            (1.0, sc.LOG_REPLICA_CREATED, 2),
            (1.1, sc.LOG_REPLICA_EVICTED, 3),
            (1.2, sc.LOG_LOAD, 0.75),
            (1.3, sc.LOG_CLIENT_LOOKUP),
            (1.4, sc.LOG_CLIENT_TIMEOUT),
            (1.5, sc.LOG_CLIENT_RETRY),
            (1.6, sc.LOG_DROP, "queue"),
        ]
        assert log.strings == ("queue", "cache")

    def test_pickle_round_trip(self):
        log = self._recorded().packed()
        clone = pickle.loads(pickle.dumps(log))
        assert decode_stats_log(clone) == decode_stats_log(log)

    def test_corrupt_log_rejected(self):
        log = self._recorded().packed()
        with pytest.raises(ShardCodecError):
            decode_stats_log(PackedLog(log.data[:-1], log.strings, log.n))
        with pytest.raises(ShardCodecError):
            decode_stats_log(
                PackedLog(log.data + b"\x00" * 9, log.strings, log.n)
            )


# ---------------------------------------------------------------------------
# packed arrivals
# ---------------------------------------------------------------------------

class TestArrivalBatch:
    @given(st.lists(st.tuples(times, ids, ids, i64), max_size=8))
    def test_indexing_and_iteration(self, rows):
        batch = ArrivalBatch(rows)
        assert len(batch) == len(rows)
        assert list(batch) == rows
        for i, row in enumerate(rows):
            assert batch[i] == row

    def test_pickle_is_flat_and_faithful(self):
        rows = [(0.25 * i, i, i + 1, 100 + i) for i in range(50)]
        batch = ArrivalBatch(rows)
        clone = pickle.loads(pickle.dumps(batch))
        assert list(clone) == rows
        # the pickle carries four flat column byte-strings, not one
        # tuple + four boxed values per arrival
        _, args = batch.__reduce__()
        assert all(isinstance(a, bytes) for a in args)
        assert sum(len(a) for a in args) == 24 * len(rows)
