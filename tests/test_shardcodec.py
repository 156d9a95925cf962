"""The packed cross-shard codec (repro.sim.shardcodec).

Property-based round-trips over every message class registered in
``PEER_DISPATCH`` (the exact set the sharded data plane may ever put on
a worker pipe), strict rejection of malformed frames, and the
step-frame / packed-log / packed-arrival layers the process backend is
built on.
"""

import json
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
    STATS_RECORDS,
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
    stats_records,
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
    #: ``_recorded()``'s buffer and string table as the recorder wrote
    #: them before the record layouts were derived from ``StatsSink``
    GOLDEN = bytes.fromhex(
        "000000000000e03f" "00"                                  # injected
        "333333333333e33f" "01" "0000"                           # drop
        "666666666666e63f" "02" "9a9999999999c93f" "03000000" "01000000"
        "9a9999999999e93f" "03" "0100"                           # forward
        "cdccccccccccec3f" "04"                                  # stale hop
        "000000000000f03f" "05" "02000000"                       # created
        "9a9999999999f13f" "06" "03000000"                       # evicted
        "333333333333f33f" "07" "000000000000e83f"               # load
        "cdccccccccccf43f" "08"                                  # lookup
        "666666666666f63f" "09"                                  # timeout
        "000000000000f83f" "0a"                                  # retry
        "9a9999999999f93f" "01" "0000"                           # drop
    )
    GOLDEN_STRINGS = ("queue", "cache")

    def _recorded(self):
        from repro.sim.shard import ShardRecorder

        rec = ShardRecorder()
        rec.record_injected(0.5)
        rec.record_drop(0.6, "queue")
        rec.record_completion(0.7, 0.2, 3, 1)
        rec.record_forward(0.8, "cache")
        rec.record_stale_hop(0.9)
        rec.record_replica_created(1.0, 2)
        rec.record_replica_evicted(1.1, 3)
        rec.sample_load(1.2, 0.75)
        rec.record_client_lookup(1.3)
        rec.record_client_timeout(1.4)
        rec.record_client_retry(1.5)
        rec.record_drop(1.6, "queue")  # interned: same table entry
        return rec

    def test_golden_log_is_byte_identical(self):
        log = self._recorded().packed()
        assert log.data == self.GOLDEN
        assert log.strings == self.GOLDEN_STRINGS

    def test_decode_matches_recorded_stream(self):
        log = self._recorded().packed()
        assert len(log) == 12
        assert [
            (t, STATS_RECORDS[code][0], *args)
            for t, code, *args in decode_stats_log(log)
        ] == [
            (0.5, "record_injected"),
            (0.6, "record_drop", "queue"),
            (0.7, "record_completion", 0.2, 3, 1),
            (0.8, "record_forward", "cache"),
            (0.9, "record_stale_hop"),
            (1.0, "record_replica_created", 2),
            (1.1, "record_replica_evicted", 3),
            (1.2, "sample_load", 0.75),
            (1.3, "record_client_lookup"),
            (1.4, "record_client_timeout"),
            (1.5, "record_client_retry"),
            (1.6, "record_drop", "queue"),
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
        bad_opcode = log.data[:8] + bytes((len(STATS_RECORDS),))
        with pytest.raises(ShardCodecError, match="opcode"):
            decode_stats_log(PackedLog(bad_opcode, (), 1))


class TestStatsRecords:
    """The record table is derived from the ``StatsSink`` hooks."""

    def test_every_hook_is_recorded_on_the_recorder_itself(self):
        from repro.sim.shard import ShardRecorder
        from repro.sim.stats import StatsSink

        hooks = [n for n in vars(StatsSink) if not n.startswith("_")]
        assert [r[0] for r in STATS_RECORDS] == hooks
        # the benchmark tracer resolves these with vars(ShardRecorder)
        assert all(name in vars(ShardRecorder) for name in hooks)

    def test_unpackable_annotation_raises_naming_hook_and_parameter(self):
        class Sink:
            def record_tagged(self, now: "float", tag: "bytes") -> None:
                pass

        # the same check runs on StatsSink when shardcodec is imported
        with pytest.raises(TypeError, match=r"record_tagged.*'tag'"):
            stats_records(Sink)

    def test_hook_without_now_first_raises(self):
        class Sink:
            def record_late(self, source: "str", now: "float") -> None:
                pass

        with pytest.raises(TypeError, match="record_late"):
            stats_records(Sink)


MAX_DEPTH = 4

_ARG_VALUES = {
    # sums of these depend on their order (1e16 + 1.0 + 1.0 == 1e16,
    # 1.0 + 1.0 + 1e16 > 1e16), so a replay that merges in the wrong
    # order changes the fingerprint
    "d": st.sampled_from((1.0, 1e16)),
    "i": st.integers(min_value=0, max_value=MAX_DEPTH),
    "H": st.sampled_from(("queue", "ttl", "routing", "cache", "digest")),
}

#: one hook call: (hook name, its arguments after ``now``)
hook_calls = st.one_of([
    st.tuples(
        st.just(name), st.tuples(*[_ARG_VALUES[c] for c in layout.format[3:]])
    )
    for name, layout, _ in STATS_RECORDS
])

#: (recorder, time, call): few distinct times, so records of different
#: recorders often share a timestamp and only the shard index orders them
spread_calls = st.lists(
    st.tuples(st.integers(0, 3), st.sampled_from((0.0, 0.5, 1.0, 2.5)),
              hook_calls),
    min_size=16, max_size=80,
)


class TestReplay:
    @given(spread_calls)
    @settings(max_examples=200, deadline=None)
    def test_replay_equals_direct_calls_in_merge_order(self, spread):
        from repro.sim.shard import ShardRecorder, replay_stats, stats_fingerprint
        from repro.sim.stats import SystemStats

        n_shards = 1 + max(shard for shard, _, _ in spread)
        recorders = [ShardRecorder() for _ in range(n_shards)]
        calls = []  # (t, shard, index, name, args)
        # a stable sort: each recorder sees its calls in time order
        for shard, t, (name, args) in sorted(spread, key=lambda c: c[:2]):
            rec = recorders[shard]
            calls.append((t, shard, rec.n, name, args))
            getattr(rec, name)(t, *args)
        direct = SystemStats(MAX_DEPTH)
        for t, _, _, name, args in sorted(calls):
            getattr(direct, name)(t, *args)
        replayed = replay_stats([r.packed() for r in recorders], MAX_DEPTH)
        assert json.dumps(stats_fingerprint(replayed), sort_keys=True) == \
            json.dumps(stats_fingerprint(direct), sort_keys=True)


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
