import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitdecode.partition import PRIVATE, KvPartition
from splitdecode.wire import (
    TAG_ABORT,
    TAG_CONTROL,
    TAG_NAMES,
    TAG_PARTIAL,
    TAG_QUERY,
    TAG_TOKEN,
    FrameError,
    ProtocolMessage,
    decode_f64s,
    decode_token,
    deserialize,
    encode_f64s,
    encode_partial,
    encode_query,
    encode_setup,
    encode_token,
    parse_header,
    serialize,
)


class TestRoundTrip:
    @settings(deadline=None, max_examples=80)
    @given(
        tag=st.sampled_from(sorted(TAG_NAMES)),
        session=st.integers(0, 2**32 - 1),
        layer=st.integers(0, 2**16 - 1),
        head=st.integers(0, 2**16 - 1),
        payload=st.binary(max_size=256),
    )
    def test_any_message_round_trips(self, tag, session, layer, head, payload):
        msg = ProtocolMessage(tag=tag, session_id=session, layer=layer, head=head,
                              payload=payload)
        assert deserialize(serialize(msg)) == msg

    def test_query_frame_byte_count(self):
        # 4 length + 1 tag + 4 session + 2 layer + 2 head + 4 payload length
        # + 8 floats of 8 bytes
        payload = encode_f64s(np.arange(8.0))
        frame = serialize(ProtocolMessage(tag=TAG_QUERY, session_id=1, payload=payload))
        assert len(frame) == 4 + 1 + 4 + 2 + 2 + 4 + 64

    def test_header_fields_in_order(self):
        msg = ProtocolMessage(tag=TAG_PARTIAL, session_id=7, layer=3, head=2, payload=b"xy")
        frame = serialize(msg)
        assert parse_header(frame) == (TAG_PARTIAL, 7, 3, 2, 2)
        body_len = struct.unpack("<I", frame[:4])[0]
        assert len(frame) == 4 + body_len


class TestFrameErrors:
    def test_truncated_frame(self):
        frame = serialize(ProtocolMessage(tag=TAG_TOKEN, session_id=1, payload=b"12345678"))
        with pytest.raises(FrameError):
            deserialize(frame[:-3])

    def test_overlong_frame(self):
        frame = serialize(ProtocolMessage(tag=TAG_TOKEN, session_id=1, payload=b"12345678"))
        with pytest.raises(FrameError):
            deserialize(frame + b"\x00")

    def test_unknown_tag(self):
        frame = bytearray(serialize(ProtocolMessage(tag=TAG_ABORT, session_id=1)))
        frame[4] = 0x7F
        with pytest.raises(FrameError):
            deserialize(bytes(frame))

    def test_payload_length_mismatch(self):
        good = serialize(ProtocolMessage(tag=TAG_CONTROL, session_id=1, payload=b"abcd"))
        bad = bytearray(good)
        bad[13:17] = struct.pack("<I", 2)  # lie about the payload length
        with pytest.raises(FrameError):
            deserialize(bytes(bad))

    def test_payload_length_overflow(self):
        good = serialize(ProtocolMessage(tag=TAG_CONTROL, session_id=1, payload=b"abcd"))
        bad = bytearray(good)
        bad[13:17] = struct.pack("<I", 0x7FFFFFFF)
        with pytest.raises(FrameError, match="overflow"):
            deserialize(bytes(bad))

    def test_bad_construction_rejected(self):
        with pytest.raises(FrameError):
            ProtocolMessage(tag=0x55, session_id=0)
        with pytest.raises(FrameError):
            ProtocolMessage(tag=TAG_QUERY, session_id=2**32)
        with pytest.raises(FrameError):
            ProtocolMessage(tag=TAG_QUERY, session_id=0, layer=2**16)

    def test_empty_bytes(self):
        with pytest.raises(FrameError):
            deserialize(b"")


@st.composite
def mutated_frames(draw):
    """A valid frame with one byte changed, or cut short."""
    frame = serialize(ProtocolMessage(
        tag=draw(st.sampled_from(sorted(TAG_NAMES))),
        session_id=draw(st.integers(0, 2**32 - 1)),
        layer=draw(st.integers(0, 2**16 - 1)),
        head=draw(st.integers(0, 2**16 - 1)),
        payload=draw(st.binary(max_size=32)),
    ))
    at = draw(st.integers(0, len(frame) - 1))
    if draw(st.booleans()):
        return frame[:at]
    return frame[:at] + bytes([draw(st.integers(0, 255))]) + frame[at + 1 :]


class TestOneParser:
    @settings(deadline=None, max_examples=300)
    @given(frame=st.one_of(st.binary(max_size=64), mutated_frames()))
    def test_rejects_or_round_trips(self, frame):
        try:
            msg = deserialize(frame)
        except FrameError:
            return
        assert serialize(msg) == frame


class TestPayloadCodecs:
    def test_f64_round_trip(self):
        values = np.array([1.5, -2.25, 1e300, -0.0])
        assert np.array_equal(decode_f64s(encode_f64s(values)), values)

    def test_f64_bad_length(self):
        with pytest.raises(FrameError):
            decode_f64s(b"123")

    def test_token_round_trip(self):
        assert decode_token(encode_token(123456789)) == 123456789

    def test_token_bad_payload(self):
        with pytest.raises(FrameError):
            decode_token(b"1234")
        with pytest.raises(FrameError):
            encode_token(-1)


# float64 little-endian
ZERO, HALF, ONE = "0000000000000000", "000000000000e03f", "000000000000f03f"
TWO, MINUS_ONE, MINUS_TWO = "0000000000000040", "000000000000f0bf", "00000000000000c0"


class TestGoldenFrames:
    def test_one_frame_of_each_tag_pinned(self):
        # each frame: the u32 length, then tag, stream, layer, head and
        # payload length, then the payload; 0x10000 is user 1's stream 0
        sid = 0x10000
        queries = np.array([[[1.0, 2.0]], [[-1.0, 0.5]]])  # 2 streams, 1 head, head_dim 2
        a = np.array([[[0.5, 1.0]], [[2.0, -2.0]]])
        gamma, m = np.array([[1.0], [2.0]]), np.array([[0.0], [-1.0]])
        frames = [
            ProtocolMessage(TAG_QUERY, sid, 1, 2, encode_query([sid, sid + 1], queries)),
            ProtocolMessage(TAG_PARTIAL, sid, 1, 2, encode_partial(a, gamma, m)),
            ProtocolMessage(TAG_TOKEN, sid, payload=encode_token(7)),
            ProtocolMessage(TAG_CONTROL, sid + 1, payload=encode_setup(9, 7)),
            ProtocolMessage(TAG_ABORT, sid + 1),
        ]
        assert [serialize(msg).hex() for msg in frames] == [
            # QUERY at layer 1 naming two streams: their u32 ids, then the
            # (2, 1, 2) queries
            "35000000" "01" "00000100" "0100" "0200" "28000000" "00000100" "01000100"
            + ONE + TWO + MINUS_ONE + HALF,
            # its PARTIAL: per stream and head the weighted values, the
            # denominator and the running max
            "4d000000" "02" "00000100" "0100" "0200" "40000000"
            + HALF + ONE + ONE + ZERO + TWO + MINUS_TWO + TWO + MINUS_ONE,
            "15000000" "03" "00000100" "0000" "0000" "08000000" "0700000000000000",
            # CONTROL: the stream's prompt length, then its token 0
            "19000000" "05" "01000100" "0000" "0000" "0c000000" "09000000" "0700000000000000",
            "0d000000" "06" "01000100" "0000" "0000" "00000000",
        ]


class TestNoPartitionSerializer:
    def test_serialize_rejects_partitions(self):
        part = KvPartition.single_head(PRIVATE, np.ones((2, 4)), np.ones((2, 4)))
        with pytest.raises(TypeError):
            serialize(part)

    def test_partition_has_no_wire_methods(self):
        # confidentiality by construction: nothing on the type turns it
        # into bytes
        assert not any(
            hasattr(KvPartition, name)
            for name in ("serialize", "to_bytes", "tobytes", "dumps", "__bytes__")
        )
