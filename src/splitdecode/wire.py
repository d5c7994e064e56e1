"""Bit-exact length-prefixed framing for the two-party decode protocol.

Frame layout, all little-endian:

    u32 length   -- bytes that follow (header + payload field)
    u8  tag
    u32 session_id
    u16 layer
    u16 head
    u32 payload length
    ... payload bytes

The attention exchange is batched: per decode round and layer, the
model party sends one QUERY to each user link and gets one PARTIAL back.
Both carry every head of every stream of that user on the link, stream
by stream and head by head within a stream (stream-major, then head):

    QUERY    session_id = the first stream's id, head = S (stream count);
             payload = S u32 stream ids, then S * n_heads * head_dim
             float64 queries, shape (S, n_heads, head_dim)
    PARTIAL  the same session_id, layer and head = S; payload =
             S * n_heads * (head_dim + 2) float64, shape
             (S, n_heads, head_dim + 2): per head the weighted values,
             the softmax denominator and its running max, in the
             QUERY's stream order

FINAL_Y payloads are one stream's float64 logits; TOKEN payloads are one
u64. The serializer accepts only ProtocolMessage values — there is
deliberately no code path that turns a KV partition into a frame.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FrameError",
    "HEADER_SIZE",
    "MAX_BODY",
    "ProtocolMessage",
    "TAG_ABORT",
    "TAG_CONTROL",
    "TAG_FINAL_Y",
    "TAG_NAMES",
    "TAG_PARTIAL",
    "TAG_QUERY",
    "TAG_TOKEN",
    "decode_f64s",
    "decode_query",
    "decode_token",
    "deserialize",
    "encode_f64s",
    "encode_query",
    "encode_token",
    "parse_header",
    "serialize",
]

TAG_QUERY = 0x01
TAG_PARTIAL = 0x02
TAG_TOKEN = 0x03
TAG_FINAL_Y = 0x04
TAG_CONTROL = 0x05
TAG_ABORT = 0x06

TAG_NAMES = {
    TAG_QUERY: "QUERY",
    TAG_PARTIAL: "PARTIAL",
    TAG_TOKEN: "TOKEN",
    TAG_FINAL_Y: "FINAL_Y",
    TAG_CONTROL: "CONTROL",
    TAG_ABORT: "ABORT",
}

_HEADER = struct.Struct("<BIHHI")  # tag, session, layer, head, payload length
# bytes before the payload: the length prefix and the header
HEADER_SIZE = 4 + _HEADER.size
MAX_PAYLOAD = 1 << 30
# the largest legal value of the u32 length prefix
MAX_BODY = _HEADER.size + MAX_PAYLOAD


class FrameError(ValueError):
    """Frame violates the wire format."""


@dataclass(frozen=True)
class ProtocolMessage:
    tag: int
    session_id: int
    layer: int = 0
    head: int = 0
    payload: bytes = b""

    def __post_init__(self):
        if self.tag not in TAG_NAMES:
            raise FrameError(f"unknown tag 0x{self.tag:02x}")
        if not 0 <= self.session_id < 2**32:
            raise FrameError("session_id out of u32 range")
        if not 0 <= self.layer < 2**16 or not 0 <= self.head < 2**16:
            raise FrameError("layer/head out of u16 range")
        if not isinstance(self.payload, (bytes, bytearray)):
            raise TypeError("payload must be bytes")
        if len(self.payload) > MAX_PAYLOAD:
            raise FrameError("payload too large")

    @property
    def tag_name(self) -> str:
        return TAG_NAMES[self.tag]


def serialize(msg: ProtocolMessage) -> bytes:
    if not isinstance(msg, ProtocolMessage):
        raise TypeError(f"can only serialize ProtocolMessage, not {type(msg).__name__}")
    body = _HEADER.pack(
        msg.tag, msg.session_id, msg.layer, msg.head, len(msg.payload)
    ) + bytes(msg.payload)
    return struct.pack("<I", len(body)) + body


def parse_header(frame: bytes) -> tuple[int, int, int, int, int]:
    """Cheap header peek: (tag, session_id, layer, head, payload_len).

    Validates only the framing lengths; use deserialize for a full parse.
    """
    if len(frame) < 4 + _HEADER.size:
        raise FrameError("frame shorter than its header")
    (body_len,) = struct.unpack_from("<I", frame, 0)
    if len(frame) != 4 + body_len:
        raise FrameError(
            f"frame length mismatch: prefix says {body_len}, got {len(frame) - 4}"
        )
    return _HEADER.unpack_from(frame, 4)


def deserialize(frame: bytes) -> ProtocolMessage:
    """Parse one complete frame; raises FrameError on truncation, a bad
    tag, length overflow, or trailing bytes."""
    if len(frame) < 4:
        raise FrameError("frame shorter than its length prefix")
    (body_len,) = struct.unpack_from("<I", frame, 0)
    if body_len < _HEADER.size:
        raise FrameError("frame body shorter than the header")
    if len(frame) != 4 + body_len:
        raise FrameError(
            f"frame length mismatch: prefix says {body_len}, got {len(frame) - 4}"
        )
    tag, session_id, layer, head, payload_len = _HEADER.unpack_from(frame, 4)
    if payload_len > MAX_PAYLOAD:
        raise FrameError("payload length overflow")
    if body_len != _HEADER.size + payload_len:
        raise FrameError("payload length disagrees with frame length")
    if tag not in TAG_NAMES:
        raise FrameError(f"unknown tag 0x{tag:02x}")
    payload = frame[4 + _HEADER.size :]
    return ProtocolMessage(
        tag=tag, session_id=session_id, layer=layer, head=head, payload=payload
    )


def encode_f64s(values) -> bytes:
    return np.ascontiguousarray(values, dtype="<f8").tobytes()


def decode_f64s(payload: bytes) -> np.ndarray:
    if len(payload) % 8 != 0:
        raise FrameError("float payload length not a multiple of 8")
    return np.frombuffer(payload, dtype="<f8").astype(np.float64)


def encode_query(stream_ids, queries) -> bytes:
    """Payload of a batched QUERY: the S stream ids as u32, then the
    (S, n_heads, head_dim) queries as float64."""
    return np.asarray(stream_ids, dtype="<u4").tobytes() + encode_f64s(queries)


def decode_query(payload: bytes, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(stream ids, flat float64 queries) of a batched QUERY payload that
    names count streams."""
    if len(payload) < 4 * count or (len(payload) - 4 * count) % 8 != 0:
        raise FrameError(f"QUERY payload of {len(payload)} bytes cannot name {count} streams")
    ids = np.frombuffer(payload, dtype="<u4", count=count)
    return ids, np.frombuffer(payload, dtype="<f8", offset=4 * count).astype(np.float64)


def encode_token(token: int) -> bytes:
    if not 0 <= token < 2**64:
        raise FrameError("token out of u64 range")
    return struct.pack("<Q", token)


def decode_token(payload: bytes) -> int:
    if len(payload) != 8:
        raise FrameError("token payload must be exactly 8 bytes")
    return struct.unpack("<Q", payload)[0]
