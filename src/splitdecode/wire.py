"""Bit-exact length-prefixed framing for the two-party decode protocol;
any malformed frame raises FrameError, a ProtocolError.

Frame layout, all little-endian:

    u32 length   -- bytes that follow (header + payload field)
    u8  tag
    u32 session_id
    u16 layer
    u16 head
    u32 payload length
    ... payload bytes

read_frame reads one frame from a stream socket; it refuses a length
above MAX_BODY, the largest legal body, before reading any of the body.

CONTROL payloads set up a stream, one per stream: a u32, its prompt
length, then a u64, its token 0, which the user party drew at prefill.

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

TOKEN payloads are one u64: each round the model party sends every
stream the token the controller drew and the user party echoes it, so
no logits leave the model party (the user party draws only token 0, at
prefill). The serializer accepts only ProtocolMessage values — there is
deliberately no code path that turns a KV partition into a frame.
"""

from __future__ import annotations

import socket
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FrameError",
    "HEADER_SIZE",
    "MAX_BODY",
    "ProtocolError",
    "ProtocolMessage",
    "TAG_ABORT",
    "TAG_CONTROL",
    "TAG_NAMES",
    "TAG_PARTIAL",
    "TAG_QUERY",
    "TAG_TOKEN",
    "decode_f64s",
    "decode_partial",
    "decode_query",
    "decode_setup",
    "decode_token",
    "deserialize",
    "encode_f64s",
    "encode_partial",
    "encode_query",
    "encode_setup",
    "encode_token",
    "parse_header",
    "read_frame",
    "serialize",
]

TAG_QUERY = 0x01
TAG_PARTIAL = 0x02
TAG_TOKEN = 0x03
# 0x04 is unassigned
TAG_CONTROL = 0x05
TAG_ABORT = 0x06

TAG_NAMES = {
    TAG_QUERY: "QUERY",
    TAG_PARTIAL: "PARTIAL",
    TAG_TOKEN: "TOKEN",
    TAG_CONTROL: "CONTROL",
    TAG_ABORT: "ABORT",
}

_HEADER = struct.Struct("<BIHHI")  # tag, session, layer, head, payload length
# bytes before the payload: the length prefix and the header
HEADER_SIZE = 4 + _HEADER.size
MAX_PAYLOAD = 1 << 30
# the largest legal value of the u32 length prefix
MAX_BODY = _HEADER.size + MAX_PAYLOAD


class ProtocolError(RuntimeError):
    """Message arrived out of order or malformed for the protocol state."""


class FrameError(ProtocolError, ValueError):
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
    if len(frame) < HEADER_SIZE:
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
    tag, session_id, layer, head, payload_len = parse_header(frame)
    if payload_len > MAX_PAYLOAD:
        raise FrameError("payload length overflow")
    if len(frame) != HEADER_SIZE + payload_len:
        raise FrameError("payload length disagrees with frame length")
    # ProtocolMessage checks the tag
    return ProtocolMessage(tag, session_id, layer, head, frame[HEADER_SIZE:])


_RECV_CHUNK = 1 << 16


def _read_exact(sock: socket.socket, n: int) -> bytes | None:
    chunks = []
    while n > 0:
        chunk = sock.recv(min(n, _RECV_CHUNK))
        if not chunk:
            return None
        chunks.append(chunk)
        n -= len(chunk)
    return b"".join(chunks)


def read_frame(sock: socket.socket) -> bytes | None:
    """Read one length-prefixed frame; None on clean EOF."""
    head = _read_exact(sock, 4)
    if head is None:
        return None
    (body_len,) = struct.unpack("<I", head)
    if body_len > MAX_BODY:
        raise FrameError(f"length prefix {body_len} exceeds the largest frame body {MAX_BODY}")
    body = _read_exact(sock, body_len)
    if body is None:
        raise ProtocolError("socket closed mid-frame")
    return head + body


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


def decode_query(payload: bytes, count: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(stream ids, flat float64 queries) of a batched QUERY payload that
    names count >= 1 streams of width = n_heads * head_dim queries each.
    Any other payload size raises FrameError."""
    if count < 1 or len(payload) != count * (4 + 8 * width):
        raise FrameError(
            f"QUERY names {count} streams but its payload holds {len(payload)} "
            f"bytes, not streams * (4 + 8 * n_heads * head_dim) = {count * (4 + 8 * width)}"
        )
    ids = np.frombuffer(payload, dtype="<u4", count=count)
    return ids, np.frombuffer(payload, dtype="<f8", offset=4 * count).astype(np.float64)


def encode_partial(a, gamma, m) -> bytes:
    """Payload of a batched PARTIAL from the kernel's (a, gamma, m)."""
    return encode_f64s(np.concatenate([a, gamma[..., None], m[..., None]], axis=-1))


def decode_partial(msg: ProtocolMessage, n_heads: int, head_dim: int):
    """(a, gamma, m) of a PARTIAL answering a QUERY for msg.head streams.
    Any other payload size raises FrameError."""
    count, want = msg.head, msg.head * n_heads * (head_dim + 2)
    if len(msg.payload) != 8 * want:
        raise FrameError(
            f"PARTIAL for {count} stream(s) at layer {msg.layer} carries "
            f"{len(msg.payload) / 8:g} scalars, not streams * n_heads * (head_dim + 2) = {want}"
        )
    values = decode_f64s(msg.payload).reshape(count, n_heads, head_dim + 2)
    return values[..., :-2], values[..., -2], values[..., -1]


_SETUP = struct.Struct("<IQ")  # prompt length, token 0


def encode_setup(prompt_len: int, token: int) -> bytes:
    return _SETUP.pack(prompt_len, token)


def decode_setup(payload: bytes) -> tuple[int, int]:
    if len(payload) != _SETUP.size:
        raise FrameError(f"stream-setup payload of {len(payload)} bytes, not {_SETUP.size}")
    return _SETUP.unpack(payload)


def encode_token(token: int) -> bytes:
    if not 0 <= token < 2**64:
        raise FrameError("token out of u64 range")
    return struct.pack("<Q", token)


def decode_token(payload: bytes) -> int:
    if len(payload) != 8:
        raise FrameError("token payload must be exactly 8 bytes")
    return struct.unpack("<Q", payload)[0]
