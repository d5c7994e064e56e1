"""Two-party decode: a model party that owns the weights and public KV
rows, user parties that own prompts and private KV rows, and a controller
that lets only ground-truth-matching tokens leave the boundary.

Per generated token, per layer, the model party projects the incoming
tokens of every live stream, appends their K/V to its public-KV slot
arena, and sends each user link one QUERY carrying every head of every
stream of that user. The user party answers with one PARTIAL (per stream
and head: weighted values, denominator, running max), computed in one
kernel call over its padded private rows; the model merges it with its
own public partials, finishes the layer, and after the last layer
returns each stream's next-token distribution (FINAL_Y). The user
samples and emits the token both back to the model and outward through
the controller gate.

User parties never touch weights after prefill (the handle is released
and any later access faults), and private partitions never serialize:
the wire layer only moves ProtocolMessage frames.

Transport is an in-process frame conduit by default; the same frames run
over localhost stream sockets via SocketLink/serve_user_party.
"""

from __future__ import annotations

import hashlib
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .model import ModelConfig, Weights, prefill, sample_token, trunk
from .obfuscation import (
    ObfuscationConfig,
    TaggedPrompt,
    VirtualPromptSet,
    build_virtual_prompts,
    multi_segment_gqs,
    winnow,
)
from .partition import (
    PRIVATE,
    KvPartition,
    _softmax_partial,
    merge_partial_arrays,
)
# perfbench's tracer wraps these per-head kernels by their names in this
# module; the batched exchange no longer calls them
from .partition import batched_public_partials, private_partial  # noqa: F401
from .wire import (
    HEADER_SIZE,
    MAX_BODY,
    TAG_ABORT,
    TAG_CONTROL,
    TAG_FINAL_Y,
    TAG_NAMES,
    TAG_PARTIAL,
    TAG_QUERY,
    TAG_TOKEN,
    FrameError,
    ProtocolMessage,
    decode_f64s,
    decode_query,
    decode_token,
    deserialize,
    encode_f64s,
    encode_query,
    encode_token,
    parse_header,
    serialize,
)

__all__ = [
    "CommReport",
    "Controller",
    "GateDecision",
    "InProcLink",
    "ModelParty",
    "ProtocolError",
    "SocketLink",
    "TokenRule",
    "Transcript",
    "UserParty",
    "WeightsHandle",
    "WeightsReleasedError",
    "comm_accounting",
    "controller_gate",
    "model_batch_step",
    "run_decode_session",
    "run_sessions",
    "serve_user_party",
    "user_prefill",
]


class ProtocolError(RuntimeError):
    """Message arrived out of order or malformed for the protocol state."""


class WeightsReleasedError(RuntimeError):
    """Weight access after the prefill-only handle was released."""


class WeightsHandle:
    """Counting, revocable reference to the shared weights.

    The user party may read weights only during prefill; release() drops
    the reference so the party's resident state holds no weight matrices
    and any later get() is a hard fault.
    """

    def __init__(self, weights: Weights):
        self._weights = weights
        self.accesses = 0
        self.released = False

    def get(self) -> Weights:
        if self.released:
            raise WeightsReleasedError("weights were released after prefill")
        self.accesses += 1
        return self._weights

    def release(self):
        self.released = True
        self._weights = None


# -- transcript ---------------------------------------------------------


@dataclass
class TranscriptEntry:
    """Header-level record of one frame; payload bytes are not retained."""

    direction: str  # m2u, u2m, out, blk
    step: int
    tag: int
    session_id: int
    layer: int
    head: int
    payload_len: int
    nbytes: int
    streams: tuple = ()  # the stream ids a batched QUERY names

    @property
    def tag_name(self) -> str:
        return TAG_NAMES.get(self.tag, f"0x{self.tag:02x}")


@dataclass
class Transcript:
    config: ModelConfig
    entries: list = field(default_factory=list)
    tokens: dict = field(default_factory=dict)  # stream -> gate-passed tokens
    killed: dict = field(default_factory=dict)  # stream -> reason
    gate_log: list = field(default_factory=list)  # (step, stream, passed, reason)
    round_s: list = field(default_factory=list)  # wall seconds of each decode round

    def record(self, direction: str, step: int, frame: bytes):
        tag, session_id, layer, head, payload_len = parse_header(frame)
        streams = ()
        if tag == TAG_QUERY and payload_len >= 4 * head:
            streams = tuple(np.frombuffer(frame, "<u4", count=head, offset=HEADER_SIZE).tolist())
        self.entries.append(
            TranscriptEntry(
                direction=direction,
                step=step,
                tag=tag,
                session_id=session_id,
                layer=layer,
                head=head,
                payload_len=payload_len,
                nbytes=len(frame),
                streams=streams,
            )
        )

    def total_bytes(self) -> int:
        return sum(e.nbytes for e in self.entries)

    def dump(self) -> str:
        return "\n".join(
            f"{e.direction} {e.tag_name} {e.session_id} {e.layer} {e.head} {e.nbytes}"
            for e in self.entries
        )


# -- links --------------------------------------------------------------


class InProcLink:
    """Synchronous in-process conduit: sending a frame hands it to the
    peer handler and queues the replies for recv()."""

    def __init__(self, handler, transcript: Transcript | None = None):
        self._handler = handler
        self._pending = deque()
        self.transcript = transcript
        self.step = 0

    def send(self, frame: bytes):
        if self.transcript is not None:
            self.transcript.record("m2u", self.step, frame)
        self._pending.extend(self._handler(frame))

    def recv(self) -> bytes:
        if not self._pending:
            raise ProtocolError("expected a reply frame, peer sent none")
        frame = self._pending.popleft()
        if self.transcript is not None:
            self.transcript.record("u2m", self.step, frame)
        return frame


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
    """Read one length-prefixed frame; None on clean EOF.

    A length prefix above the largest legal frame body raises FrameError
    before any of the body is read.
    """
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


def _no_delay(sock: socket.socket):
    """Send small frames at once: without TCP_NODELAY, Nagle's algorithm
    holds each reply back until the peer's delayed ACK arrives."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class SocketLink:
    """Model-party end of a localhost stream socket carrying frames."""

    def __init__(self, sock: socket.socket, transcript: Transcript | None = None):
        _no_delay(sock)
        self._sock = sock
        self.transcript = transcript
        self.step = 0

    def send(self, frame: bytes):
        if self.transcript is not None:
            self.transcript.record("m2u", self.step, frame)
        self._sock.sendall(frame)

    def recv(self) -> bytes:
        frame = read_frame(self._sock)
        if frame is None:
            raise ProtocolError("peer closed the connection")
        if self.transcript is not None:
            self.transcript.record("u2m", self.step, frame)
        return frame


def serve_user_party(user: "UserParty", sock: socket.socket):
    """Blocking loop for socket transport: announce the prefill messages,
    then answer the model's frames until EOF. The announcement, and the
    replies to each frame, go out in one write each."""
    _no_delay(sock)
    sock.sendall(b"".join(serialize(msg) for msg in user.pending_setup))
    user.pending_setup = []
    while True:
        frame = read_frame(sock)
        if frame is None:
            return
        replies = user.handle_frame(frame)
        if replies:
            sock.sendall(b"".join(replies))


# -- control payloads ---------------------------------------------------

_SETUP = struct.Struct("<I")  # prompt length


def encode_setup(prompt_len: int) -> bytes:
    return _SETUP.pack(prompt_len)


def decode_setup(payload: bytes) -> int:
    if len(payload) != _SETUP.size:
        raise ProtocolError("bad stream-setup payload")
    return _SETUP.unpack(payload)[0]


# -- user party ---------------------------------------------------------


@dataclass(frozen=True)
class TokenRule:
    """How a stream turns logits into its token number t: the argmax, or
    with a temperature a draw seeded by (seed, key, t). The user party
    draws with it and commits it to the controller, which recomputes each
    decoded token. key is a digest of the stream's virtual prompt."""

    temperature: float | None = None
    seed: int = 0
    key: int = 0

    def token(self, logits: np.ndarray, t: int) -> int:
        if self.temperature is None:
            return sample_token(logits)
        return sample_token(logits, self.temperature, seed=[self.seed, self.key, t])


@dataclass
class _UserStream:
    stream_id: int
    index: int  # the stream's row in the party's private K/V arrays
    private: KvPartition  # a view of those rows, unpadded
    tokens: list
    rule: TokenRule
    alive: bool = True


def _prompt_digest(tokens) -> int:
    """A 64-bit key of a token sequence; the same prompt always gets the
    same key, whatever else the party decodes alongside it."""
    data = np.asarray(tokens, dtype="<u8").tobytes()
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


class UserParty:
    """Holds the prompt-side secrets of one user: virtual prompts, the
    authentic index, and per-stream private KV partitions.

    The private rows of all streams live in one pair of
    (streams, n_layers, n_heads, rows, head_dim) arrays, zero-padded past
    each stream's prompt length, so a batched QUERY is answered with one
    masked kernel call. During decode the party answers QUERY frames from
    these rows and samples from FINAL_Y distributions; it needs no
    weights, and its weights handle is released at the end of prefill.
    """

    def __init__(
        self,
        user_id: int,
        weights_handle: WeightsHandle,
        oracle=None,
        prf_key: bytes = b"",
        temperature: float | None = None,
        sample_seed: int = 0,
    ):
        self.user_id = user_id
        self.weights_handle = weights_handle
        self.oracle = oracle
        self.prf_key = prf_key
        self.temperature = temperature
        self.sample_seed = sample_seed
        self.config: ModelConfig | None = None
        self.streams: dict[int, _UserStream] = {}
        self.private_k: np.ndarray | None = None
        self.private_v: np.ndarray | None = None
        self.private_lengths: np.ndarray | None = None  # prompt length per row
        self.vps: VirtualPromptSet | None = None
        self.pending_setup: list[ProtocolMessage] = []
        self._outward: deque = deque()
        self._outward_lock = threading.Lock()

    def take_outward(self) -> list[ProtocolMessage]:
        with self._outward_lock:
            out = list(self._outward)
            self._outward.clear()
        return out

    def _queue_outward(self, msg: ProtocolMessage):
        with self._outward_lock:
            self._outward.append(msg)

    def authentic_response(self) -> list[int]:
        """Winnow: the response stream at the PRF-derived index."""
        idx = self.vps.idx if self.vps is not None else 0
        return winnow([s.tokens for s in self.streams.values()], idx)

    def _live_stream(self, stream_id: int) -> _UserStream:
        stream = self.streams.get(stream_id)
        if stream is None or not stream.alive:
            raise ProtocolError(f"frame for unknown or dead stream {stream_id}")
        return stream

    def handle_frame(self, frame: bytes) -> list[bytes]:
        msg = deserialize(frame)
        stream = self._live_stream(msg.session_id)
        if msg.tag == TAG_QUERY:
            return [self._answer_query(msg)]
        if msg.tag == TAG_FINAL_Y:
            logits = decode_f64s(msg.payload)
            token = stream.rule.token(logits, len(stream.tokens))
            stream.tokens.append(token)
            token_msg = ProtocolMessage(
                tag=TAG_TOKEN, session_id=msg.session_id, payload=encode_token(token)
            )
            self._queue_outward(token_msg)
            return [serialize(token_msg)]
        if msg.tag == TAG_ABORT:
            stream.alive = False
            return []
        raise ProtocolError(f"user party cannot handle {msg.tag_name} frames")

    def _answer_query(self, msg: ProtocolMessage) -> bytes:
        """The PARTIAL for a batched QUERY: the private partial of every
        head of every named stream, in one kernel call."""
        c, count = self.config, msg.head
        width = c.n_heads * c.head_dim
        if count == 0 or len(msg.payload) != count * (4 + 8 * width):
            raise ProtocolError(
                f"QUERY names {count} streams but its payload holds {len(msg.payload)} "
                f"bytes, not streams * (4 + 8 * n_heads * head_dim) = {count * (4 + 8 * width)}"
            )
        if msg.layer >= c.n_layers:
            raise ProtocolError(f"QUERY for layer {msg.layer} of a {c.n_layers}-layer model")
        ids, qs = decode_query(msg.payload, count)
        if ids[0] != msg.session_id or len(set(ids.tolist())) != count:
            raise ProtocolError(
                f"QUERY {msg.session_id} names the streams {ids.tolist()}: the header "
                "must name the first, and no stream may appear twice"
            )
        arena = _arena_rows([self._live_stream(int(sid)).index for sid in ids])
        lengths = self.private_lengths[arena]
        n = int(lengths.max())
        a, gamma, m = _softmax_partial(
            qs.reshape(count, c.n_heads, c.head_dim),
            self.private_k[arena, msg.layer, :, :n],
            self.private_v[arena, msg.layer, :, :n],
            lengths[:, None],
        )
        values = np.concatenate([a, gamma[..., None], m[..., None]], axis=-1)
        return _frame(TAG_PARTIAL, msg.session_id, msg.layer, count, values)


def user_prefill(
    party: UserParty,
    prompt: TaggedPrompt,
    config: ObfuscationConfig,
    stream_ids: list[int] | None = None,
) -> list[ProtocolMessage]:
    """Build the virtual prompts, prefill them all, release the weights,
    and emit per-stream setup plus first-token messages.

    Raises InsufficientObfuscationError (the obfuscation abort) when fewer
    than lambda_min decoys exist; the weights handle stays valid in that
    case since no stream started.
    """
    if party.streams:
        raise ValueError("a user party prefills once")
    weights = party.weights_handle.get()
    party.config = c = weights.config

    if prompt.spans and config.lambda_max > 0 and config.epsilon > 0:
        fake_sets = multi_segment_gqs(prompt, config, party.oracle)
    else:
        fake_sets = []
    party.vps = build_virtual_prompts(prompt, fake_sets, config, party.user_id)

    prompts = party.vps.prompts
    if stream_ids is None:
        # deterministic per user: stream i of user u is u*2^16 + i
        if not 0 <= party.user_id < 2**16:
            raise ValueError("default stream ids need user_id < 2^16")
        stream_ids = [party.user_id * 2**16 + i for i in range(len(prompts))]
    if len(stream_ids) != len(prompts):
        raise ValueError("need one stream id per prompt")

    party.private_lengths = np.array([len(tokens) for tokens in prompts])
    shape = (len(prompts), c.n_layers, c.n_heads, party.private_lengths.max(), c.head_dim)
    party.private_k, party.private_v = np.zeros(shape), np.zeros(shape)
    messages = []
    for index, (stream_id, tokens) in enumerate(zip(stream_ids, prompts)):
        n = len(tokens)
        cache, logits = prefill(weights, list(tokens))
        # copy the prompt rows so the max_seq-row cache can be freed
        k, v = party.private_k[index, :, :, :n], party.private_v[index, :, :, :n]
        k[...], v[...] = cache.k[:, :, :n], cache.v[:, :, :n]
        rule = TokenRule(party.temperature, party.sample_seed, _prompt_digest(tokens))
        stream = _UserStream(stream_id, index, KvPartition(PRIVATE, k=k, v=v), tokens=[], rule=rule)
        first = rule.token(logits, 0)
        stream.tokens.append(first)
        party.streams[stream_id] = stream
        token_msg = ProtocolMessage(
            tag=TAG_TOKEN, session_id=stream_id, payload=encode_token(first)
        )
        messages.append(
            ProtocolMessage(
                tag=TAG_CONTROL, session_id=stream_id, payload=encode_setup(len(tokens))
            )
        )
        messages.append(token_msg)
        party._queue_outward(token_msg)

    party.weights_handle.release()
    party.pending_setup = list(messages)
    return messages


# -- controller ---------------------------------------------------------


@dataclass(frozen=True)
class GateDecision:
    passed: bool
    reason: str


@dataclass
class _GateStream:
    rule: TokenRule
    expected: deque = field(default_factory=deque)
    decoded: int = 0  # tokens decoded so far; the prefill token is number 0
    first_passed: bool = False


class Controller:
    """Token inspector at the boundary: only TOKEN frames whose value
    equals the model party's ground truth may exit.

    Each stream is opened with the token rule its user committed (greedy
    when none is given); expect() recomputes the stream's exact token
    from each round's logits with that rule, sampled or greedy alike.
    The first token of each stream is drawn by the user party during
    prefill, before the model has any ground truth for it; exactly one
    unverified token per stream is let through.
    """

    def __init__(self):
        self.streams: dict[int, _GateStream] = {}
        self.killed: dict[int, str] = {}

    def open_stream(self, stream_id: int, rule: TokenRule = TokenRule()):
        self.streams.setdefault(stream_id, _GateStream(rule))

    def register_expected(self, stream_id: int, token: int):
        self.streams[stream_id].expected.append(token)

    def expect(self, stream_id: int, logits: np.ndarray):
        """Queue the ground truth for the stream's next token: the
        committed rule applied to logits at the stream's token count."""
        stream = self.streams[stream_id]
        stream.decoded += 1
        stream.expected.append(stream.rule.token(logits, stream.decoded))

    def kill(self, stream_id: int, reason: str):
        self.killed[stream_id] = reason

    def gate(self, outbound: ProtocolMessage) -> GateDecision:
        if outbound.tag != TAG_TOKEN:
            return GateDecision(False, f"non-token frame ({outbound.tag_name})")
        stream_id = outbound.session_id
        if stream_id in self.killed:
            return GateDecision(False, "session killed")
        stream = self.streams.get(stream_id)
        if stream is None:
            return GateDecision(False, "unknown session")
        try:
            token = decode_token(outbound.payload)
        except Exception:
            self.kill(stream_id, "malformed token payload")
            return GateDecision(False, "malformed token payload")
        if not stream.expected:
            if not stream.first_passed:
                stream.first_passed = True
                return GateDecision(True, "first token (pre-decode)")
            self.kill(stream_id, "token without ground truth")
            return GateDecision(False, "token without ground truth")
        if token == stream.expected.popleft():
            return GateDecision(True, "matches ground truth")
        self.kill(stream_id, "token mismatch")
        return GateDecision(False, "token mismatch")


def controller_gate(ctrl: Controller, outbound: ProtocolMessage) -> GateDecision:
    """Apply the boundary policy to one outbound message."""
    return ctrl.gate(outbound)


# -- model party --------------------------------------------------------


@dataclass
class _ModelStream:
    stream_id: int
    prompt_len: int
    pos: int  # absolute position of the next token to process
    slot: int  # the stream's slot in the model party's public-KV arena
    # views of that slot, (n_layers, n_heads, rows, head_dim); the first
    # public_len rows hold the K/V of every token processed so far
    kbuf: np.ndarray = field(repr=False)
    vbuf: np.ndarray = field(repr=False)
    public_len: int = 0
    pending_token: int | None = None
    tokens: list = field(default_factory=list)
    done: bool = False


def _arena_rows(rows: list[int]):
    """Index of the given arena rows: a slice, which reads a view, when
    they are consecutive and ascending, else an array, which gathers."""
    lo = rows[0]
    if rows == list(range(lo, lo + len(rows))):
        return slice(lo, lo + len(rows))
    return np.array(rows)


class ModelParty:
    """Owns the weights and, per stream, only public state: generated
    tokens and their KV rows. Never sees a private K/V row.

    The public K/V of every stream live in one slot arena, public_k and
    public_v of shape (slots, n_layers, n_heads, rows, head_dim), one slot
    per registered stream in registration order. rows is max_seq minus
    the shortest registered prompt, the most rows any stream can write.
    Slots grow by doubling; growth copies only the rows written so far.

    stop_at_eos=False decodes fixed-length responses (bench workloads).
    """

    def __init__(self, weights: Weights, stop_at_eos: bool = True):
        self.weights = weights
        self.config = c = weights.config
        self.stop_at_eos = stop_at_eos
        self.streams: dict[int, _ModelStream] = {}
        self.public_k = np.zeros((0, c.n_layers, c.n_heads, 1, c.head_dim))
        self.public_v = np.zeros_like(self.public_k)

    def _open_slot(self, prompt_len: int) -> int:
        """The arena slot of a new stream whose prompt has prompt_len
        tokens, growing the arena if the slot or its rows do not fit."""
        c = self.config
        slot = len(self.streams)
        slots, rows = self.public_k.shape[0], self.public_k.shape[3]
        need_rows = max(c.max_seq - prompt_len, 1)
        if slot < slots and need_rows <= rows:
            return slot
        if slot >= slots:
            slots = max(2 * slots, 1)
        shape = (slots, c.n_layers, c.n_heads, max(rows, need_rows), c.head_dim)
        written = max((s.public_len for s in self.streams.values()), default=0)
        k, v = np.zeros(shape), np.zeros(shape)
        k[:slot, :, :, :written] = self.public_k[:slot, :, :, :written]
        v[:slot, :, :, :written] = self.public_v[:slot, :, :, :written]
        self.public_k, self.public_v = k, v
        for s in self.streams.values():
            s.kbuf, s.vbuf = self.public_k[s.slot], self.public_v[s.slot]
        return slot

    def handle_user_frame(self, msg: ProtocolMessage):
        if msg.tag == TAG_CONTROL:
            if msg.session_id in self.streams:
                raise ProtocolError(f"stream {msg.session_id} registered twice")
            prompt_len = decode_setup(msg.payload)
            slot = self._open_slot(prompt_len)
            self.streams[msg.session_id] = _ModelStream(
                stream_id=msg.session_id,
                prompt_len=prompt_len,
                pos=prompt_len,
                slot=slot,
                kbuf=self.public_k[slot],
                vbuf=self.public_v[slot],
            )
            return
        if msg.tag == TAG_TOKEN:
            stream = self.streams.get(msg.session_id)
            if stream is None:
                raise ProtocolError(f"token for unregistered stream {msg.session_id}")
            if stream.pending_token is not None:
                raise ProtocolError("duplicate token before a decode round")
            self._accept_token(stream, decode_token(msg.payload))
            return
        raise ProtocolError(f"model party cannot handle {msg.tag_name} frames")

    def _accept_token(self, stream: _ModelStream, token: int):
        stream.pending_token = token
        stream.tokens.append(token)
        if self.stop_at_eos and token == self.config.eos_token:
            stream.done = True

    def active_streams(self) -> list[int]:
        return [
            s.stream_id
            for s in self.streams.values()
            if not s.done and s.pending_token is not None and s.pos < self.config.max_seq
        ]


def _frame(tag: int, stream_id: int, layer: int = 0, head: int = 0, values=()) -> bytes:
    """One serialized frame whose payload is the float64 values."""
    return serialize(
        ProtocolMessage(
            tag=tag, session_id=stream_id, layer=layer, head=head, payload=encode_f64s(values)
        )
    )


def _query_frame(stream_ids: list[int], layer: int, qs: np.ndarray) -> bytes:
    """The batched QUERY naming stream_ids, with their (S, n_heads,
    head_dim) queries."""
    return serialize(ProtocolMessage(
        tag=TAG_QUERY, session_id=stream_ids[0], layer=layer, head=len(stream_ids),
        payload=encode_query(stream_ids, qs),
    ))


def _expect(link, tag: int, stream_id: int, layer: int = 0, head: int = 0) -> bytes:
    """The payload of the next reply, which must be tag for stream_id/layer/head."""
    msg = deserialize(link.recv())
    if (msg.tag, msg.session_id, msg.layer, msg.head) != (tag, stream_id, layer, head):
        raise ProtocolError(
            f"out-of-order reply: expected {TAG_NAMES[tag]} {stream_id}/{layer}/{head}, "
            f"got {msg.tag_name} {msg.session_id}/{msg.layer}/{msg.head}"
        )
    return msg.payload


def _expect_partials(link, stream_ids: list[int], layer: int, c: ModelConfig) -> np.ndarray:
    """The (S, n_heads, head_dim + 2) reply to the QUERY naming stream_ids."""
    count = len(stream_ids)
    payload = _expect(link, TAG_PARTIAL, stream_ids[0], layer, count)
    want = count * c.n_heads * (c.head_dim + 2)
    if len(payload) != 8 * want:
        raise ProtocolError(
            f"PARTIAL for {count} stream(s) at layer {layer} carries {len(payload) / 8:g} "
            f"scalars, not streams * n_heads * (head_dim + 2) = {want}"
        )
    return decode_f64s(payload).reshape(count, c.n_heads, c.head_dim + 2)


def model_batch_step(
    model: ModelParty,
    sessions: list[tuple[int, object]],
    controller: Controller | None = None,
    step: int = 1,
) -> dict[int, int]:
    """Advance every listed (stream_id, link) pair by one token in one
    batched pass.

    The streams run through the model trunk stacked. At each layer the
    attention callback writes the public K/V into the arena, sends each
    link one QUERY for all of its streams, computes every stream's public
    partial in one kernel call over the arena slots, and merges them with
    the PARTIAL replies. The resulting tokens are identical to running
    each stream alone. Returns the token each user party fed back.
    """
    c = model.config
    live = [
        (sid, link)
        for sid, link in sessions
        if sid in model.streams
        and not model.streams[sid].done
        and model.streams[sid].pending_token is not None
    ]
    if not live:
        return {}
    states = [model.streams[sid] for sid, _ in live]
    for st in states:
        if st.pos >= c.max_seq:
            raise ProtocolError(f"stream {st.stream_id} ran past max_seq")
    by_link: dict[int, tuple[object, list[int]]] = {}
    for i, (_, link) in enumerate(live):
        link.step = step
        by_link.setdefault(id(link), (link, []))[1].append(i)
    batches = [(link, rows, [live[i][0] for i in rows]) for link, rows in by_link.values()]
    slots = [st.slot for st in states]
    lens = np.array([st.public_len for st in states])
    arena = _arena_rows(slots)
    n = int(lens.max()) + 1

    def attend(layer, q, k, v):
        qs = q.transpose(1, 0, 2)  # (streams, heads, head_dim), the wire's order
        model.public_k[slots, layer, :, lens] = k.transpose(1, 0, 2)
        model.public_v[slots, layer, :, lens] = v.transpose(1, 0, 2)
        for link, rows, sids in batches:
            link.send(_query_frame(sids, layer, qs[rows]))
        # the public side runs while socket peers compute their partials
        pub = _softmax_partial(
            qs, model.public_k[arena, layer, :, :n], model.public_v[arena, layer, :, :n],
            lens[:, None] + 1,
        )
        pvt = np.empty((len(live), c.n_heads, c.head_dim + 2))
        for link, rows, sids in batches:
            pvt[rows] = _expect_partials(link, sids, layer, c)
        out = merge_partial_arrays(pvt[..., :-2], pvt[..., -2], pvt[..., -1], *pub)
        return out.transpose(1, 0, 2)

    tokens = [st.pending_token for st in states]
    for st in states:
        st.pending_token = None
    logits = trunk(model.weights, tokens, [st.pos for st in states], attend)

    returned: dict[int, int] = {}
    for i, (sid, link) in enumerate(live):
        st = states[i]
        if controller is not None:
            controller.expect(sid, logits[i])
        link.send(_frame(TAG_FINAL_Y, sid, values=logits[i]))
        token = decode_token(_expect(link, TAG_TOKEN, sid))
        model._accept_token(st, token)
        st.pos += 1
        st.public_len += 1
        if st.pos >= c.max_seq:
            st.done = True
        returned[sid] = token
    return returned


# -- session drivers ----------------------------------------------------


def _route_outward(user: UserParty, ctrl: Controller, transcript: Transcript, step: int):
    """Push the user party's outward messages through the gate."""
    killed_now = []
    for msg in user.take_outward():
        decision = controller_gate(ctrl, msg)
        transcript.record("out" if decision.passed else "blk", step, serialize(msg))
        transcript.gate_log.append((step, msg.session_id, decision.passed, decision.reason))
        if decision.passed:
            transcript.tokens.setdefault(msg.session_id, []).append(
                decode_token(msg.payload)
            )
        elif msg.session_id in ctrl.killed:
            killed_now.append(msg.session_id)
            transcript.killed[msg.session_id] = ctrl.killed[msg.session_id]
    return killed_now


def _abort_stream(model: ModelParty, user: UserParty, link, stream_id: int):
    if stream_id in model.streams:
        model.streams[stream_id].done = True
    link.send(_frame(TAG_ABORT, stream_id))


def _inproc_setup(user: UserParty, link, transcript: Transcript) -> list[ProtocolMessage]:
    """Hand over the prefill messages directly, recording them as u2m."""
    msgs, user.pending_setup = user.pending_setup, []
    for msg in msgs:
        transcript.record("u2m", 0, serialize(msg))
    return msgs


def _drive(model, ctrl, users_links, max_tokens, transcript, receive_setup) -> Transcript:
    """Ingest each user's setup messages (from receive_setup), then
    advance all active streams in lockstep rounds until EOS/max_tokens.

    Each round's wall time, the batched model step plus gate routing, is
    appended to transcript.round_s."""
    link_of: dict[int, object] = {}
    for user, link in users_links:
        for msg in receive_setup(user, link, transcript):
            model.handle_user_frame(msg)
        for sid, stream in user.streams.items():
            link_of[sid] = link
            # the rule goes to the controller directly, never over the link
            ctrl.open_stream(sid, stream.rule)
        for sid in _route_outward(user, ctrl, transcript, 0):
            _abort_stream(model, user, link, sid)

    for step in range(1, max_tokens + 1):
        pairs = [(sid, link_of[sid]) for sid in model.active_streams() if sid in link_of]
        if not pairs:
            break
        t0 = time.perf_counter()
        model_batch_step(model, pairs, controller=ctrl, step=step)
        for user, link in users_links:
            for sid in _route_outward(user, ctrl, transcript, step):
                _abort_stream(model, user, link, sid)
        transcript.round_s.append(time.perf_counter() - t0)
    return transcript


def run_sessions(
    model: ModelParty,
    ctrl: Controller,
    users_links: list[tuple[UserParty, object]],
    max_tokens: int,
    transcript: Transcript,
) -> Transcript:
    """Drive all sessions in lockstep token rounds until EOS/max_tokens.

    Every user must already have completed user_prefill; their setup
    messages are ingested here, then each round advances all active
    streams of all users in one batched model step.
    """
    return _drive(model, ctrl, users_links, max_tokens, transcript, _inproc_setup)


_USER_JOIN_S = 5.0  # how long a socket session waits for its user thread to end


def run_decode_session(
    user: UserParty,
    model: ModelParty,
    ctrl: Controller,
    max_tokens: int,
    transport: str = "inproc",
) -> Transcript:
    """Run one user's streams to completion and return the transcript.

    transport="inproc" exchanges frames through an in-process conduit;
    transport="socket" moves the same frames over a localhost TCP stream
    with the user party served from a thread.
    """
    transcript = Transcript(config=model.config)
    if transport == "inproc":
        link = InProcLink(user.handle_frame, transcript)
        return run_sessions(model, ctrl, [(user, link)], max_tokens, transcript)
    if transport != "socket":
        raise ValueError(f"unknown transport {transport!r}")

    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    setup_count = len(user.pending_setup)
    errors: list[Exception] = []

    def serve():
        try:
            conn, _ = listener.accept()
            with conn:
                serve_user_party(user, conn)
        except ConnectionError:
            pass  # the model side hung up first and raises its own error
        except Exception as exc:  # the model side only sees EOF; keep the cause
            errors.append(exc)

    def socket_setup(user, link, transcript):
        # the serve loop announces the prefill messages over the wire;
        # link.recv records them as u2m traffic
        return [deserialize(link.recv()) for _ in range(setup_count)]

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    client = socket.create_connection(("127.0.0.1", port))
    try:
        link = SocketLink(client, transcript)
        return _drive(model, ctrl, [(user, link)], max_tokens, transcript, socket_setup)
    finally:
        client.close()
        thread.join(timeout=_USER_JOIN_S)
        listener.close()
        if thread.is_alive():
            raise ProtocolError(f"user party thread still running after {_USER_JOIN_S} s")
        if errors:
            raise ProtocolError(f"user party failed: {errors[0]!r}") from errors[0]


# -- communication accounting -------------------------------------------


@dataclass
class CommReport:
    """Exact message/byte/scalar accounting of one transcript, per stream
    and decode round.

    A batched QUERY or PARTIAL carries every head of S streams; each
    stream is charged 1/S of its float64 scalars (a QUERY's u32 stream
    ids are not scalars). Per head, a stream's PARTIAL share is
    head_dim + 2 scalars — the weighted-value vector plus the softmax
    denominator and its running max; the running max rides along so the
    merge can rescale safely, which is why each round costs
    2*head_dim + 2 scalars per head rather than a bare 2*head_dim + 1.
    """

    query_scalars_per_round: int
    partial_scalars_per_round: int
    round_scalars_per_round: int
    final_scalars_per_round: int
    constant_per_round: bool
    total_bytes: int
    steps: int
    note: str = (
        "per-head partial = head_dim + 2 scalars (weighted values, denominator, "
        "running max); the running max is transmitted for numerically safe merging"
    )

    def expected_round_scalars(self, config: ModelConfig) -> int:
        return config.n_layers * config.n_heads * (2 * config.head_dim + 2)

    def to_text(self) -> str:
        lines = [
            f"decode rounds: {self.steps}",
            f"query scalars per stream-round: {self.query_scalars_per_round}",
            f"partial scalars per stream-round: {self.partial_scalars_per_round}",
            f"attention-exchange scalars per stream-round: {self.round_scalars_per_round}",
            f"final-distribution scalars per stream-round: {self.final_scalars_per_round}",
            f"constant across rounds: {self.constant_per_round}",
            f"total bytes on the wire: {self.total_bytes}",
            f"note: {self.note}",
        ]
        return "\n".join(lines)


def comm_accounting(transcript: Transcript) -> CommReport:
    """Tally the scalars each stream sends and receives per decode round
    and check that the per-round count is constant."""
    per_round: dict[tuple, dict] = {}
    # (step, session_id, layer) of a QUERY -> the streams it and its PARTIAL carry
    carried: dict[tuple, tuple] = {}
    total_bytes = 0
    for e in transcript.entries:
        total_bytes += e.nbytes
        if e.step < 1:
            continue
        if e.tag == TAG_FINAL_Y:
            kind, streams, scalars = "final", (e.session_id,), e.payload_len // 8
        elif e.tag == TAG_QUERY:
            kind, streams = "query", e.streams
            carried[(e.step, e.session_id, e.layer)] = streams
            scalars = (e.payload_len - 4 * len(streams)) // 8
        elif e.tag == TAG_PARTIAL:
            kind, streams = "partial", carried.get((e.step, e.session_id, e.layer), ())
            scalars = e.payload_len // 8
        else:
            continue
        for sid in streams:
            agg = per_round.setdefault((e.step, sid), {"query": 0, "partial": 0, "final": 0})
            agg[kind] += scalars // len(streams)

    queries = {agg["query"] for agg in per_round.values()}
    partials = {agg["partial"] for agg in per_round.values()}
    finals = {agg["final"] for agg in per_round.values()}
    constant = len(queries) <= 1 and len(partials) <= 1 and len(finals) <= 1
    steps = len({step for step, _ in per_round})
    return CommReport(
        query_scalars_per_round=next(iter(queries), 0),
        partial_scalars_per_round=next(iter(partials), 0),
        round_scalars_per_round=next(iter(queries), 0) + next(iter(partials), 0),
        final_scalars_per_round=next(iter(finals), 0),
        constant_per_round=constant,
        total_bytes=total_bytes,
        steps=steps,
    )
