"""Two-party decode: a model party that owns the weights and public KV
rows, user parties that own prompts and private KV rows, and a controller
that lets only ground-truth-matching tokens leave the boundary.

Per generated token, per layer, the model party projects the incoming
token, appends its K/V to the public partition, and sends one QUERY per
head. The user party answers each with a PARTIAL (weighted values,
denominator, running max); the model merges, finishes the layer, and
after the last layer returns the next-token distribution (FINAL_Y). The
user samples and emits the token both back to the model and outward
through the controller gate.

User parties never touch weights after prefill (the handle is released
and any later access faults), and private partitions never serialize:
the wire layer only moves ProtocolMessage frames.

Transport is an in-process frame conduit by default; the same frames run
over localhost stream sockets via SocketLink/serve_user_party.
"""

from __future__ import annotations

import hashlib
import itertools
import socket
import struct
import threading
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .model import ModelConfig, Weights, prefill, sample_token, trunk
from .numerics import stable_softmax_stats
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
    PUBLIC,
    KvPartition,
    PartialAttention,
    batched_public_partials,
    merge_partials,
    private_partial,
)
from .wire import (
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
    decode_token,
    deserialize,
    encode_f64s,
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
    "Transcript",
    "UserParty",
    "WeightsHandle",
    "WeightsReleasedError",
    "comm_accounting",
    "controller_gate",
    "model_batch_step",
    "new_stream_ids",
    "run_decode_session",
    "run_sessions",
    "serve_user_party",
    "user_prefill",
]

_stream_id_counter = itertools.count(1)


def new_stream_ids(count: int) -> list[int]:
    return [next(_stream_id_counter) for _ in range(count)]


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


class SocketLink:
    """Model-party end of a localhost stream socket carrying frames."""

    def __init__(self, sock: socket.socket, transcript: Transcript | None = None):
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
    then answer the model's frames until EOF."""
    for msg in user.pending_setup:
        sock.sendall(serialize(msg))
    user.pending_setup = []
    while True:
        frame = read_frame(sock)
        if frame is None:
            return
        for reply in user.handle_frame(frame):
            sock.sendall(reply)


# -- control payloads ---------------------------------------------------

_SETUP = struct.Struct("<I")  # prompt length


def encode_setup(prompt_len: int) -> bytes:
    return _SETUP.pack(prompt_len)


def decode_setup(payload: bytes) -> int:
    if len(payload) != _SETUP.size:
        raise ProtocolError("bad stream-setup payload")
    return _SETUP.unpack(payload)[0]


# -- user party ---------------------------------------------------------


@dataclass
class _UserStream:
    stream_id: int
    private: KvPartition
    tokens: list
    sample_key: int  # digest of the stream's virtual prompt
    alive: bool = True


def _prompt_digest(tokens) -> int:
    """A 64-bit key of a token sequence; the same prompt always gets the
    same key, whatever else the party decodes alongside it."""
    data = np.asarray(tokens, dtype="<u8").tobytes()
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


class UserParty:
    """Holds the prompt-side secrets of one user: virtual prompts, the
    authentic index, and per-stream private KV partitions.

    During decode the party answers QUERY frames from its private rows and
    samples from FINAL_Y distributions; it needs no weights, and its
    weights handle is released at the end of prefill.
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

    def _sample(self, stream: _UserStream, logits: np.ndarray) -> int:
        """The stream's next token. A sampled draw is keyed by the sample
        seed, the stream's prompt and its token count, so a stream samples
        the same tokens however many decoys or other users share the run."""
        if self.temperature is None:
            return sample_token(logits)
        seed = [self.sample_seed, stream.sample_key, len(stream.tokens)]
        return sample_token(logits, self.temperature, seed=seed)

    def authentic_response(self) -> list[int]:
        """Winnow: the response stream at the PRF-derived index."""
        idx = self.vps.idx if self.vps is not None else 0
        return winnow([s.tokens for s in self.streams.values()], idx)

    def handle_frame(self, frame: bytes) -> list[bytes]:
        msg = deserialize(frame)
        stream = self.streams.get(msg.session_id)
        if stream is None or not stream.alive:
            raise ProtocolError(f"frame for unknown or dead stream {msg.session_id}")
        if msg.tag == TAG_QUERY:
            q = decode_f64s(msg.payload)
            pa = private_partial(q, stream.private, msg.layer, msg.head)
            return [_frame(TAG_PARTIAL, msg.session_id, msg.layer, msg.head, pa.scalars())]
        if msg.tag == TAG_FINAL_Y:
            logits = decode_f64s(msg.payload)
            token = self._sample(stream, logits)
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
    weights = party.weights_handle.get()
    party.config = weights.config

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

    messages = []
    for stream_id, tokens in zip(stream_ids, prompts):
        n = len(tokens)
        cache, logits = prefill(weights, list(tokens))
        # copy the prompt rows so the max_seq-row cache can be freed
        private = KvPartition(PRIVATE, k=cache.k[:, :, :n].copy(), v=cache.v[:, :, :n].copy())
        stream = _UserStream(stream_id, private, tokens=[], sample_key=_prompt_digest(tokens))
        first = party._sample(stream, logits)
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


class Controller:
    """Token inspector at the boundary: only TOKEN frames whose value
    matches the model party's ground truth may exit.

    The very first token of each stream is produced by the user party
    during prefill, before the model has any ground truth for it; exactly
    one unverified token per stream is let through. Under non-greedy
    sampling (mode="support") the gate checks membership in the
    positive-probability support instead of exact equality.

    The model party hands over each round's logits through expect(); the
    controller derives the check from them itself.
    """

    def __init__(self, mode: str = "exact"):
        if mode not in ("exact", "support"):
            raise ValueError("mode must be 'exact' or 'support'")
        self.mode = mode
        self.expected: dict[int, deque] = {}
        self.first_passed: set[int] = set()
        self.killed: dict[int, str] = {}

    def open_stream(self, stream_id: int):
        self.expected.setdefault(stream_id, deque())

    def register_expected(self, stream_id: int, token: int, support=None):
        self.expected[stream_id].append((token, support))

    def expect(self, stream_id: int, logits: np.ndarray):
        """Queue the ground truth for the stream's next token: the argmax
        of logits, plus the positive-probability support in support mode."""
        support = None
        if self.mode == "support":
            support = set(np.flatnonzero(stable_softmax_stats(logits).weights > 0).tolist())
        self.register_expected(stream_id, sample_token(logits), support)

    def kill(self, stream_id: int, reason: str):
        self.killed[stream_id] = reason

    def gate(self, outbound: ProtocolMessage) -> GateDecision:
        if outbound.tag != TAG_TOKEN:
            return GateDecision(False, f"non-token frame ({outbound.tag_name})")
        stream_id = outbound.session_id
        if stream_id in self.killed:
            return GateDecision(False, "session killed")
        if stream_id not in self.expected:
            return GateDecision(False, "unknown session")
        try:
            token = decode_token(outbound.payload)
        except Exception:
            self.kill(stream_id, "malformed token payload")
            return GateDecision(False, "malformed token payload")
        queue = self.expected[stream_id]
        if not queue:
            if stream_id not in self.first_passed:
                self.first_passed.add(stream_id)
                return GateDecision(True, "first token (pre-decode)")
            self.kill(stream_id, "token without ground truth")
            return GateDecision(False, "token without ground truth")
        expected_token, support = queue.popleft()
        if self.mode == "support" and support is not None:
            if token in support:
                return GateDecision(True, "in support")
        elif token == expected_token:
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
    # public K/V live in preallocated (n_layers, n_heads, rows, head_dim)
    # buffers; the partition is a view of the rows written so far
    kbuf: np.ndarray = field(repr=False)
    vbuf: np.ndarray = field(repr=False)
    public: KvPartition = None
    public_len: int = 0
    pending_token: int | None = None
    tokens: list = field(default_factory=list)
    done: bool = False

    def open_round(self):
        """Point the public partition at the rows of every earlier token
        plus the one this round appends."""
        n = self.public_len + 1
        self.public = KvPartition(PUBLIC, k=self.kbuf[:, :, :n], v=self.vbuf[:, :, :n])

    def append_public(self, layer: int, k_heads: np.ndarray, v_heads: np.ndarray):
        """Write this round's K/V of one layer, for all heads."""
        self.kbuf[layer, :, self.public_len] = k_heads
        self.vbuf[layer, :, self.public_len] = v_heads


class ModelParty:
    """Owns the weights and, per stream, only public state: generated
    tokens and their KV rows. Never sees a private K/V row.

    stop_at_eos=False decodes fixed-length responses (bench workloads).
    """

    def __init__(self, weights: Weights, stop_at_eos: bool = True):
        self.weights = weights
        self.config = weights.config
        self.stop_at_eos = stop_at_eos
        self.streams: dict[int, _ModelStream] = {}

    def handle_user_frame(self, msg: ProtocolMessage):
        c = self.config
        if msg.tag == TAG_CONTROL:
            if msg.session_id in self.streams:
                raise ProtocolError(f"stream {msg.session_id} registered twice")
            prompt_len = decode_setup(msg.payload)
            shape = (c.n_layers, c.n_heads, max(c.max_seq - prompt_len, 1), c.head_dim)
            self.streams[msg.session_id] = _ModelStream(
                stream_id=msg.session_id,
                prompt_len=prompt_len,
                pos=prompt_len,
                kbuf=np.zeros(shape),
                vbuf=np.zeros(shape),
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


def _expect(link, tag: int, stream_id: int, layer: int = 0, head: int = 0) -> bytes:
    """The payload of the next reply, which must be tag for stream_id/layer/head."""
    msg = deserialize(link.recv())
    if (msg.tag, msg.session_id, msg.layer, msg.head) != (tag, stream_id, layer, head):
        raise ProtocolError(
            f"out-of-order reply: expected {TAG_NAMES[tag]} {stream_id}/{layer}/{head}, "
            f"got {msg.tag_name} {msg.session_id}/{msg.layer}/{msg.head}"
        )
    return msg.payload


def _expect_partial(link, stream_id: int, layer: int, head: int) -> PartialAttention:
    scalars = decode_f64s(_expect(link, TAG_PARTIAL, stream_id, layer, head))
    return PartialAttention(a=scalars[:-2], gamma=float(scalars[-2]), m=float(scalars[-1]))


def model_batch_step(
    model: ModelParty,
    sessions: list[tuple[int, object]],
    controller: Controller | None = None,
    step: int = 1,
) -> dict[int, int]:
    """Advance every listed (stream_id, link) pair by one token in one
    batched pass.

    The streams run through the model trunk stacked; at each layer the
    attention callback appends the public K/V, sends one QUERY per stream
    and head, collects the PARTIAL replies, and merges them with the
    public partials. The resulting tokens are identical to running each
    stream alone. Returns the token each user party fed back.
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
        st.open_round()
    for _, link in live:
        link.step = step

    def attend(layer, q, k, v):
        for i, st in enumerate(states):
            st.append_public(layer, k[:, i], v[:, i])
        for i, (sid, link) in enumerate(live):
            for head in range(c.n_heads):
                link.send(_frame(TAG_QUERY, sid, layer, head, q[head, i]))
        pvt = [
            [_expect_partial(link, sid, layer, head) for head in range(c.n_heads)]
            for sid, link in live
        ]
        out = np.empty_like(q)
        for head in range(c.n_heads):
            pub = batched_public_partials(q[head], [st.public for st in states], layer, head)
            out[head] = merge_partials([p[head] for p in pvt], pub)
        return out

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
            if msg.tag == TAG_CONTROL:
                ctrl.open_stream(msg.session_id)
        for sid in user.streams:
            link_of[sid] = link
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
    """Exact message/byte/scalar accounting of one transcript.

    rows: (step, stream, layer, direction, messages, scalars, bytes) for
    the attention exchange (QUERY and PARTIAL frames). A per-head PARTIAL
    carries head_dim + 2 scalars — the weighted-value vector plus the
    softmax denominator and its running max; the running max rides along
    so the merge can rescale safely, which is why each round costs
    2*head_dim + 2 scalars per head rather than a bare 2*head_dim + 1.
    """

    rows: list
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
    """Tally per-token, per-layer, per-direction traffic of the decode
    rounds and check that the per-round scalar count is constant."""
    per_cell: dict[tuple, list] = {}
    per_round: dict[tuple, dict] = {}
    total_bytes = 0
    for e in transcript.entries:
        total_bytes += e.nbytes
        if e.step < 1 or e.tag not in (TAG_QUERY, TAG_PARTIAL, TAG_FINAL_Y):
            continue
        scalars = e.payload_len // 8
        key = (e.step, e.session_id)
        agg = per_round.setdefault(key, {"query": 0, "partial": 0, "final": 0})
        if e.tag == TAG_QUERY:
            agg["query"] += scalars
        elif e.tag == TAG_PARTIAL:
            agg["partial"] += scalars
        else:
            agg["final"] += scalars
        if e.tag in (TAG_QUERY, TAG_PARTIAL):
            cell = per_cell.setdefault(
                (e.step, e.session_id, e.layer, e.direction), [0, 0, 0]
            )
            cell[0] += 1
            cell[1] += scalars
            cell[2] += e.nbytes

    rows = [
        (step, stream, layer, direction, msgs, scalars, nbytes)
        for (step, stream, layer, direction), (msgs, scalars, nbytes) in sorted(
            per_cell.items()
        )
    ]
    queries = {agg["query"] for agg in per_round.values()}
    partials = {agg["partial"] for agg in per_round.values()}
    finals = {agg["final"] for agg in per_round.values()}
    constant = len(queries) <= 1 and len(partials) <= 1 and len(finals) <= 1
    steps = len({step for step, _ in per_round})
    return CommReport(
        rows=rows,
        query_scalars_per_round=next(iter(queries), 0),
        partial_scalars_per_round=next(iter(partials), 0),
        round_scalars_per_round=next(iter(queries), 0) + next(iter(partials), 0),
        final_scalars_per_round=next(iter(finals), 0),
        constant_per_round=constant,
        total_bytes=total_bytes,
        steps=steps,
    )
