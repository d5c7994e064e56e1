"""Two-party decode: a model party that owns the weights and public KV
rows, user parties that own prompts and private KV rows, and a controller
that lets only ground-truth-matching tokens leave the boundary.

Per generated token, per layer, the model party projects the incoming
tokens of every live stream, appends their K/V to its public-KV slot
arena, and sends each user link one QUERY carrying every head of every
stream of that user. The user party answers with one PARTIAL (per stream
and head: weighted values, denominator, running max), computed in one
kernel call over its private rows; the model merges it with its
own public partials and finishes the layer. After the last layer the
controller draws each stream's token with its committed rule, and the
model party sends it as a TOKEN that the user keeps, queues outward
through the controller gate and echoes back. No logits leave the model
party; the user party draws only token 0, from its prefill logits.

User parties never touch weights after prefill (the handle is released
and any later access faults), and their private K/V rows never
serialize: the wire layer only moves ProtocolMessage frames.

run_sessions serves any number of users over an in-process frame conduit
or, with the same frames, one localhost stream socket per user.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import socket
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from .model import ModelConfig, PromptSetKv, Weights, prefill, sample_token, trunk
from .obfuscation import (
    ObfuscationConfig,
    TaggedPrompt,
    VirtualPromptSet,
    build_virtual_prompts,
    multi_segment_gqs,
    winnow,
)
from .partition import _arena_rows, _slot_attention, _softmax_partial, merge_partial_arrays
# perfbench's tracer wraps these per-head kernels by their names in this
# module; the batched exchange no longer calls them
from .partition import batched_public_partials, private_partial  # noqa: F401
from .wire import (
    TAG_ABORT,
    TAG_CONTROL,
    TAG_NAMES,
    TAG_PARTIAL,
    TAG_QUERY,
    TAG_TOKEN,
    FrameError,
    ProtocolError,
    ProtocolMessage,
    decode_partial,
    decode_query,
    decode_setup,
    decode_token,
    deserialize,
    encode_partial,
    encode_query,
    encode_setup,
    encode_token,
    parse_header,
    read_frame,
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
    "run_sessions",
    "serve_user_party",
    "user_prefill",
]


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

    direction: str  # m2u or u2m
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
    """What crossed the links (entries, one per frame) and what the gate
    decided (gate_log, one per outward token); the outward TOKENs the
    gate sees never cross a link, so they are not entries."""

    config: ModelConfig
    entries: list = field(default_factory=list)
    tokens: dict = field(default_factory=dict)  # stream -> gate-passed tokens
    gate_log: list = field(default_factory=list)  # (step, stream, passed, reason)
    round_s: list = field(default_factory=list)  # wall seconds of each decode round

    def record(self, direction: str, step: int, frame: bytes):
        self.entries.append(TranscriptEntry(direction, step, *parse_header(frame), len(frame)))

    def total_bytes(self) -> int:
        """Bytes the links carried."""
        return sum(e.nbytes for e in self.entries)

    def dump(self) -> str:
        frames = [
            f"{e.direction} {e.tag_name} {e.session_id} {e.layer} {e.head} {e.nbytes}"
            for e in self.entries
        ]
        gates = [
            f"gate {step} {sid} {'pass' if passed else 'block'} {reason}"
            for step, sid, passed, reason in self.gate_log
        ]
        return "\n".join(frames + gates)


# -- links --------------------------------------------------------------


class InProcLink:
    """Synchronous in-process conduit: sending a frame hands it to the
    peer handler and queues the replies for recv()."""

    def __init__(self, handler, transcript: Transcript):
        self._handler = handler
        self._pending = deque()
        self.transcript = transcript
        self.step = 0

    def send(self, frame: bytes):
        self.transcript.record("m2u", self.step, frame)
        try:
            self._pending.extend(self._handler(frame))
        except Exception as exc:  # as over a socket: typed, with the cause kept
            raise ProtocolError(f"user party failed: {exc!r}") from exc

    def recv(self) -> bytes:
        if not self._pending:
            raise ProtocolError("expected a reply frame, peer sent none")
        frame = self._pending.popleft()
        self.transcript.record("u2m", self.step, frame)
        return frame


def _no_delay(sock: socket.socket):
    """Send small frames at once: without TCP_NODELAY, Nagle's algorithm
    holds each reply back until the peer's delayed ACK arrives."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


_LINK_DEADLINE_S = 2.0  # how long a socket link waits on a silent peer


class SocketLink:
    """Model-party end of a localhost stream socket carrying frames. A
    send, or a receive call, that waits _LINK_DEADLINE_S on the peer, or
    fails in any other way (a reset, say), raises ProtocolError."""

    def __init__(self, sock: socket.socket, transcript: Transcript):
        _no_delay(sock)
        sock.settimeout(_LINK_DEADLINE_S)
        self._sock = sock
        self.transcript = transcript
        self.step = 0

    def send(self, frame: bytes):
        self.transcript.record("m2u", self.step, frame)
        try:
            self._sock.sendall(frame)
        except TimeoutError as exc:
            raise ProtocolError(f"peer took no frame within {_LINK_DEADLINE_S} s") from exc
        except OSError as exc:
            raise ProtocolError(f"socket link failed: {exc!r}") from exc

    def recv(self) -> bytes:
        try:
            frame = read_frame(self._sock)
        except TimeoutError as exc:
            raise ProtocolError(f"no reply frame within {_LINK_DEADLINE_S} s") from exc
        except OSError as exc:
            raise ProtocolError(f"socket link failed: {exc!r}") from exc
        if frame is None:
            raise ProtocolError("peer closed the connection")
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


# -- user party ---------------------------------------------------------


@dataclass(frozen=True)
class TokenRule:
    """How a stream turns logits into its token number t: the argmax, or
    with a temperature a draw seeded by (seed, key, t). The user party
    draws token 0 with it; the controller, to which it is committed, draws
    every later token. key is a digest of the stream's virtual prompt."""

    temperature: float | None = None
    seed: int = 0
    key: int = 0

    def token(self, logits: np.ndarray, t: int) -> int:
        if self.temperature is None:
            return sample_token(logits)
        return sample_token(logits, self.temperature, seed=[self.seed, self.key, t])


@dataclass
class _UserStream:
    index: int  # the stream's row in the party's private K/V arrays
    tokens: list
    rule: TokenRule
    alive: bool = True
    layer: int = 0  # the layer of its next QUERY; n_layers when a TOKEN is next


def _prompt_digest(tokens) -> int:
    """A 64-bit key of a token sequence; the same prompt always gets the
    same key, whatever else the party decodes alongside it."""
    data = np.asarray(tokens, dtype="<u8").tobytes()
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


class UserParty:
    """Holds the prompt-side secrets of one user: virtual prompts, the
    authentic index, and the private K/V rows of every stream.

    The virtual prompts share one length n and agree on their first p
    tokens, up to the first tagged span. prefill runs them as one set, and
    the party keeps the model.PromptSetKv it returns as kv: the p shared
    rows once in kv.shared_k/shared_v (p is 0 for a single prompt), and
    stream i's n - p rows after them in kv.private_k[i]/private_v[i]. It
    holds p + streams * (n - p) rows per layer and head instead of
    streams * n. A batched QUERY is answered with one kernel call that
    reads the shared rows once for all of its streams. During decode the
    party answers QUERY frames from these rows and keeps, queues outward
    and echoes each TOKEN, the controller's draw; it sees no logits and
    draws only token 0, at prefill, which the gate passes unchecked. It
    needs no weights, and its weights handle is released after prefill.
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
        if not 0 <= user_id < 2**16:
            raise ValueError(f"stream ids need 0 <= user_id < 2^16, got {user_id}")
        self.user_id = user_id
        self.weights_handle = weights_handle
        self.oracle = oracle
        self.prf_key = prf_key
        self.temperature = temperature
        self.sample_seed = sample_seed
        self.config: ModelConfig | None = None
        self.streams: dict[int, _UserStream] = {}
        self.kv: PromptSetKv | None = None
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
        """Answer one frame of the round schedule: per round, a QUERY names
        each live stream at layers 0 to n_layers - 1 in turn, then one
        TOKEN per stream ends the round; it is kept, queued outward and
        echoed as the frame received. An ABORT ends the stream. Any other
        frame raises."""
        msg = deserialize(frame)
        stream = self._live_stream(msg.session_id)
        if msg.tag == TAG_QUERY:
            return [self._answer_query(msg)]
        if msg.tag == TAG_TOKEN:
            if len(msg.payload) != 8 or decode_token(msg.payload) >= self.config.vocab_size:
                raise ProtocolError(
                    f"TOKEN for stream {msg.session_id} is not one token id below "
                    f"vocab_size = {self.config.vocab_size}"
                )
            if stream.layer != self.config.n_layers:
                raise ProtocolError(f"TOKEN for stream {msg.session_id} at layer "
                                    f"{stream.layer} of {self.config.n_layers}")
            stream.layer = 0
            stream.tokens.append(decode_token(msg.payload))
            self._queue_outward(msg)
            return [frame]
        if msg.tag == TAG_ABORT:
            stream.alive = False
            return []
        raise ProtocolError(f"user party cannot handle {msg.tag_name} frames")

    def _answer_query(self, msg: ProtocolMessage) -> bytes:
        """The PARTIAL for a batched QUERY: the private partial of every
        head of every named stream, in one kernel call over the shared
        rows and each stream's own."""
        c, count = self.config, msg.head
        if msg.layer >= c.n_layers:
            raise ProtocolError(f"QUERY for layer {msg.layer} of a {c.n_layers}-layer model")
        ids, qs = decode_query(msg.payload, count, c.n_heads * c.head_dim)
        if ids[0] != msg.session_id or len(set(ids.tolist())) != count:
            raise ProtocolError(
                f"QUERY {msg.session_id} names the streams {ids.tolist()}: the header "
                "must name the first, and no stream may appear twice"
            )
        streams = [self._live_stream(int(sid)) for sid in ids]
        for sid, stream in zip(ids, streams):
            if stream.layer != msg.layer:
                raise ProtocolError(f"QUERY for layer {msg.layer} names stream {sid} "
                                    f"at layer {stream.layer} of {c.n_layers}")
            stream.layer += 1
        arena = _arena_rows([stream.index for stream in streams])
        kv, shared = self.kv, None
        if kv.shared_k.shape[2]:
            shared = (kv.shared_k[msg.layer], kv.shared_v[msg.layer])
        partial = _softmax_partial(
            qs.reshape(count, c.n_heads, c.head_dim),
            kv.private_k[arena, msg.layer],
            kv.private_v[arena, msg.layer],
            prefix=shared,
        )
        return serialize(ProtocolMessage(TAG_PARTIAL, msg.session_id, msg.layer, count,
                                         encode_partial(*partial)))


def user_prefill(
    party: UserParty,
    prompt: TaggedPrompt,
    config: ObfuscationConfig,
) -> list[ProtocolMessage]:
    """Build the virtual prompts, prefill them as one set (the rows they
    share run and are kept once), release the weights, and emit one
    CONTROL per stream: its prompt length and token 0, which the party
    keeps and queues outward. Stream i of user u has id u * 2**16 + i.

    Raises InsufficientObfuscationError (the obfuscation abort) when fewer
    than lambda_min decoys exist; the weights handle stays valid in that
    case since no stream started.
    """
    if party.streams:
        raise ValueError("a user party prefills once")
    weights = party.weights_handle.get()
    party.config = weights.config

    if prompt.spans and config.lambda_max > 0 and config.epsilon > 0:
        fake_sets = multi_segment_gqs(prompt, config, party.oracle)
    else:
        fake_sets = []
    party.vps = build_virtual_prompts(prompt, fake_sets, config, party.user_id)
    prompts = party.vps.prompts

    party.kv, logits = prefill(weights, prompts)
    messages = []
    for index, (tokens, row) in enumerate(zip(prompts, logits)):
        stream_id = party.user_id * 2**16 + index
        rule = TokenRule(party.temperature, party.sample_seed, _prompt_digest(tokens))
        token = rule.token(row, 0)
        party.streams[stream_id] = _UserStream(index, tokens=[token], rule=rule)
        party._queue_outward(ProtocolMessage(TAG_TOKEN, stream_id, payload=encode_token(token)))
        messages.append(ProtocolMessage(TAG_CONTROL, stream_id,
                                        payload=encode_setup(len(tokens), token)))

    party.weights_handle.release()
    party.pending_setup = list(messages)
    return messages


# -- controller ---------------------------------------------------------


@dataclass(frozen=True)
class GateDecision:
    passed: bool
    reason: str


_PREFILL = -1  # a stream's owed slot until its first draw: token 0 passes unchecked


@dataclass
class _GateStream:
    rule: TokenRule
    decoded: int = 0  # tokens decoded so far; the prefill token is number 0
    owed: int | None = _PREFILL  # the next outward token; None once it went out


class Controller:
    """Token inspector at the boundary: each stream owes the gate one
    token at a time, and only that token may exit.

    Each stream is opened with the token rule its user committed (greedy
    when none is given). expect() draws each later token from a round's
    logits with it, and the model party continues with that draw. The
    user party draws token 0 at prefill, before the model has any ground
    truth; a stream owes it unchecked only until its first draw.
    """

    def __init__(self):
        self.streams: dict[int, _GateStream] = {}
        self.killed: dict[int, str] = {}  # stream -> the reason of its first kill

    def open_stream(self, stream_id: int, rule: TokenRule = TokenRule()):
        """Start the stream's gate afresh, dropping any earlier kill of it."""
        self.streams[stream_id] = _GateStream(rule)
        self.killed.pop(stream_id, None)

    def expect(self, stream_id: int, logits: np.ndarray) -> int:
        """Draw, owe and return the stream's next token: the committed rule
        applied to logits at its count. Still owing a draw kills the stream."""
        stream = self.streams[stream_id]
        if stream.owed not in (None, _PREFILL):
            self.killed.setdefault(stream_id, "draw withheld")
        stream.decoded += 1
        stream.owed = stream.rule.token(logits, stream.decoded)
        return stream.owed


def controller_gate(ctrl: Controller, outbound: ProtocolMessage) -> GateDecision:
    """The boundary policy for one outbound message: a TOKEN passes if it
    is the one its open stream owes, and any other kills the stream."""
    if outbound.tag != TAG_TOKEN:
        return GateDecision(False, f"non-token frame ({outbound.tag_name})")
    stream_id = outbound.session_id
    if stream_id in ctrl.killed:
        return GateDecision(False, "session killed")
    stream = ctrl.streams.get(stream_id)
    if stream is None:
        return GateDecision(False, "unknown session")
    owed, stream.owed = stream.owed, None
    try:
        token = decode_token(outbound.payload)
    except FrameError:
        reason = "malformed token payload"
    else:
        if owed == _PREFILL:
            return GateDecision(True, "first token (pre-decode)")
        if token == owed:
            return GateDecision(True, "matches ground truth")
        reason = "token without ground truth" if owed is None else "token mismatch"
    ctrl.killed[stream_id] = reason
    return GateDecision(False, reason)


# -- model party --------------------------------------------------------


@dataclass
class _ModelStream:
    prompt_len: int
    pos: int  # absolute position of the next token to process
    # the stream's slot in the model party's public-KV arena, whose first
    # pos - prompt_len rows hold the K/V of every token processed so far
    slot: int
    pending_token: int  # the next token to process
    aborted: bool = False  # set when the controller kills the stream


class ModelParty:
    """Owns the weights and, per stream, only public state: its position,
    its pending token and the KV rows of its processed tokens. Never sees
    a private K/V row. One CONTROL frame per stream registers it.

    The public K/V of every stream live in one slot arena, public_k and
    public_v of shape (slots, n_layers, n_heads, rows, head_dim), one slot
    per registered stream in registration order. rows is max_seq minus
    the shortest registered prompt, the most rows any stream can write.
    Slots grow by doubling; growth copies only the rows written so far.
    Rounds attend over it with partition._slot_attention, as the bench's
    monolithic batch does over its own stacked caches. decodes() is the
    one rule for which streams a round advances.

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
        written = max((s.pos - s.prompt_len for s in self.streams.values()), default=0)
        k, v = np.zeros(shape), np.zeros(shape)
        k[:slot, :, :, :written] = self.public_k[:slot, :, :, :written]
        v[:slot, :, :, :written] = self.public_v[:slot, :, :, :written]
        self.public_k, self.public_v = k, v
        return slot

    def handle_user_frame(self, msg: ProtocolMessage):
        """Register the stream a user party's CONTROL sets up, with its
        prompt length and token 0, the token the party drew at prefill;
        every later token is the controller's. Takes no other frame."""
        if msg.tag != TAG_CONTROL:
            raise ProtocolError(f"model party cannot handle {msg.tag_name} frames")
        sid = msg.session_id
        if sid in self.streams:
            raise ProtocolError(f"stream {sid} registered twice")
        prompt_len, token = decode_setup(msg.payload)
        if not 1 <= prompt_len <= self.config.max_seq:
            raise ProtocolError(
                f"stream {sid} set up with a {prompt_len}-token prompt, "
                f"outside [1, max_seq={self.config.max_seq}]"
            )
        if token >= self.config.vocab_size:
            raise ProtocolError(
                f"stream {sid} sent token {token}, outside the "
                f"{self.config.vocab_size}-token vocabulary"
            )
        slot = self._open_slot(prompt_len)
        self.streams[sid] = _ModelStream(prompt_len, prompt_len, slot, token)

    def decodes(self, stream_id: int) -> bool:
        """Whether the next round advances the stream: it is registered, has
        a row below max_seq, no abort mark and no EOS when stopping there."""
        s = self.streams.get(stream_id)
        if s is None or s.aborted:
            return False
        at_eos = self.stop_at_eos and s.pending_token == self.config.eos_token
        return s.pos < self.config.max_seq and not at_eos

    def active_streams(self) -> list[int]:
        return [sid for sid in self.streams if self.decodes(sid)]


# On OpenBLAS 0.3.31 a product's row bits depend on its row count M for
# M < 4 (M = 1 alone; M = 2-3 for the pinned model's 1024x256 product) and
# not from 4 up (test_model.TestRowCount), so a round run on at least this
# many trunk rows gives each stream the same logits whatever shares it.
_MIN_ROUND_ROWS = 4


def _query_frame(stream_ids: list[int], layer: int, qs: np.ndarray) -> bytes:
    """The batched QUERY naming stream_ids, with their (S, n_heads,
    head_dim) queries."""
    return serialize(ProtocolMessage(
        tag=TAG_QUERY, session_id=stream_ids[0], layer=layer, head=len(stream_ids),
        payload=encode_query(stream_ids, qs),
    ))


def _expect(frame: bytes, tag: int, stream_id: int, layer: int = 0, head: int = 0) -> ProtocolMessage:
    """The reply frame, which must be tag for stream_id/layer/head."""
    msg = deserialize(frame)
    if (msg.tag, msg.session_id, msg.layer, msg.head) != (tag, stream_id, layer, head):
        raise ProtocolError(
            f"out-of-order reply: expected {TAG_NAMES[tag]} {stream_id}/{layer}/{head}, "
            f"got {msg.tag_name} {msg.session_id}/{msg.layer}/{msg.head}"
        )
    return msg


def model_batch_step(
    model: ModelParty,
    sessions: list[tuple[int, object]],
    controller: Controller,
    step: int = 1,
) -> None:
    """Advance every listed (stream_id, link) pair by one token in one
    batched pass.

    The streams run through the model trunk stacked, padded to at least
    _MIN_ROUND_ROWS rows with copies of the last stream's row; padded rows
    never reach a QUERY, the arena or the controller. At each layer the
    attention callback sends one QUERY per run of consecutive streams on
    one link, writes the public K/V into the arena and computes every
    stream's public partial in one kernel call (partition._slot_attention),
    and merges them with the PARTIAL replies. The controller draws each
    stream's token from the logits, and the stream continues with that
    draw once the user party's TOKEN reply echoes it.

    The reply rule: a QUERY is answered by one PARTIAL with the QUERY's
    session id, layer and count; a TOKEN is answered by the same frame.
    Any other reply raises. A listed stream that ModelParty.decodes
    refuses raises before any frame is sent.
    """
    c = model.config
    for sid, _ in sessions:
        if not model.decodes(sid):
            raise ProtocolError(f"stream {sid} is listed but does not decode")
    if not sessions:
        return
    states = [model.streams[sid] for sid, _ in sessions]
    runs, start = [], 0
    for link, run in itertools.groupby(sessions, key=lambda pair: pair[1]):
        link.step = step
        sids = [sid for sid, _ in run]
        runs.append((link, slice(start, start + len(sids)), sids))
        start += len(sids)
    public = _slot_attention(
        model.public_k, model.public_v, [st.slot for st in states],
        np.array([st.pos - st.prompt_len for st in states]),
    )
    n = len(states)
    padded = np.minimum(np.arange(max(n, _MIN_ROUND_ROWS)), n - 1)  # trunk row -> stream

    def attend(layer, q, k, v):
        # (streams, heads, head_dim), the wire's order
        qs, ks, vs = (a[:, :n].transpose(1, 0, 2) for a in (q, k, v))
        for link, rows, sids in runs:
            link.send(_query_frame(sids, layer, qs[rows]))
        # the public side runs while socket peers compute their partials
        pub = public(layer, qs, ks, vs)
        replies = [
            decode_partial(_expect(link.recv(), TAG_PARTIAL, sids[0], layer, len(sids)),
                           c.n_heads, c.head_dim)
            for link, _, sids in runs
        ]
        a, gamma, m = (np.concatenate(parts) for parts in zip(*replies))
        out = merge_partial_arrays(a, gamma, m, *pub)[padded]
        return out.transpose(1, 0, 2)

    logits = trunk(model.weights, np.array([st.pending_token for st in states])[padded],
                   np.array([st.pos for st in states])[padded], attend)
    for (sid, link), st, row in zip(sessions, states, logits):
        token = controller.expect(sid, row)
        sent = serialize(ProtocolMessage(TAG_TOKEN, sid, payload=encode_token(token)))
        link.send(sent)
        reply = link.recv()
        if reply != sent:  # decoded only to name the fault
            echo = _expect(reply, TAG_TOKEN, sid).payload
            got = f"token {decode_token(echo)}" if len(echo) == 8 else f"a {len(echo)}-byte payload"
            raise ProtocolError(f"stream {sid} echoed {got}, not the controller's draw {token}")
        st.pending_token = token
        st.pos += 1


# -- session drivers ----------------------------------------------------


def _route_outward(user: UserParty, link, sids: list, link_of: dict, model: ModelParty,
                   ctrl: Controller, transcript: Transcript, step: int):
    """Push the user party's outward messages through the gate, logging
    each decision in transcript.gate_log. A message naming a stream of
    another link is blocked before the gate and kills nothing. Then every
    killed stream of sids, the link's streams, is stopped and aborted
    once, silent or not."""
    for msg in user.take_outward():
        sid = msg.session_id
        if link_of.get(sid, link) is not link:
            decision = GateDecision(False, "stream of another user")
        else:
            decision = controller_gate(ctrl, msg)
        transcript.gate_log.append((step, sid, decision.passed, decision.reason))
        if decision.passed:
            transcript.tokens.setdefault(sid, []).append(decode_token(msg.payload))
    for sid in sids:
        if sid in ctrl.killed and model.decodes(sid):
            model.streams[sid].aborted = True
            link.send(serialize(ProtocolMessage(TAG_ABORT, sid)))


_USER_JOIN_S = 5.0  # how long a socket session waits for its user threads to end


def _inproc_link(user: UserParty, transcript: Transcript) -> InProcLink:
    """An in-process link whose first replies are the user's setup
    frames, as serve_user_party writes them first on a socket."""
    link = InProcLink(user.handle_frame, transcript)
    link._pending.extend(map(serialize, user.pending_setup))
    user.pending_setup = []
    return link


def _socket_links(users, transcript, stack) -> list[SocketLink]:
    """One localhost TCP link per user, each user party served by
    serve_user_party on its own thread. Leaving the stack closes every
    link, joins every thread within _USER_JOIN_S, and raises the first
    user-side error as the ProtocolError's cause."""
    threads: list[threading.Thread] = []
    errors: list[Exception] = []

    def serve(user, conn):
        try:
            with conn:
                serve_user_party(user, conn)
        except ConnectionError:
            pass  # the model side hung up first and raises its own error
        except Exception as exc:  # the model side only sees EOF; keep the cause
            errors.append(exc)

    def join():
        deadline = time.monotonic() + _USER_JOIN_S
        for thread in threads:
            thread.join(max(deadline - time.monotonic(), 0))
        if any(thread.is_alive() for thread in threads):
            raise ProtocolError(f"user party thread still running after {_USER_JOIN_S} s")
        if errors:
            raise ProtocolError(f"user party failed: {errors[0]!r}") from errors[0]

    stack.callback(join)  # registered first, so it runs after every link is closed
    links = []
    with socket.create_server(("127.0.0.1", 0)) as listener:
        for user in users:
            client = stack.enter_context(socket.create_connection(listener.getsockname()[:2]))
            conn, _ = listener.accept()
            threads.append(threading.Thread(target=serve, args=(user, conn), daemon=True))
            threads[-1].start()
            links.append(SocketLink(client, transcript))
    return links


def run_sessions(
    model: ModelParty, ctrl: Controller, users: list[UserParty], max_tokens: int,
    transport: str = "inproc",
) -> Transcript:
    """Drive every prefilled user's streams in lockstep token rounds until
    EOS/max_tokens, and return the transcript of what crossed the links.

    Each user gets one link: an in-process conduit (transport="inproc"),
    or a localhost TCP stream with the user party served from a thread
    (transport="socket"). A link's first frames are one CONTROL per
    stream of its own, and reading one registers the stream with the
    model party and opens its gate; then each round advances all active
    streams of all users in one batched model step, and its wall time,
    the step plus gate routing, is appended to transcript.round_s. On
    exit, normal or not, the model party and the controller forget every
    stream the call registered; they hold the model party's last arena
    slots, which the next ones reuse. ctrl.killed keeps each kill until
    its stream id is opened again.
    """
    if transport not in ("inproc", "socket"):
        raise ValueError(f"unknown transport {transport!r}")
    transcript = Transcript(config=model.config)
    known = set(model.streams)

    def forget():
        for sid in model.streams.keys() - known:
            del model.streams[sid], ctrl.streams[sid]

    with contextlib.ExitStack() as stack:
        stack.callback(forget)  # runs last, after every link is closed
        if transport == "socket":
            links = _socket_links(users, transcript, stack)
        else:
            links = [_inproc_link(user, transcript) for user in users]
        own = [list(user.streams) for user in users]  # each link's streams
        link_of = {sid: link for link, sids in zip(links, own) for sid in sids}
        for user, link, sids in zip(users, links, own):
            for _ in sids:  # one CONTROL per stream of the link
                msg = deserialize(link.recv())
                sid = msg.session_id
                if link_of.get(sid) is not link:
                    raise ProtocolError(f"setup frame names stream {sid}, not one of its link's")
                model.handle_user_frame(msg)
                # the rule goes to the controller directly, never over the link
                ctrl.open_stream(sid, user.streams[sid].rule)
            _route_outward(user, link, sids, link_of, model, ctrl, transcript, 0)

        for step in range(1, max_tokens + 1):
            pairs = [(sid, link_of[sid]) for sid in model.active_streams() if sid in link_of]
            if not pairs:
                break
            t0 = time.perf_counter()
            model_batch_step(model, pairs, controller=ctrl, step=step)
            for user, link, sids in zip(users, links, own):
                _route_outward(user, link, sids, link_of, model, ctrl, transcript, step)
            transcript.round_s.append(time.perf_counter() - t0)
    return transcript


# -- communication accounting -------------------------------------------


@dataclass
class CommReport:
    """Exact message/byte/scalar accounting of one transcript, per stream
    and decode round.

    A batched QUERY or PARTIAL carries every head of S streams, S being
    its header's head field; each stream is charged 1/S of its float64
    scalars (a QUERY's u32 stream ids are not scalars). Per head, a
    stream's PARTIAL share is head_dim + 2 scalars — the weighted-value
    vector plus the softmax denominator and its running max; the running
    max rides along so the merge can rescale safely, which is why each
    round costs 2*head_dim + 2 scalars per head rather than a bare
    2*head_dim + 1. The attention exchange of a round is its QUERY and
    PARTIAL scalars together, n_layers * n_heads * (2*head_dim + 2).
    Beyond it a round moves one TOKEN each way per stream and no logits.
    """

    query_scalars_per_round: int
    partial_scalars_per_round: int
    constant_per_round: bool
    total_bytes: int
    steps: int
    note: ClassVar[str] = (
        "per-head partial = head_dim + 2 scalars (weighted values, denominator, "
        "running max); the running max is transmitted for numerically safe merging"
    )

    @property
    def round_scalars_per_round(self) -> int:
        return self.query_scalars_per_round + self.partial_scalars_per_round

    def to_text(self) -> str:
        lines = [
            f"decode rounds: {self.steps}",
            f"query scalars per stream-round: {self.query_scalars_per_round}",
            f"partial scalars per stream-round: {self.partial_scalars_per_round}",
            f"attention-exchange scalars per stream-round: {self.round_scalars_per_round}",
            f"constant across rounds: {self.constant_per_round}",
            f"total bytes on the wire: {self.total_bytes}",
            f"note: {self.note}",
        ]
        return "\n".join(lines)


def comm_accounting(transcript: Transcript) -> CommReport:
    """Tally the scalars each stream sends and receives per decode round
    and check that the per-round count is constant.

    Every stream of a batched frame gets the same share, so the share is
    kept once per (step, tag, the frame's session id)."""
    share: dict[tuple, int] = {}
    for e in transcript.entries:
        if e.step >= 1 and e.head and e.tag in (TAG_QUERY, TAG_PARTIAL):
            ids = 4 * e.head if e.tag == TAG_QUERY else 0
            key = (e.step, e.tag, e.session_id)
            share[key] = share.get(key, 0) + (e.payload_len - ids) // 8 // e.head
    queries, partials = (
        {v for (_, t, _), v in share.items() if t == tag} for tag in (TAG_QUERY, TAG_PARTIAL)
    )
    constant = len(queries) <= 1 and len(partials) <= 1
    steps = len({step for step, _, _ in share})
    return CommReport(
        query_scalars_per_round=next(iter(queries), 0),
        partial_scalars_per_round=next(iter(partials), 0),
        constant_per_round=constant,
        total_bytes=transcript.total_bytes(),
        steps=steps,
    )
