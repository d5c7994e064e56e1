"""Workloads, session runners and the correctness gate of the benchmark.

A session serves one closed-loop batch: every user of the workload
submits at t=0, each prefills on its own (its time to first token is not
charged for the users queued ahead of it), and then all streams decode
in lockstep rounds, as ``run_sessions`` serves them. The timed phase
repeats the seed's batch in fresh sessions until the run's seconds are
used up, and at least MIN_SESSIONS times; every repeat does the same work.

Every library call goes through its module attribute (``P.user_prefill``,
``M.prefill``), so the traced run sees the same calls the timed run makes.
"""

from __future__ import annotations

import contextlib
import resource
import socket
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from splitdecode import model as M
from splitdecode import protocol as P
from splitdecode import wire as W
from splitdecode.langmodel import NgramModel
from splitdecode.obfuscation import ObfuscationConfig, TaggedPrompt

from tracing import TARGETS, TracedSession, Tracer, layer_metrics

# the pinned model: 4 layers x 4 heads, head_dim 64, vocab 256
PINNED_MODEL = M.ModelConfig(
    n_layers=4, n_heads=4, d_model=256, head_dim=64, vocab_size=256, max_seq=160, seed=20240928
)
PRF_KEY = b"perfbench"
SETUP_REPEATS = 5
# every run serves its batch at least this often, so that a workload with
# one long session per run still has a repeat of each sample
MIN_SESSIONS = 2
THREAD_JOIN_S = 10.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    transport: str  # "inproc" or "socket" (split decode), "mono" (monolithic)
    users: int
    prompt_len: int
    response_len: int  # tokens per response, the prefill token included
    lam: int = 0  # decoys per request
    span_pos: int = 0  # the one tagged token; decoys replace it

    @property
    def rounds(self) -> int:
        return self.response_len - 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "decode_heavy",
            "16 users, lambda=1, short unshared prompts, 100 rounds: per-round "
            "protocol, wire and partition costs dominate",
            "inproc", users=16, prompt_len=16, response_len=101, lam=1, span_pos=0,
        ),
        Workload(
            "prefill_decoys",
            "8 users, lambda=3, 128-token prompts sharing a 124-token prefix, 4-token "
            "responses: prefill and decoys dominate",
            "inproc", users=8, prompt_len=128, response_len=4, lam=3, span_pos=124,
        ),
        Workload(
            "socket_stream",
            "1 user, lambda=3, 100 rounds over one localhost TCP link: per-frame "
            "syscalls and codec work dominate",
            "socket", users=1, prompt_len=32, response_len=101, lam=3, span_pos=0,
        ),
        Workload(
            "mono_reference",
            "decode_heavy's users and prompts decoded monolithically, unbatched: "
            "isolates the model layer",
            "mono", users=16, prompt_len=16, response_len=101,
        ),
    )
}


@dataclass
class Setup:
    weights: M.Weights
    prompts: list  # one prompt (list of ints) per user
    oracle: NgramModel


def setup(workload: Workload, config: M.ModelConfig, seed: int) -> Setup:
    """Weights, the batch's prompts, and the decoy oracle."""
    weights = M.init_model(config)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    # high bound excludes the last token id, which is EOS
    prompts = rng.integers(
        0, config.vocab_size - 1, size=(workload.users, workload.prompt_len)
    ).tolist()
    # no counts: every next-token distribution is uniform, so each request
    # gets exactly lambda decoys whatever the seed
    oracle = NgramModel(order=1, vocab_size=config.vocab_size)
    return Setup(weights=weights, prompts=prompts, oracle=oracle)


@dataclass
class Session:
    prompts: list
    ttft_s: list = field(default_factory=list)
    round_s: list = field(default_factory=list)
    streams_per_round: list = field(default_factory=list)
    responses: list = field(default_factory=list)  # authentic response per user
    authentic_tokens: int = 0  # released through the gate
    wire_bytes: int = 0
    round_frames: int = 0
    round_bytes: int = 0
    round_payload: int = 0
    gate_decisions: int = 0
    gate_passed: int = 0
    streams_killed: int = 0
    wall_s: float = 0.0
    failed: dict = field(default_factory=dict)  # user -> reason

    def fail_all(self, reason: str):
        for user in range(len(self.prompts)):
            self.failed.setdefault(user, reason)


class CountingLink:
    """The benchmark's view of a protocol link: forwards every frame and
    counts frames and bytes in both directions."""

    def __init__(self, link, payload_of=None):
        self.link = link
        self.frames = 0
        self.bytes = 0
        self.payload = 0
        self._payload_of = payload_of

    @property
    def step(self):
        return self.link.step

    @step.setter
    def step(self, value):
        self.link.step = value

    def count(self, frame: bytes):
        self.frames += 1
        self.bytes += len(frame)
        if self._payload_of is not None:
            self.payload += self._payload_of(frame)

    def send(self, frame: bytes):
        self.count(frame)
        self.link.send(frame)

    def recv(self) -> bytes:
        frame = self.link.recv()
        self.count(frame)
        return frame


def _payload_len(frame: bytes) -> int:
    return len(W.deserialize(frame).payload)


class Gate:
    """Routes a user party's outbound TOKENs through controller_gate."""

    def __init__(self, ctrl: P.Controller):
        self.ctrl = ctrl
        self.decisions = 0
        self.passed = 0
        self.released: dict[int, list[int]] = {}

    def route(self, party: P.UserParty):
        for msg in party.take_outward():
            decision = P.controller_gate(self.ctrl, msg)
            self.decisions += 1
            if decision.passed:
                self.passed += 1
                self.released.setdefault(msg.session_id, []).append(W.decode_token(msg.payload))


def _mark(tracer: Tracer | None, ctx: str):
    if tracer is not None:
        tracer.context = ctx


def _socket_link(party: P.UserParty, transcript: P.Transcript, stack: contextlib.ExitStack):
    """Serve the user party on a thread over localhost TCP, as
    run_decode_session does, and return the model side's SocketLink."""
    listener = socket.create_server(("127.0.0.1", 0))
    errors: list[BaseException] = []

    def serve():
        try:
            conn, _ = listener.accept()
            with conn:
                P.serve_user_party(party, conn)
        except Exception as exc:  # the model side then sees EOF; keep the cause
            errors.append(exc)

    thread = threading.Thread(target=serve, name=f"user-{party.user_id}", daemon=True)
    thread.start()
    client = socket.create_connection(listener.getsockname()[:2])

    def close():
        client.close()
        thread.join(THREAD_JOIN_S)
        listener.close()
        if thread.is_alive():
            raise RuntimeError("user party thread did not stop")
        if errors:
            raise P.ProtocolError(f"user party failed: {errors[0]!r}")

    stack.callback(close)
    return P.SocketLink(client, transcript)


def run_spd_session(workload: Workload, st: Setup, tracer: Tracer | None = None) -> Session:
    """Two-party decode of one batch over InProcLink or SocketLink."""
    prompts = st.prompts
    s = Session(prompts=prompts)
    obf = ObfuscationConfig(epsilon=1.0, lambda_max=workload.lam + 1, prf_key=PRF_KEY)
    model = P.ModelParty(st.weights, stop_at_eos=False)
    ctrl = P.Controller()
    transcript = P.Transcript(config=st.weights.config)
    gate = Gate(ctrl)
    payload_of = tracer.span("bench.payload_len", _payload_len) if tracer is not None else None
    parties, links, link_of = [], [], {}
    start = time.perf_counter()
    try:
        with contextlib.ExitStack() as stack:
            for user, prompt in enumerate(prompts):
                _mark(tracer, f"req:{user}")
                t0 = time.perf_counter()
                party = P.UserParty(
                    user_id=user,
                    weights_handle=P.WeightsHandle(st.weights),
                    oracle=st.oracle,
                    prf_key=PRF_KEY,
                )
                tagged = TaggedPrompt(tokens=prompt, spans=((workload.span_pos, 1),))
                setup_msgs = P.user_prefill(party, tagged, obf)
                if workload.transport == "socket":
                    link = CountingLink(_socket_link(party, transcript, stack), payload_of)
                    # serve_user_party announces the setup messages over the wire
                    setup_msgs = [P.deserialize(link.recv()) for _ in setup_msgs]
                else:
                    link = CountingLink(P.InProcLink(party.handle_frame, transcript), payload_of)
                    for msg in setup_msgs:
                        frame = P.serialize(msg)
                        transcript.record("u2m", 0, frame)
                        link.count(frame)
                    party.pending_setup = []
                for msg in setup_msgs:
                    model.handle_user_frame(msg)
                    if msg.tag == W.TAG_CONTROL:
                        ctrl.open_stream(msg.session_id)
                gate.route(party)
                s.ttft_s.append(time.perf_counter() - t0)
                parties.append(party)
                links.append(link)
                for sid in party.streams:
                    link_of[sid] = link

            before = [(l.frames, l.bytes, l.payload) for l in links]
            for step in range(1, workload.response_len):
                _mark(tracer, f"round:{step}")
                t0 = time.perf_counter()
                pairs = [(sid, link_of[sid]) for sid in model.active_streams()]
                P.model_batch_step(model, pairs, controller=ctrl, step=step)
                for party in parties:
                    gate.route(party)
                s.round_s.append(time.perf_counter() - t0)
                s.streams_per_round.append(len(pairs))
            s.round_frames = sum(l.frames - b[0] for l, b in zip(links, before))
            s.round_bytes = sum(l.bytes - b[1] for l, b in zip(links, before))
            s.round_payload = sum(l.payload - b[2] for l, b in zip(links, before))
    except (P.ProtocolError, W.FrameError) as exc:
        s.fail_all(f"{type(exc).__name__}: {exc}")
    finally:
        _mark(tracer, None)
    s.wall_s = time.perf_counter() - start

    s.wire_bytes = sum(l.bytes for l in links)
    s.gate_decisions, s.gate_passed = gate.decisions, gate.passed
    s.streams_killed = len(ctrl.killed)
    if s.wire_bytes != transcript.total_bytes():
        s.fail_all(f"link bytes {s.wire_bytes} != transcript bytes {transcript.total_bytes()}")
    streams = sum(len(p.streams) for p in parties)
    if gate.decisions != streams * workload.response_len:
        s.fail_all(f"{gate.decisions} gate decisions for {streams} streams")
    for user, party in enumerate(parties):
        if party.vps is None or len(party.vps.prompts) != workload.lam + 1:
            s.failed.setdefault(user, "virtual prompt count is not lambda+1")
            s.responses.append([])
            continue
        authentic_sid = list(party.streams)[party.vps.idx]
        response = party.authentic_response()
        released = gate.released.get(authentic_sid, [])
        s.authentic_tokens += len(released)
        s.responses.append(response)
        if any(sid in ctrl.killed for sid in party.streams):
            s.failed.setdefault(user, "gate killed a stream")
        elif released != response:
            s.failed.setdefault(user, "gate released tokens differ from the response")
    return s


def run_mono_session(workload: Workload, st: Setup, tracer: Tracer | None = None) -> Session:
    """Monolithic baseline: one shared weight set, one step per user per round."""
    prompts = st.prompts
    s = Session(prompts=prompts)
    w = st.weights
    caches, outs = [], []
    start = time.perf_counter()
    for user, prompt in enumerate(prompts):
        _mark(tracer, f"req:{user}")
        t0 = time.perf_counter()
        cache, logits = M.prefill(w, prompt)
        caches.append(cache)
        outs.append([M.sample_token(logits)])
        s.ttft_s.append(time.perf_counter() - t0)
    for step in range(1, workload.response_len):
        _mark(tracer, f"round:{step}")
        t0 = time.perf_counter()
        for cache, out in zip(caches, outs):
            out.append(M.sample_token(M.decode_step_monolithic(w, cache, out[-1])))
        s.round_s.append(time.perf_counter() - t0)
        s.streams_per_round.append(len(caches))
    _mark(tracer, None)
    s.wall_s = time.perf_counter() - start
    s.responses = outs
    s.authentic_tokens = sum(len(o) for o in outs)
    return s


def run_session(workload, st, tracer=None) -> Session:
    runner = run_mono_session if workload.transport == "mono" else run_spd_session
    return runner(workload, st, tracer)


def mono_wire_bytes(responses) -> int:
    """Bytes of the TOKEN frames that return a monolithic response: the
    only frames that cross between user and server when nothing is split."""
    return sum(
        len(W.serialize(W.ProtocolMessage(tag=W.TAG_TOKEN, session_id=user, payload=W.encode_token(t))))
        for user, response in enumerate(responses)
        for t in response
    )


def verify(workload: Workload, st: Setup, sessions: list[Session]):
    """Check every response against the reference decoder; outside timing.

    Split decode must equal greedy_decode on the authentic prompt; the
    monolithic baseline must equal the argmax of full_forward, which has
    no KV cache. Every session repeats one batch, so one reference serves
    them all.
    """
    w = st.weights
    checked: dict[tuple, bool] = {}  # (user, response) -> matches the reference

    def correct(user: int, response: list) -> bool:
        key = (user, tuple(response))
        if key not in checked:
            prompt = st.prompts[user]
            if workload.transport == "mono":
                logits = M.full_forward(w, prompt + response[:-1])
                ref = np.argmax(logits[len(prompt) - 1 :], axis=1).tolist()
            else:
                ref = M.greedy_decode(w, prompt, workload.rounds, stop_at_eos=False)
            checked[key] = response == ref
        return checked[key]

    for s in sessions:
        if workload.transport == "mono":
            s.wire_bytes = mono_wire_bytes(s.responses)
        for user, response in enumerate(s.responses):
            if not (response and correct(user, response)):
                s.failed.setdefault(user, "response differs from the reference decoder")


END_TO_END_UNITS = {
    "setup_s": "s",
    "ttft_ms_p50": "ms",
    "itl_ms_p50": "ms",
    "itl_ms_p90": "ms",
    "authentic_tok_per_s": "tok/s",
    "wire_bytes_per_token": "B",
    "peak_rss_mb": "MB",
    "request_ok_ratio": "1",
}


@dataclass
class RunResult:
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit, samples)
    reasons: list
    sessions: int
    traced: dict | None = None  # per-layer metrics of the traced run
    missing: list = field(default_factory=list)  # trace hooks not found


def _percentile(values, q) -> float:
    return float(np.percentile(values, q))


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool = False,
    config: M.ModelConfig = PINNED_MODEL,
    trace_path=None,
    meta: dict | None = None,
) -> RunResult:
    setup_s = []
    for _ in range(SETUP_REPEATS):
        copies_before = M.weight_alloc_count()
        t0 = time.perf_counter()
        st = setup(workload, config, seed)
        setup_s.append(time.perf_counter() - t0)

    sessions: list[Session] = []
    start = time.perf_counter()
    while len(sessions) < MIN_SESSIONS or time.perf_counter() - start < seconds:
        sessions.append(run_session(workload, st))
    timed_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    traced_metrics, missing = None, []
    checked = list(sessions)
    if trace:
        tracer = Tracer()
        with tracer.installed(TARGETS):
            traced = run_session(workload, st, tracer)
        checked.append(traced)
        info = TracedSession(
            requests=len(traced.prompts),
            round_s=traced.round_s,
            streams_per_round=traced.streams_per_round,
            frames=traced.round_frames,
            frame_bytes=traced.round_bytes,
            payload_bytes=traced.round_payload,
            gate_decisions=traced.gate_decisions,
            gate_passed=traced.gate_passed,
            streams_killed=traced.streams_killed,
            weight_copies=M.weight_alloc_count() - copies_before,
            overhead_ratio=traced.wall_s / statistics.median(s.wall_s for s in sessions),
        )
        traced_metrics = layer_metrics(tracer, info)
        if trace_path is not None:
            tracer.dump(
                trace_path,
                dict(meta or {}, workload=workload.name, seed=seed, layer_metrics=traced_metrics),
            )
        missing = tracer.missing + tracer.measure_errors

    verify(workload, st, checked)

    attempted = sum(len(s.prompts) for s in checked)
    failed = sum(len(s.failed) for s in checked)
    reasons = sorted({r for s in checked for r in s.failed.values()})
    ttft = [t * 1e3 for s in sessions for t in s.ttft_s]
    itl = [t * 1e3 for s in sessions for t in s.round_s]
    tokens = sum(s.authentic_tokens for s in sessions)
    wire = sum(s.wire_bytes for s in sessions)
    metrics = {
        "setup_s": (statistics.median(setup_s), len(setup_s)),
        "ttft_ms_p50": (statistics.median(ttft), len(ttft)),
        "itl_ms_p50": (statistics.median(itl), len(itl)),
        "itl_ms_p90": (_percentile(itl, 90), len(itl)),
        "authentic_tok_per_s": (tokens / timed_s, tokens),
        "wire_bytes_per_token": (wire / tokens if tokens else 0.0, tokens),
        "peak_rss_mb": (peak_rss_mb, 1),
        "request_ok_ratio": ((attempted - failed) / attempted, attempted),
    }
    return RunResult(
        attempted=attempted,
        failed=failed,
        metrics={k: (v, END_TO_END_UNITS[k], n) for k, (v, n) in metrics.items()},
        reasons=reasons,
        sessions=len(sessions),
        traced=traced_metrics,
        missing=missing,
    )
