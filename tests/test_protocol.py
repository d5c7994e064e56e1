import socket
import threading

import numpy as np
import pytest

from splitdecode.model import ModelConfig, greedy_decode, init_model
from splitdecode.obfuscation import ObfuscationConfig, TaggedPrompt
from splitdecode.protocol import (
    Controller,
    InProcLink,
    ModelParty,
    ProtocolError,
    Transcript,
    UserParty,
    WeightsHandle,
    WeightsReleasedError,
    comm_accounting,
    controller_gate,
    model_batch_step,
    read_frame,
    run_decode_session,
    run_sessions,
    user_prefill,
)
from splitdecode.wire import (
    TAG_CONTROL,
    TAG_FINAL_Y,
    TAG_NAMES,
    TAG_PARTIAL,
    TAG_QUERY,
    TAG_TOKEN,
    FrameError,
    ProtocolMessage,
    decode_token,
    encode_f64s,
    encode_token,
    serialize,
)

from conftest import rng

NO_OBF = ObfuscationConfig(epsilon=0.0, lambda_max=0)


def make_session(weights, prompt, user_id=1, obf=NO_OBF, oracle=None):
    model = ModelParty(weights)
    ctrl = Controller()
    user = UserParty(user_id=user_id, weights_handle=WeightsHandle(weights), oracle=oracle)
    user_prefill(user, TaggedPrompt(tokens=prompt), obf)
    return model, ctrl, user


class TestSingleSession:
    def test_tokens_equal_monolithic(self, small_weights):
        prompt = [3, 5, 7, 2]
        model, ctrl, user = make_session(small_weights, prompt)
        transcript = run_decode_session(user, model, ctrl, max_tokens=64)
        sid = next(iter(user.streams))
        assert transcript.tokens[sid] == greedy_decode(small_weights, prompt, 64)

    def test_socket_transport_matches_inproc(self, small_weights):
        prompt = [9, 4, 4, 1]
        model_a, ctrl_a, user_a = make_session(small_weights, prompt)
        t_inproc = run_decode_session(user_a, model_a, ctrl_a, max_tokens=12)
        model_b, ctrl_b, user_b = make_session(small_weights, prompt, user_id=2)
        t_socket = run_decode_session(user_b, model_b, ctrl_b, max_tokens=12, transport="socket")
        sid_a = next(iter(user_a.streams))
        sid_b = next(iter(user_b.streams))
        assert t_socket.tokens[sid_b] == t_inproc.tokens[sid_a]
        # identical framing either way: same tags/layers/heads/sizes per step
        fields_a = [(e.direction, e.step, e.tag, e.layer, e.head, e.nbytes)
                    for e in t_inproc.entries]
        fields_b = [(e.direction, e.step, e.tag, e.layer, e.head, e.nbytes)
                    for e in t_socket.entries]
        assert fields_a == fields_b

    def test_socket_transport_with_virtual_prompts(self, small_weights):
        from splitdecode.langmodel import NgramModel

        oracle = NgramModel(order=1, vocab_size=small_weights.config.vocab_size)
        obf = ObfuscationConfig(epsilon=1.0, lambda_max=3, prf_key=b"s")
        model = ModelParty(small_weights)
        ctrl = Controller()
        user = UserParty(6, WeightsHandle(small_weights), oracle=oracle, prf_key=b"s")
        user_prefill(user, TaggedPrompt(tokens=[7, 1, 2], spans=((0, 1),)), obf)
        run_decode_session(user, model, ctrl, max_tokens=8, transport="socket")
        for i, sid in enumerate(user.streams):
            mono = greedy_decode(small_weights, list(user.vps.prompts[i]), 8)
            assert user.streams[sid].tokens == mono

    def test_max_tokens_zero(self, small_weights):
        model, ctrl, user = make_session(small_weights, [5, 6])
        transcript = run_decode_session(user, model, ctrl, max_tokens=0)
        sid = next(iter(user.streams))
        assert len(transcript.tokens[sid]) == 1  # just the prefill token
        assert all(e.step == 0 for e in transcript.entries)

    def test_unknown_transport(self, small_weights):
        model, ctrl, user = make_session(small_weights, [5, 6])
        with pytest.raises(ValueError):
            run_decode_session(user, model, ctrl, 1, transport="carrier-pigeon")


class TestWeightsHandle:
    def test_released_after_prefill(self, small_weights):
        model, ctrl, user = make_session(small_weights, [1, 2, 3])
        assert user.weights_handle.released
        assert user.weights_handle._weights is None

    def test_access_after_release_faults(self, small_weights):
        model, ctrl, user = make_session(small_weights, [1, 2, 3])
        with pytest.raises(WeightsReleasedError):
            user.weights_handle.get()

    def test_zero_accesses_during_decode(self, small_weights):
        model, ctrl, user = make_session(small_weights, [1, 2, 3])
        before = user.weights_handle.accesses
        run_decode_session(user, model, ctrl, max_tokens=16)
        assert user.weights_handle.accesses == before


class TestVirtualPromptStreams:
    def test_obfuscation_abort_leaves_party_clean(self, small_weights):
        # too few decoys: the alert fires before any stream or wire state
        # exists, and the weights handle stays usable for a retry
        from splitdecode.langmodel import NgramModel
        from splitdecode.obfuscation import InsufficientObfuscationError

        oracle = NgramModel(order=1, vocab_size=small_weights.config.vocab_size)
        obf = ObfuscationConfig(epsilon=1.0, lambda_max=200, lambda_min=100, prf_key=b"a")
        user = UserParty(8, WeightsHandle(small_weights), oracle=oracle, prf_key=b"a")
        with pytest.raises(InsufficientObfuscationError):
            user_prefill(user, TaggedPrompt(tokens=[4, 8, 15], spans=((0, 1),)), obf)
        assert user.streams == {}
        assert user.pending_setup == []
        assert not user.weights_handle.released

    def test_bad_setup_payload_rejected(self, small_weights):
        from splitdecode.protocol import decode_setup

        with pytest.raises(ProtocolError):
            decode_setup(b"\x01\x02")

    def test_lambda_three_gives_four_streams(self, small_weights):
        from splitdecode.langmodel import NgramModel

        oracle = NgramModel(order=1, vocab_size=small_weights.config.vocab_size)
        obf = ObfuscationConfig(epsilon=1.0, lambda_max=4, prf_key=b"t")
        model = ModelParty(small_weights)
        user = UserParty(1, WeightsHandle(small_weights), oracle=oracle, prf_key=b"t")
        msgs = user_prefill(user, TaggedPrompt(tokens=[4, 8, 15], spans=((0, 1),)), obf)
        assert len(user.streams) == 4
        token_msgs = [m for m in msgs if m.tag == TAG_TOKEN]
        assert len(token_msgs) == 4
        assert user.vps.lam == 3

    def test_every_stream_matches_its_own_monolithic(self, small_weights):
        from splitdecode.langmodel import NgramModel

        oracle = NgramModel(order=1, vocab_size=small_weights.config.vocab_size)
        obf = ObfuscationConfig(epsilon=1.0, lambda_max=4, prf_key=b"t")
        model = ModelParty(small_weights)
        ctrl = Controller()
        user = UserParty(1, WeightsHandle(small_weights), oracle=oracle, prf_key=b"t")
        user_prefill(user, TaggedPrompt(tokens=[4, 8, 15], spans=((0, 1),)), obf)
        run_decode_session(user, model, ctrl, max_tokens=24)
        for i, sid in enumerate(user.streams):
            mono = greedy_decode(small_weights, list(user.vps.prompts[i]), 24)
            assert user.streams[sid].tokens == mono


class TestSampledOutputInvariance:
    """A sampled authentic response depends on the prompt and the sample
    seed only: not on lambda, the transport, or who else is decoding."""

    PROMPT = [7, 1, 2, 9]

    def sampled_user(self, weights, lam, user_id=1, prompt=PROMPT):
        from splitdecode.langmodel import NgramModel

        oracle = NgramModel(order=1, vocab_size=weights.config.vocab_size)
        user = UserParty(
            user_id, WeightsHandle(weights), oracle=oracle, prf_key=b"k",
            temperature=0.9, sample_seed=42,
        )
        obf = ObfuscationConfig(epsilon=1.0, lambda_max=lam + 1, prf_key=b"k") if lam else NO_OBF
        spans = ((0, 1),) if lam else ()
        user_prefill(user, TaggedPrompt(tokens=prompt, spans=spans), obf)
        assert len(user.streams) == lam + 1
        return user

    def solo(self, weights, lam, transport="inproc"):
        user = self.sampled_user(weights, lam)
        ctrl = Controller(mode="support")
        run_decode_session(user, ModelParty(weights), ctrl, max_tokens=12, transport=transport)
        assert not ctrl.killed
        return user.authentic_response()

    def test_same_response_for_every_lambda_transport_and_batch(self, small_weights):
        reference = self.solo(small_weights, 0)
        # sampling is on: the response is not the greedy one
        assert reference != greedy_decode(small_weights, self.PROMPT, 12)
        for lam in (0, 1, 3):
            assert self.solo(small_weights, lam) == reference, lam
            assert self.solo(small_weights, lam, transport="socket") == reference, lam

        model = ModelParty(small_weights)
        ctrl = Controller(mode="support")
        transcript = Transcript(config=small_weights.config)
        users = [
            self.sampled_user(small_weights, 1, user_id=2, prompt=[3, 3, 8]),
            self.sampled_user(small_weights, 3),
        ]
        links = [(u, InProcLink(u.handle_frame, transcript)) for u in users]
        run_sessions(model, ctrl, links, 12, transcript)
        assert not ctrl.killed
        assert users[1].authentic_response() == reference


class TestReadFrame:
    def test_oversized_length_prefix_rejected_before_the_body(self):
        a, b = socket.socketpair()
        with a, b:
            b.settimeout(5)
            a.sendall(b"\xff\xff\xff\xff")
            with pytest.raises(FrameError):
                read_frame(b)

    def test_frames_round_trip(self):
        # the larger frame spans several receive chunks
        frames = [
            serialize(ProtocolMessage(tag=TAG_QUERY, session_id=3, layer=1, head=2,
                                      payload=encode_f64s(np.arange(float(n)))))
            for n in (4, 20000)
        ]
        a, b = socket.socketpair()
        with a, b:
            b.settimeout(5)
            sender = threading.Thread(target=lambda: [a.sendall(f) for f in frames])
            sender.start()
            assert [read_frame(b) for _ in frames] == frames
            sender.join()
            a.shutdown(socket.SHUT_WR)
            assert read_frame(b) is None


class TestBatchedStep:
    def test_eight_sessions_match_serial(self, small_weights):
        prompts = [
            rng(100 + i).integers(0, 62, size=int(rng(i).integers(2, 9))).tolist()
            for i in range(8)
        ]
        serial = [greedy_decode(small_weights, p, 20) for p in prompts]

        model = ModelParty(small_weights)
        ctrl = Controller()
        transcript = Transcript(config=small_weights.config)
        users_links = []
        for i, prompt in enumerate(prompts):
            user = UserParty(i, WeightsHandle(small_weights))
            user_prefill(user, TaggedPrompt(tokens=prompt), NO_OBF)
            users_links.append((user, InProcLink(user.handle_frame, transcript)))
        run_sessions(model, ctrl, users_links, 20, transcript)
        for (user, _), expected in zip(users_links, serial):
            sid = next(iter(user.streams))
            assert user.streams[sid].tokens == expected

    def test_batch_of_one_equals_run_decode_session(self, small_weights):
        prompt = [11, 3, 9]
        model, ctrl, user = make_session(small_weights, prompt)
        t = run_decode_session(user, model, ctrl, max_tokens=10)
        sid = next(iter(user.streams))
        assert t.tokens[sid] == greedy_decode(small_weights, prompt, 10)

    def test_empty_round_returns_nothing(self, small_weights):
        model = ModelParty(small_weights)
        assert model_batch_step(model, []) == {}


class TestOutOfOrder:
    def test_model_rejects_unknown_stream_token(self, small_weights):
        model = ModelParty(small_weights)
        with pytest.raises(ProtocolError):
            model.handle_user_frame(
                ProtocolMessage(tag=TAG_TOKEN, session_id=99, payload=encode_token(1))
            )

    def test_model_rejects_duplicate_token(self, small_weights):
        model, ctrl, user = make_session(small_weights, [1, 2])
        for msg in user.pending_setup:
            model.handle_user_frame(msg)
        stream_id = next(iter(user.streams))
        with pytest.raises(ProtocolError):
            model.handle_user_frame(
                ProtocolMessage(tag=TAG_TOKEN, session_id=stream_id, payload=encode_token(1))
            )

    def test_model_rejects_duplicate_stream_registration(self, small_weights):
        from splitdecode.protocol import encode_setup

        model = ModelParty(small_weights)
        setup = ProtocolMessage(tag=TAG_CONTROL, session_id=4, payload=encode_setup(3))
        model.handle_user_frame(setup)
        with pytest.raises(ProtocolError):
            model.handle_user_frame(setup)

    def test_model_rejects_query_frames(self, small_weights):
        model = ModelParty(small_weights)
        with pytest.raises(ProtocolError):
            model.handle_user_frame(
                ProtocolMessage(tag=TAG_QUERY, session_id=1, payload=b"")
            )

    def test_user_rejects_unknown_stream(self, small_weights):
        model, ctrl, user = make_session(small_weights, [1, 2])
        bad = serialize(ProtocolMessage(tag=TAG_FINAL_Y, session_id=424242, payload=b""))
        with pytest.raises(ProtocolError):
            user.handle_frame(bad)

    def test_user_rejects_partial_frames(self, small_weights):
        model, ctrl, user = make_session(small_weights, [1, 2])
        sid = next(iter(user.streams))
        bad = serialize(ProtocolMessage(tag=TAG_PARTIAL, session_id=sid, payload=b""))
        with pytest.raises(ProtocolError):
            user.handle_frame(bad)


class TestController:
    def test_non_token_blocked(self):
        ctrl = Controller()
        ctrl.open_stream(1)
        msg = ProtocolMessage(tag=TAG_CONTROL, session_id=1, payload=b"\x00" * 4)
        assert not controller_gate(ctrl, msg).passed

    def test_correct_token_passes(self):
        ctrl = Controller()
        ctrl.open_stream(1)
        ctrl.register_expected(1, 42)
        msg = ProtocolMessage(tag=TAG_TOKEN, session_id=1, payload=encode_token(42))
        assert controller_gate(ctrl, msg).passed

    def test_flipped_token_blocks_and_kills(self, small_weights):
        # adversarial harness: the user party flips one outward token bit
        prompt = [2, 4, 6]
        model, ctrl, user = make_session(small_weights, prompt)
        flip_at = {"step": 3, "done": False}
        original_queue = user._queue_outward

        def evil_queue(msg):
            if not flip_at["done"] and len(user.streams[msg.session_id].tokens) - 1 == flip_at["step"]:
                flip_at["done"] = True
                msg = ProtocolMessage(
                    tag=msg.tag,
                    session_id=msg.session_id,
                    payload=encode_token(decode_token(msg.payload) ^ 1),
                )
            original_queue(msg)

        user._queue_outward = evil_queue
        transcript = run_decode_session(user, model, ctrl, max_tokens=16)
        sid = next(iter(user.streams))
        assert sid in ctrl.killed
        assert sid in transcript.killed
        # only the honest tokens before the flip made it out
        assert transcript.tokens[sid] == greedy_decode(small_weights, prompt, 16)[: flip_at["step"]]
        blocked = [g for g in transcript.gate_log if not g[2]]
        assert blocked and blocked[0][3] == "token mismatch"

    def test_fuzzed_frames_never_pass(self, small_weights):
        ctrl = Controller()
        ctrl.open_stream(7)
        g = rng(99)
        non_token_passes = 0
        for _ in range(2000):
            tag = int(g.choice([t for t in TAG_NAMES if t != TAG_TOKEN]))
            msg = ProtocolMessage(
                tag=tag,
                session_id=int(g.integers(0, 64)),
                layer=int(g.integers(0, 4)),
                head=int(g.integers(0, 4)),
                payload=bytes(g.integers(0, 256, size=int(g.integers(0, 64)), dtype=np.uint8)),
            )
            if controller_gate(ctrl, msg).passed:
                non_token_passes += 1
        assert non_token_passes == 0

    def test_support_mode_accepts_support_members(self):
        ctrl = Controller(mode="support")
        ctrl.open_stream(2)
        ctrl.register_expected(2, 5, support={4, 5, 6})
        ok = ProtocolMessage(tag=TAG_TOKEN, session_id=2, payload=encode_token(6))
        assert controller_gate(ctrl, ok).passed
        ctrl.register_expected(2, 5, support={4, 5, 6})
        bad = ProtocolMessage(tag=TAG_TOKEN, session_id=2, payload=encode_token(9))
        assert not controller_gate(ctrl, bad).passed

    def test_non_greedy_session_under_support_mode(self, small_weights):
        # documented relaxation: with sampling on, the gate checks support
        # membership instead of exact ground truth
        prompt = [6, 2, 9]
        model = ModelParty(small_weights)
        ctrl = Controller(mode="support")
        user = UserParty(
            4, WeightsHandle(small_weights), temperature=0.8, sample_seed=123
        )
        user_prefill(user, TaggedPrompt(tokens=prompt), NO_OBF)
        transcript = run_decode_session(user, model, ctrl, max_tokens=12)
        sid = next(iter(user.streams))
        assert sid not in ctrl.killed
        assert len(transcript.tokens[sid]) >= 1
        assert all(not g[2] is None for g in transcript.gate_log)

    def test_expect_derives_the_check_from_logits(self):
        logits = rng(5).standard_normal(16)
        exact = Controller()
        exact.open_stream(1)
        exact.expect(1, logits)
        assert list(exact.expected[1]) == [(int(np.argmax(logits)), None)]
        support = Controller(mode="support")
        support.open_stream(1)
        support.expect(1, logits)
        assert list(support.expected[1]) == [(int(np.argmax(logits)), set(range(16)))]

    def test_token_without_ground_truth_kills_after_first(self):
        ctrl = Controller()
        ctrl.open_stream(3)
        first = ProtocolMessage(tag=TAG_TOKEN, session_id=3, payload=encode_token(1))
        assert controller_gate(ctrl, first).passed  # prefill token
        second = ProtocolMessage(tag=TAG_TOKEN, session_id=3, payload=encode_token(1))
        assert not controller_gate(ctrl, second).passed
        assert 3 in ctrl.killed


class RecordingLink(InProcLink):
    """Keeps raw frame bytes for leak scanning."""

    def __init__(self, handler, transcript=None):
        super().__init__(handler, transcript)
        self.frames = []

    def send(self, frame):
        self.frames.append(frame)
        super().send(frame)

    def recv(self):
        frame = super().recv()
        self.frames.append(frame)
        return frame


class TestConfidentiality:
    def test_no_private_rows_on_the_wire(self, small_weights):
        prompt = [13, 17, 19, 23]
        model = ModelParty(small_weights)
        ctrl = Controller()
        user = UserParty(1, WeightsHandle(small_weights))
        msgs = user_prefill(user, TaggedPrompt(tokens=prompt), NO_OBF)
        transcript = Transcript(config=small_weights.config)
        link = RecordingLink(user.handle_frame, transcript)
        frames = list(msgs)
        run_sessions(model, ctrl, [(user, link)], 12, transcript)
        wire_bytes = b"".join(link.frames) + b"".join(serialize(m) for m in frames)

        sid = next(iter(user.streams))
        private = user.streams[sid].private
        for layer in range(small_weights.config.n_layers):
            for head in range(small_weights.config.n_heads):
                for row in private.k[layer][head]:
                    assert row.tobytes() not in wire_bytes
                for row in private.v[layer][head]:
                    assert row.tobytes() not in wire_bytes

    def test_message_count_constant_per_round(self, small_weights):
        prompt = [2, 3, 5]
        model, ctrl, user = make_session(small_weights, prompt)
        transcript = run_decode_session(user, model, ctrl, max_tokens=12)
        per_step = {}
        for e in transcript.entries:
            if e.step >= 1:
                per_step.setdefault(e.step, 0)
                per_step[e.step] += 1
        assert len(set(per_step.values())) == 1


class TestCommAccounting:
    def run_report(self, weights, prompt, max_tokens=8):
        model, ctrl, user = make_session(weights, prompt)
        transcript = run_decode_session(user, model, ctrl, max_tokens=max_tokens)
        return comm_accounting(transcript)

    def test_scalar_formula(self, small_weights):
        report = self.run_report(small_weights, [1, 2, 3])
        c = small_weights.config
        assert report.constant_per_round
        assert report.query_scalars_per_round == c.n_layers * c.n_heads * c.head_dim
        assert report.partial_scalars_per_round == c.n_layers * c.n_heads * (c.head_dim + 2)
        assert report.round_scalars_per_round == report.expected_round_scalars(c)

    def test_doubling_width_doubles_query_scalars(self, small_config):
        wide = init_model(
            ModelConfig(**{**small_config.__dict__, "d_model": 32, "head_dim": 16})
        )
        narrow_report = self.run_report(init_model(small_config), [1, 2, 3])
        wide_report = self.run_report(wide, [1, 2, 3])
        assert wide_report.query_scalars_per_round == 2 * narrow_report.query_scalars_per_round

    def test_report_documents_the_extra_scalars(self, small_weights):
        report = self.run_report(small_weights, [4, 5])
        assert "running max" in report.note
        assert "running max" in report.to_text()

    def test_transcript_dump_format(self, small_weights):
        model, ctrl, user = make_session(small_weights, [4, 5])
        transcript = run_decode_session(user, model, ctrl, max_tokens=2)
        lines = transcript.dump().splitlines()
        assert lines
        for line in lines:
            direction, tag, session, layer, head, nbytes = line.split()
            assert direction in ("m2u", "u2m", "out", "blk")
            assert tag in TAG_NAMES.values()
            int(session), int(layer), int(head), int(nbytes)
