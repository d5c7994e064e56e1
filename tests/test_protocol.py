import contextlib
import dataclasses
import itertools
import socket
import threading
import time

import numpy as np
import pytest

from splitdecode import protocol
from splitdecode.model import (
    ModelConfig,
    decode_step_monolithic,
    greedy_decode,
    init_model,
    prefill,
)
from splitdecode.obfuscation import ObfuscationConfig, TaggedPrompt
from splitdecode.protocol import (
    Controller,
    InProcLink,
    ModelParty,
    ProtocolError,
    TokenRule,
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
    encode_query,
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


def assert_flip_kills(user, model, ctrl, honest, flip_at=3):
    """Adversarial harness: the user party flips one bit of its outward
    token number flip_at. The gate must block it and kill the stream, and
    only the honest tokens before it may leave."""
    original_queue = user._queue_outward

    def evil_queue(msg):
        if len(user.streams[msg.session_id].tokens) - 1 == flip_at:
            msg = ProtocolMessage(
                tag=msg.tag,
                session_id=msg.session_id,
                payload=encode_token(decode_token(msg.payload) ^ 1),
            )
        original_queue(msg)

    user._queue_outward = evil_queue
    transcript = run_decode_session(user, model, ctrl, max_tokens=len(honest) - 1)
    sid = next(iter(user.streams))
    assert sid in ctrl.killed
    assert sid in transcript.killed
    assert transcript.tokens[sid] == honest[:flip_at]
    blocked = [g for g in transcript.gate_log if not g[2]]
    assert blocked and blocked[0][3] == "token mismatch"


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

    def test_socket_user_failure_is_the_cause(self, small_weights):
        model, ctrl, user = make_session(small_weights, [9, 4, 4, 1])
        handle = user.handle_frame
        frames = itertools.count(1)

        def failing(frame):
            if next(frames) == 5:
                raise ValueError("user party broke on frame 5")
            return handle(frame)

        user.handle_frame = failing
        t0 = time.perf_counter()
        with pytest.raises(ProtocolError, match="frame 5") as info:
            run_decode_session(user, model, ctrl, max_tokens=8, transport="socket")
        assert time.perf_counter() - t0 < protocol._USER_JOIN_S
        assert isinstance(info.value.__cause__, ValueError)

    def test_socket_ends_set_no_delay(self, small_weights, monkeypatch):
        # both ends read frames through read_frame: note TCP_NODELAY there
        seen = {}
        read = protocol.read_frame

        def noting_read(sock):
            seen[sock.getsockname()] = sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            return read(sock)

        monkeypatch.setattr(protocol, "read_frame", noting_read)
        model, ctrl, user = make_session(small_weights, [9, 4, 4, 1])
        run_decode_session(user, model, ctrl, max_tokens=2, transport="socket")
        assert len(seen) == 2  # the model's and the user's end
        assert all(seen.values())


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

    def test_a_party_prefills_once(self, small_weights):
        model, ctrl, user = make_session(small_weights, [1, 2, 3])
        with pytest.raises(ValueError, match="prefills once"):
            user_prefill(user, TaggedPrompt(tokens=[4, 5]), NO_OBF)

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
    seed only: not on lambda, the transport, or who else is decoding. The
    gate recomputes every sampled token exactly from the committed rule."""

    PROMPT = [7, 1, 2, 9]
    LAMBDAS = (0, 1, 3, 7)

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

    @staticmethod
    def authentic_sid(user):
        return list(user.streams)[user.vps.idx]

    @staticmethod
    def monolithic(weights, prompt, rule, max_tokens):
        """One-party sampled decode: prefill, then cached monolithic steps,
        each token drawn with rule, as greedy_decode does with the argmax."""
        cache, logits = prefill(weights, list(prompt))
        out = [rule.token(logits, 0)]
        while len(out) <= max_tokens and out[-1] != weights.config.eos_token:
            out.append(rule.token(decode_step_monolithic(weights, cache, out[-1]), len(out)))
        return out

    def reference(self, weights):
        user = self.sampled_user(weights, 0)
        rule = user.streams[self.authentic_sid(user)].rule
        return self.monolithic(weights, self.PROMPT, rule, 12)

    def assert_authentic(self, users, ctrl, transcript, reference):
        assert not ctrl.killed
        for user in users:
            assert user.authentic_response() == reference
            # the gate released exactly the authentic response
            assert transcript.tokens[self.authentic_sid(user)] == reference

    def test_same_response_for_every_lambda_transport_and_batch(self, small_weights):
        reference = self.reference(small_weights)
        # sampling is on: the response is not the greedy one
        assert reference != greedy_decode(small_weights, self.PROMPT, 12)
        for lam in self.LAMBDAS:
            for transport in ("inproc", "socket"):
                user = self.sampled_user(small_weights, lam)
                ctrl = Controller()
                transcript = run_decode_session(
                    user, ModelParty(small_weights), ctrl, max_tokens=12, transport=transport
                )
                self.assert_authentic([user], ctrl, transcript, reference)

        model = ModelParty(small_weights)
        ctrl = Controller()
        transcript = Transcript(config=small_weights.config)
        other = self.sampled_user(small_weights, 1, user_id=9, prompt=[3, 3, 8])
        users = [self.sampled_user(small_weights, lam, user_id=lam + 1) for lam in self.LAMBDAS]
        links = [(u, InProcLink(u.handle_frame, transcript)) for u in [other, *users]]
        run_sessions(model, ctrl, links, 12, transcript)
        self.assert_authentic(users, ctrl, transcript, reference)

    def test_flipped_sampled_token_blocks_and_kills(self, small_weights):
        user = self.sampled_user(small_weights, 0)
        assert_flip_kills(user, ModelParty(small_weights), Controller(),
                          self.reference(small_weights))

    def draw_with(self, weights, seed):
        """Decode a user that commits sample seed 42 at setup but then
        draws with seed."""
        user = self.sampled_user(weights, 0)
        honest = user.handle_frame

        def cheat(frame):
            for stream in user.streams.values():
                stream.rule = dataclasses.replace(stream.rule, seed=seed)
            return honest(frame)

        user.handle_frame = cheat
        ctrl = Controller()
        transcript = run_decode_session(user, ModelParty(weights), ctrl, max_tokens=12)
        return ctrl, transcript, next(iter(user.streams))

    def test_drawing_with_an_uncommitted_seed_kills(self, small_weights):
        ctrl, _, _ = self.draw_with(small_weights, 42)
        assert not ctrl.killed
        ctrl, transcript, sid = self.draw_with(small_weights, 43)
        assert ctrl.killed == {sid: "token mismatch"}
        # the prefill token passed; the first decoded token was blocked
        assert [g[:3] for g in transcript.gate_log] == [(0, sid, True), (1, sid, False)]


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


def decoy_user(weights, lam, user_id=1, prompt=(5, 3, 8)):
    """A greedy user party with lam decoys, so lam + 1 streams."""
    from splitdecode.langmodel import NgramModel

    oracle = NgramModel(order=1, vocab_size=weights.config.vocab_size)
    obf = ObfuscationConfig(epsilon=1.0, lambda_max=lam + 1, prf_key=b"d") if lam else NO_OBF
    user = UserParty(user_id, WeightsHandle(weights), oracle=oracle)
    user_prefill(user, TaggedPrompt(tokens=list(prompt), spans=((0, 1),) if lam else ()), obf)
    assert len(user.streams) == lam + 1
    return user


class TestMalformedPartial:
    # small_config has n_heads 2 and head_dim 8, so a PARTIAL for the two
    # streams of a lambda=1 user must carry 2 * 2 * 10 = 40 scalars
    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    @pytest.mark.parametrize("count", [3, 0, 8 + 3])
    def test_wrong_scalar_count_raises(self, small_weights, transport, count):
        assert small_weights.config.head_dim == 8
        user = decoy_user(small_weights, 1)
        model, ctrl = ModelParty(small_weights), Controller()
        honest = user.handle_frame

        def short_or_long(frame):
            msg = protocol.deserialize(frame)
            if msg.tag != TAG_QUERY or msg.layer != 1:
                return honest(frame)
            return [serialize(ProtocolMessage(
                tag=TAG_PARTIAL, session_id=msg.session_id, layer=1, head=msg.head,
                payload=encode_f64s(np.zeros(count)),
            ))]

        user.handle_frame = short_or_long
        start = time.monotonic()
        with pytest.raises(ProtocolError, match=f"for 2 stream.* at layer 1 carries {count} scalars"):
            run_decode_session(user, model, ctrl, max_tokens=4, transport=transport)
        assert time.monotonic() - start < protocol._USER_JOIN_S


def _kill_second(user, ids):
    user.streams[ids[1]].alive = False
    return ids


class TestMalformedQuery:
    """A QUERY that names an unknown, dead or repeated stream, or whose
    stream count disagrees with its payload, is a typed error at the user
    party, on either transport."""

    # case -> (edit of the honest stream id list, expected message)
    CASES = {
        "unknown": (lambda user, ids: [ids[0], 424242], "unknown or dead stream 424242"),
        "dead": (_kill_second, "unknown or dead stream"),
        "repeated": (lambda user, ids: [ids[0], ids[0]], "no stream may appear twice"),
    }

    def run_with(self, weights, transport, monkeypatch, make_frame):
        """Decode a lambda=1 user whose layer-1 QUERYs come from make_frame."""
        user = decoy_user(weights, 1)
        honest = protocol._query_frame

        def patched(stream_ids, layer, qs):
            if layer != 1:
                return honest(stream_ids, layer, qs)
            return make_frame(user, list(stream_ids), layer, qs)

        monkeypatch.setattr(protocol, "_query_frame", patched)
        start = time.monotonic()
        try:
            run_decode_session(user, ModelParty(weights), Controller(), max_tokens=4,
                               transport=transport)
        finally:
            assert time.monotonic() - start < protocol._USER_JOIN_S

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bad_stream_list_raises(self, small_weights, transport, case, monkeypatch):
        edit, message = self.CASES[case]

        def make_frame(user, ids, layer, qs):
            ids = edit(user, ids)
            return serialize(ProtocolMessage(
                tag=TAG_QUERY, session_id=ids[0], layer=layer, head=len(ids),
                payload=encode_query(ids, qs),
            ))

        with pytest.raises(ProtocolError, match=message):
            self.run_with(small_weights, transport, monkeypatch, make_frame)

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    @pytest.mark.parametrize("count", [1, 3])
    def test_stream_count_disagreeing_with_payload_raises(
        self, small_weights, transport, count, monkeypatch
    ):
        def make_frame(user, ids, layer, qs):
            # both streams' ids and queries, under a header naming count streams
            return serialize(ProtocolMessage(
                tag=TAG_QUERY, session_id=ids[0], layer=layer, head=count,
                payload=encode_query(ids, qs),
            ))

        with pytest.raises(ProtocolError, match=f"QUERY names {count} streams"):
            self.run_with(small_weights, transport, monkeypatch, make_frame)


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
        prompt = [2, 4, 6]
        model, ctrl, user = make_session(small_weights, prompt)
        assert_flip_kills(user, model, ctrl, greedy_decode(small_weights, prompt, 16))

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

    def test_non_greedy_session_under_exact_gate(self, small_weights):
        # with sampling on, the gate recomputes each sampled token from the
        # rule the user committed and checks it for equality
        prompt = [6, 2, 9]
        model = ModelParty(small_weights)
        ctrl = Controller()
        user = UserParty(
            4, WeightsHandle(small_weights), temperature=0.8, sample_seed=123
        )
        user_prefill(user, TaggedPrompt(tokens=prompt), NO_OBF)
        transcript = run_decode_session(user, model, ctrl, max_tokens=12)
        sid = next(iter(user.streams))
        assert not ctrl.killed
        assert transcript.tokens[sid] == user.streams[sid].tokens
        assert [g[3] for g in transcript.gate_log] == (
            ["first token (pre-decode)"] + ["matches ground truth"] * 12
        )

    def test_expect_derives_the_check_from_logits(self):
        logits = rng(5).standard_normal(16)

        def outbound(value):
            return ProtocolMessage(tag=TAG_TOKEN, session_id=1, payload=encode_token(value))

        for rule in (TokenRule(), TokenRule(temperature=0.9, seed=42, key=7)):
            ctrl = Controller()
            ctrl.open_stream(1, rule)
            assert controller_gate(ctrl, outbound(0)).passed  # the prefill token
            # token number t is the rule applied at t
            for t in (1, 2, 3):
                ctrl.expect(1, logits)
                assert controller_gate(ctrl, outbound(rule.token(logits, t))).passed
            ctrl.expect(1, logits)
            assert not controller_gate(ctrl, outbound(rule.token(logits, 4) ^ 1)).passed
            assert ctrl.killed == {1: "token mismatch"}

    def test_token_without_ground_truth_kills_after_first(self):
        ctrl = Controller()
        ctrl.open_stream(3)
        first = ProtocolMessage(tag=TAG_TOKEN, session_id=3, payload=encode_token(1))
        assert controller_gate(ctrl, first).passed  # prefill token
        second = ProtocolMessage(tag=TAG_TOKEN, session_id=3, payload=encode_token(1))
        assert not controller_gate(ctrl, second).passed
        assert 3 in ctrl.killed


def run_socket_sessions(model, ctrl, users, max_tokens):
    """run_sessions with one localhost TCP link per user, each user party
    served by serve_user_party on its own thread."""
    transcript = Transcript(config=model.config)
    setup_counts = {u.user_id: len(u.pending_setup) for u in users}
    threads, links = [], []

    def serve(listener, user):
        conn, _ = listener.accept()
        with conn:
            protocol.serve_user_party(user, conn)

    with contextlib.ExitStack() as stack:
        for user in users:
            listener = stack.enter_context(socket.create_server(("127.0.0.1", 0)))
            thread = threading.Thread(target=serve, args=(listener, user), daemon=True)
            thread.start()
            threads.append(thread)
            client = stack.enter_context(socket.create_connection(listener.getsockname()[:2]))
            links.append((user, protocol.SocketLink(client, transcript)))

        def socket_setup(user, link, transcript):
            return [protocol.deserialize(link.recv()) for _ in range(setup_counts[user.user_id])]

        protocol._drive(model, ctrl, links, max_tokens, transcript, socket_setup)
    for thread in threads:
        thread.join(timeout=protocol._USER_JOIN_S)
        assert not thread.is_alive()
    return transcript


class TestArena:
    """Public K/V live in one slot arena; every stream's tokens equal its
    solo greedy decode whichever way the arena is indexed or grown."""

    def test_killed_stream_leaves_a_gather(self, small_weights, monkeypatch):
        prompts = [[3, 1, 4], [1, 5, 9], [2, 6, 5], [3, 5, 8]]
        users = [decoy_user(small_weights, 0, user_id=u, prompt=p) for u, p in enumerate(prompts)]
        victim = users[1]
        original_queue = victim._queue_outward

        def evil_queue(msg):  # flip decoded token 2 of user 1: the gate kills it
            if len(victim.streams[msg.session_id].tokens) == 3:
                msg = ProtocolMessage(tag=msg.tag, session_id=msg.session_id,
                                      payload=encode_token(decode_token(msg.payload) ^ 1))
            original_queue(msg)

        victim._queue_outward = evil_queue
        indexes = []
        arena_rows = protocol._arena_rows

        def noting_rows(rows):
            indexes.append(arena_rows(rows))
            return indexes[-1]

        monkeypatch.setattr(protocol, "_arena_rows", noting_rows)
        model, ctrl = ModelParty(small_weights), Controller()
        transcript = Transcript(config=small_weights.config)
        links = [(u, InProcLink(u.handle_frame, transcript)) for u in users]
        run_sessions(model, ctrl, links, 12, transcript)

        assert list(ctrl.killed) == list(victim.streams)
        # slots 0, 2, 3 stay live after the kill: the arena is gathered
        assert any(isinstance(ix, slice) for ix in indexes)
        assert any(isinstance(ix, np.ndarray) and ix.tolist() == [0, 2, 3] for ix in indexes)
        for user, prompt in zip(users, prompts):
            if user is not victim:
                assert user.authentic_response() == greedy_decode(small_weights, prompt, 12)

    def test_mixed_prompt_lengths_grow_the_rows(self, small_weights):
        c = small_weights.config
        prompts = [list(range(1, 9)), [4, 2, 7], [6] * 5]  # the shortest comes second
        users = [decoy_user(small_weights, 0, user_id=u, prompt=p) for u, p in enumerate(prompts)]
        model = ModelParty(small_weights)
        transcript = Transcript(config=c)
        links = [(u, InProcLink(u.handle_frame, transcript)) for u in users]
        run_sessions(model, Controller(), links, 16, transcript)
        assert model.public_k.shape[:4] == (4, c.n_layers, c.n_heads, c.max_seq - 3)
        for user, prompt in zip(users, prompts):
            assert user.authentic_response() == greedy_decode(small_weights, prompt, 16)

    def test_late_registration_copies_written_rows(self, small_weights):
        c = small_weights.config
        early, late = [5, 9, 2, 7, 7], [8, 1]
        first = decoy_user(small_weights, 0, user_id=1, prompt=early)
        model, ctrl = ModelParty(small_weights), Controller()
        transcript = Transcript(config=c)
        first_link = (first, InProcLink(first.handle_frame, transcript))
        run_sessions(model, ctrl, [first_link], 6, transcript)
        rows_before = model.public_k.shape[3]
        written = model.public_k[0, :, :, :6].copy()

        # a second user with a shorter prompt joins: slots and rows grow
        second = decoy_user(small_weights, 1, user_id=2, prompt=late)
        links = [first_link, (second, InProcLink(second.handle_frame, transcript))]
        run_sessions(model, ctrl, links, 10, transcript)
        assert model.public_k.shape[0] == 4 and model.public_k.shape[3] > rows_before
        assert np.array_equal(model.public_k[0, :, :, :6], written)
        assert not ctrl.killed
        assert first.authentic_response() == greedy_decode(small_weights, early, 16)
        for i, sid in enumerate(second.streams):
            mono = greedy_decode(small_weights, list(second.vps.prompts[i]), 10)
            assert second.streams[sid].tokens == mono


    def test_private_rows_of_unequal_prompts_are_masked(self, small_weights, monkeypatch):
        # virtual prompts share one length, but the user party's padded
        # private arrays do not rely on it: a shorter stream is masked
        import types

        prompts = [(4, 8, 15, 16, 23), (4, 8), (42, 4, 8, 15)]
        monkeypatch.setattr(
            protocol, "build_virtual_prompts",
            lambda *args: types.SimpleNamespace(prompts=prompts, idx=1, lam=2),
        )
        user = UserParty(1, WeightsHandle(small_weights))
        user_prefill(user, TaggedPrompt(tokens=[4, 8]), NO_OBF)
        assert user.private_k.shape[3] == 5
        model, ctrl = ModelParty(small_weights), Controller()
        run_decode_session(user, model, ctrl, max_tokens=12)
        assert not ctrl.killed
        for sid, prompt in zip(user.streams, prompts):
            assert user.streams[sid].tokens == greedy_decode(small_weights, list(prompt), 12)


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

    @pytest.mark.parametrize("driver", ["run_sessions", "inproc", "socket"])
    def test_one_round_time_per_decode_round(self, small_weights, driver):
        model, ctrl, user = make_session(small_weights, [1, 2, 3])
        if driver == "run_sessions":
            transcript = Transcript(config=small_weights.config)
            link = InProcLink(user.handle_frame, transcript)
            run_sessions(model, ctrl, [(user, link)], 8, transcript)
        else:
            transcript = run_decode_session(user, model, ctrl, max_tokens=8, transport=driver)
        steps = comm_accounting(transcript).steps
        assert steps > 0
        assert len(transcript.round_s) == steps
        assert all(s > 0 for s in transcript.round_s)

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_batched_frames_split_per_stream(self, small_weights, transport):
        # two lambda=3 users: every QUERY and PARTIAL carries four streams
        c = small_weights.config
        users = [decoy_user(small_weights, 3, user_id=u, prompt=(u + 2, 7, 1)) for u in (1, 2)]
        model = ModelParty(small_weights, stop_at_eos=False)
        if transport == "inproc":
            transcript = Transcript(config=c)
            links = [(u, InProcLink(u.handle_frame, transcript)) for u in users]
            run_sessions(model, Controller(), links, 6, transcript)
        else:
            transcript = run_socket_sessions(model, Controller(), users, 6)
        queries = [e for e in transcript.entries if e.tag == TAG_QUERY]
        assert queries and all(len(e.streams) == 4 for e in queries)
        report = comm_accounting(transcript)
        assert report.steps == 6
        assert report.constant_per_round
        assert report.round_scalars_per_round == c.n_layers * c.n_heads * (2 * c.head_dim + 2)

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
