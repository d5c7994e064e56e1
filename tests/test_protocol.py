import dataclasses
import itertools
import socket
import struct
import threading
import time
from collections import Counter

import numpy as np
import pytest

from splitdecode import model as model_module
from splitdecode import partition, protocol
from splitdecode.model import (
    PREFILL_CHUNK,
    ROW_BLOCK,
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
    run_sessions,
    user_prefill,
)
from splitdecode.wire import (
    HEADER_SIZE,
    TAG_ABORT,
    TAG_CONTROL,
    TAG_NAMES,
    TAG_PARTIAL,
    TAG_QUERY,
    TAG_TOKEN,
    FrameError,
    ProtocolMessage,
    decode_setup,
    decode_token,
    encode_f64s,
    encode_query,
    encode_setup,
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
    transcript = run_sessions(model, ctrl, [user], len(honest) - 1)
    sid = next(iter(user.streams))
    assert sid in ctrl.killed
    assert transcript.tokens[sid] == honest[:flip_at]
    blocked = [g for g in transcript.gate_log if not g[2]]
    assert blocked and blocked[0][3] == "token mismatch"


class TestSingleSession:
    def test_tokens_equal_monolithic(self, small_weights):
        prompt = [3, 5, 7, 2]
        model, ctrl, user = make_session(small_weights, prompt)
        transcript = run_sessions(model, ctrl, [user], 64)
        sid = next(iter(user.streams))
        assert transcript.tokens[sid] == greedy_decode(small_weights, prompt, 64)

    def test_socket_transport_matches_inproc(self, small_weights):
        # three lambda=1 users: the same frames, in the same order, and the
        # same released tokens on either transport
        fields, tokens = {}, {}
        for transport in ("inproc", "socket"):
            users = [decoy_user(small_weights, 1, user_id=u, prompt=(9 + u, 4, 4, 1))
                     for u in range(3)]
            t = run_sessions(ModelParty(small_weights), Controller(), users, 12,
                             transport=transport)
            fields[transport] = [(e.direction, e.step, e.tag, e.layer, e.head, e.nbytes)
                                 for e in t.entries]
            tokens[transport] = t.tokens
        assert len(tokens["inproc"]) == 6 and all(len(v) > 1 for v in tokens["inproc"].values())
        assert fields["socket"] == fields["inproc"]
        assert tokens["socket"] == tokens["inproc"]

    def test_socket_transport_with_virtual_prompts(self, small_weights):
        from splitdecode.langmodel import NgramModel

        oracle = NgramModel(order=1, vocab_size=small_weights.config.vocab_size)
        obf = ObfuscationConfig(epsilon=1.0, lambda_max=3, prf_key=b"s")
        model = ModelParty(small_weights)
        ctrl = Controller()
        user = UserParty(6, WeightsHandle(small_weights), oracle=oracle, prf_key=b"s")
        user_prefill(user, TaggedPrompt(tokens=[7, 1, 2], spans=((0, 1),)), obf)
        run_sessions(model, ctrl, [user], 8, transport="socket")
        for i, sid in enumerate(user.streams):
            mono = greedy_decode(small_weights, list(user.vps.prompts[i]), 8)
            assert user.streams[sid].tokens == mono

    def test_max_tokens_zero(self, small_weights):
        model, ctrl, user = make_session(small_weights, [5, 6])
        transcript = run_sessions(model, ctrl, [user], 0)
        sid = next(iter(user.streams))
        assert len(transcript.tokens[sid]) == 1  # just the prefill token
        assert all(e.step == 0 for e in transcript.entries)

    def test_unknown_transport(self, small_weights):
        model, ctrl, user = make_session(small_weights, [5, 6])
        with pytest.raises(ValueError):
            run_sessions(model, ctrl, [user], 1, transport="carrier-pigeon")

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_socket_user_failure_is_the_cause(self, small_weights, transport):
        model, ctrl, user = make_session(small_weights, [9, 4, 4, 1])
        handle = user.handle_frame
        frames = itertools.count(1)

        def failing(frame):
            if next(frames) == 5:
                raise ValueError("user party broke on frame 5")
            return handle(frame)

        user.handle_frame = failing
        t0 = time.perf_counter()
        with pytest.raises(ProtocolError, match="user party failed: .*frame 5") as info:
            run_sessions(model, ctrl, [user], 8, transport=transport)
        assert time.perf_counter() - t0 < protocol._USER_JOIN_S
        assert isinstance(info.value.__cause__, ValueError)
        assert model.streams == {}

    @pytest.mark.parametrize("failing", [False, True], ids=["clean", "user-1-fails"])
    def test_socket_sessions_leave_no_thread(self, small_weights, failing):
        users = [decoy_user(small_weights, 1, user_id=u, prompt=(9 + u, 4, 4, 1))
                 for u in range(3)]
        handle, frames = users[1].handle_frame, itertools.count(1)

        def fifth_frame_fails(frame):
            if next(frames) == 5:
                raise ValueError("user party broke on frame 5")
            return handle(frame)

        def run():
            run_sessions(ModelParty(small_weights), Controller(), users, 8, transport="socket")

        before = set(threading.enumerate())
        t0 = time.perf_counter()
        if failing:
            users[1].handle_frame = fifth_frame_fails
            with pytest.raises(ProtocolError, match="frame 5") as info:
                run()
            assert isinstance(info.value.__cause__, ValueError)
        else:
            run()
        assert time.perf_counter() - t0 < protocol._USER_JOIN_S
        # every user thread the call started has ended
        assert set(threading.enumerate()) <= before

    def test_socket_ends_set_no_delay(self, small_weights, monkeypatch):
        # both ends read frames through read_frame: note TCP_NODELAY there
        seen = {}
        read = protocol.read_frame

        def noting_read(sock):
            seen[sock.getsockname()] = sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
            return read(sock)

        monkeypatch.setattr(protocol, "read_frame", noting_read)
        model, ctrl, user = make_session(small_weights, [9, 4, 4, 1])
        run_sessions(model, ctrl, [user], 2, transport="socket")
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
        run_sessions(model, ctrl, [user], 16)
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

    @pytest.mark.parametrize("user_id", [-1, 2**16])
    def test_user_id_checked_when_the_party_is_built(self, small_weights, user_id):
        handle = WeightsHandle(small_weights)
        with pytest.raises(ValueError, match="user_id"):
            UserParty(user_id, handle)
        assert handle.accesses == 0

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
        assert [m.tag for m in msgs] == [TAG_CONTROL] * 4
        assert user.vps.lam == 3

    def test_every_stream_matches_its_own_monolithic(self, small_weights):
        from splitdecode.langmodel import NgramModel

        oracle = NgramModel(order=1, vocab_size=small_weights.config.vocab_size)
        obf = ObfuscationConfig(epsilon=1.0, lambda_max=4, prf_key=b"t")
        model = ModelParty(small_weights)
        ctrl = Controller()
        user = UserParty(1, WeightsHandle(small_weights), oracle=oracle, prf_key=b"t")
        user_prefill(user, TaggedPrompt(tokens=[4, 8, 15], spans=((0, 1),)), obf)
        run_sessions(model, ctrl, [user], 24)
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
                transcript = run_sessions(
                    ModelParty(small_weights), ctrl, [user], 12, transport=transport
                )
                self.assert_authentic([user], ctrl, transcript, reference)

        model = ModelParty(small_weights)
        ctrl = Controller()
        other = self.sampled_user(small_weights, 1, user_id=9, prompt=[3, 3, 8])
        users = [self.sampled_user(small_weights, lam, user_id=lam + 1) for lam in self.LAMBDAS]
        transcript = run_sessions(model, ctrl, [other, *users], 12)
        self.assert_authentic(users, ctrl, transcript, reference)

    def test_flipped_sampled_token_blocks_and_kills(self, small_weights):
        user = self.sampled_user(small_weights, 0)
        assert_flip_kills(user, ModelParty(small_weights), Controller(),
                          self.reference(small_weights))

    def test_swapping_the_seed_after_setup_changes_nothing(self, small_weights):
        # the user party commits sample seed 42 at setup and then swaps in
        # 43; every decoded token is the controller's draw with the
        # committed rule, so the response is the committed one
        user = self.sampled_user(small_weights, 0)
        honest = user.handle_frame

        def cheat(frame):
            for stream in user.streams.values():
                stream.rule = dataclasses.replace(stream.rule, seed=43)
            return honest(frame)

        user.handle_frame = cheat
        ctrl = Controller()
        transcript = run_sessions(ModelParty(small_weights), ctrl, [user], 12)
        self.assert_authentic([user], ctrl, transcript, self.reference(small_weights))


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

    def test_socket_closed_mid_frame_raises(self):
        frame = serialize(ProtocolMessage(tag=TAG_TOKEN, session_id=3, payload=encode_token(1)))
        a, b = socket.socketpair()
        with a, b:
            b.settimeout(5)
            a.sendall(frame[:-3])
            a.shutdown(socket.SHUT_WR)
            with pytest.raises(ProtocolError, match="socket closed mid-frame"):
                read_frame(b)


class TestBatchedStep:
    def test_eight_sessions_match_serial(self, small_weights):
        prompts = [
            rng(100 + i).integers(0, 62, size=int(rng(i).integers(2, 9))).tolist()
            for i in range(8)
        ]
        serial = [greedy_decode(small_weights, p, 20) for p in prompts]

        users = [decoy_user(small_weights, 0, user_id=i, prompt=p) for i, p in enumerate(prompts)]
        run_sessions(ModelParty(small_weights), Controller(), users, 20)
        for user, expected in zip(users, serial):
            sid = next(iter(user.streams))
            assert user.streams[sid].tokens == expected

    def test_batch_of_one_equals_greedy(self, small_weights):
        prompt = [11, 3, 9]
        model, ctrl, user = make_session(small_weights, prompt)
        t = run_sessions(model, ctrl, [user], 10)
        sid = next(iter(user.streams))
        assert t.tokens[sid] == greedy_decode(small_weights, prompt, 10)

    def test_empty_round_returns_nothing(self, small_weights):
        model = ModelParty(small_weights)
        assert model_batch_step(model, [], Controller()) is None

    def test_interleaved_links_match_serial(self, small_weights):
        # two lambda-1 users' streams listed alternately: every stream
        # still decodes its own tokens
        users = [decoy_user(small_weights, 1, user_id=u, prompt=p)
                 for u, p in enumerate(([3, 1, 4], [1, 5, 9]))]
        model, ctrl = ModelParty(small_weights), Controller()
        transcript = Transcript(config=small_weights.config)
        link_of = {}
        for user in users:
            link = InProcLink(user.handle_frame, transcript)
            for msg in user.pending_setup:
                model.handle_user_frame(msg)
            for sid, stream in user.streams.items():
                ctrl.open_stream(sid, stream.rule)
                link_of[sid] = link
        for step in range(1, 9):
            sids = sorted(model.active_streams(), key=lambda sid: (sid % 2**16, sid))
            assert len(sids) == 4 and len({link_of[sid] for sid in sids[1:3]}) == 2
            model_batch_step(model, [(sid, link_of[sid]) for sid in sids], ctrl, step)
        for user in users:
            for sid, stream in user.streams.items():
                prompt = list(user.vps.prompts[stream.index])
                assert stream.tokens == greedy_decode(small_weights, prompt, 8)


class TestOutOfOrder:
    def test_model_rejects_token_frames(self, small_weights):
        # a stream's CONTROL carries its token 0, so a setup TOKEN has no place
        model, ctrl, user = make_session(small_weights, [1, 2])
        for msg in user.pending_setup:
            model.handle_user_frame(msg)
        stream_id = next(iter(user.streams))
        with pytest.raises(ProtocolError, match="model party cannot handle TOKEN frames"):
            model.handle_user_frame(
                ProtocolMessage(tag=TAG_TOKEN, session_id=stream_id, payload=encode_token(1))
            )

    def test_model_rejects_duplicate_stream_registration(self, small_weights):
        model = ModelParty(small_weights)
        setup = ProtocolMessage(tag=TAG_CONTROL, session_id=4, payload=encode_setup(3, 1))
        model.handle_user_frame(setup)
        with pytest.raises(ProtocolError, match="stream 4 registered twice"):
            model.handle_user_frame(setup)

    def test_model_rejects_query_frames(self, small_weights):
        model = ModelParty(small_weights)
        with pytest.raises(ProtocolError, match="model party cannot handle QUERY frames"):
            model.handle_user_frame(
                ProtocolMessage(tag=TAG_QUERY, session_id=1, payload=b"")
            )

    @pytest.mark.parametrize(
        "length", [lambda top: 0, lambda top: top, lambda top: top + 1],
        ids=["0", "max_seq", "max_seq + 1"],
    )
    def test_model_checks_the_setup_length(self, small_weights, length):
        model = ModelParty(small_weights)
        max_seq = small_weights.config.max_seq
        n = length(max_seq)
        setup = ProtocolMessage(tag=TAG_CONTROL, session_id=4, payload=encode_setup(n, 1))
        if n != max_seq:
            with pytest.raises(ProtocolError, match=f"stream 4 set up with a {n}-token prompt"):
                model.handle_user_frame(setup)
            assert model.streams == {}
            return
        # prefill allows a prompt of exactly max_seq; it leaves no room to decode
        model.handle_user_frame(setup)
        assert list(model.streams) == [4]
        assert model.active_streams() == []

    def test_model_step_rejects_a_stream_at_max_seq(self, small_weights):
        model = ModelParty(small_weights)
        max_seq = small_weights.config.max_seq
        model.handle_user_frame(
            ProtocolMessage(tag=TAG_CONTROL, session_id=4, payload=encode_setup(max_seq, 1))
        )
        link = InProcLink(lambda frame: [], Transcript(config=small_weights.config))
        with pytest.raises(ProtocolError, match="stream 4 is listed but does not decode"):
            model_batch_step(model, [(4, link)], Controller())

    @pytest.mark.parametrize("case", ["aborted", "ended", "unregistered"])
    def test_model_step_rejects_a_stream_that_does_not_decode(self, small_weights, case):
        # as a full stream: a listed stream that ModelParty.decodes refuses
        # raises before any frame is sent
        model = ModelParty(small_weights)
        if case != "unregistered":
            token = small_weights.config.eos_token if case == "ended" else 1
            model.handle_user_frame(
                ProtocolMessage(tag=TAG_CONTROL, session_id=4, payload=encode_setup(3, token))
            )
            model.streams[4].aborted = case == "aborted"
        link = InProcLink(lambda frame: [], Transcript(config=small_weights.config))
        with pytest.raises(ProtocolError, match="stream 4 is listed but does not decode"):
            model_batch_step(model, [(4, link)], Controller())
        assert link.transcript.entries == []

    @pytest.mark.parametrize("back", [7, 1, 0])
    def test_stream_decodes_up_to_max_seq(self, small_weights, back):
        # the stream stops when its last row is written, with every token
        # equal to the monolithic decode's and none of them killed
        max_seq = small_weights.config.max_seq
        prompt = rng(back).integers(0, 63, size=max_seq - back).tolist()
        user = UserParty(user_id=1, weights_handle=WeightsHandle(small_weights))
        user_prefill(user, TaggedPrompt(tokens=prompt), NO_OBF)
        model, ctrl = ModelParty(small_weights, stop_at_eos=False), Controller()
        transcript = run_sessions(model, ctrl, [user], 16)
        sid = next(iter(user.streams))
        assert transcript.tokens[sid] == greedy_decode(small_weights, prompt, 16, stop_at_eos=False)
        assert len(transcript.tokens[sid]) == 1 + back
        assert not ctrl.killed and model.active_streams() == []

    def test_user_rejects_unknown_stream(self, small_weights):
        model, ctrl, user = make_session(small_weights, [1, 2])
        bad = serialize(ProtocolMessage(tag=TAG_TOKEN, session_id=424242, payload=encode_token(1)))
        with pytest.raises(ProtocolError, match="unknown or dead stream 424242"):
            user.handle_frame(bad)

    def test_user_rejects_partial_frames(self, small_weights):
        model, ctrl, user = make_session(small_weights, [1, 2])
        sid = next(iter(user.streams))
        bad = serialize(ProtocolMessage(tag=TAG_PARTIAL, session_id=sid, payload=b""))
        with pytest.raises(ProtocolError):
            user.handle_frame(bad)


def decoy_user(weights, lam, user_id=1, prompt=(5, 3, 8), span=0):
    """A greedy user party with lam decoys of the token at span, so
    lam + 1 streams."""
    from splitdecode.langmodel import NgramModel

    oracle = NgramModel(order=1, vocab_size=weights.config.vocab_size)
    obf = ObfuscationConfig(epsilon=1.0, lambda_max=lam + 1, prf_key=b"d") if lam else NO_OBF
    user = UserParty(user_id, WeightsHandle(weights), oracle=oracle)
    spans = ((span, 1),) if lam else ()
    user_prefill(user, TaggedPrompt(tokens=list(prompt), spans=spans), obf)
    assert len(user.streams) == lam + 1
    return user


def stream_rows(user, index):
    """The prompt K/V of the user's stream at index: the shared rows,
    then the stream's own."""
    return (np.concatenate([user.kv.shared_k, user.kv.private_k[index]], axis=2),
            np.concatenate([user.kv.shared_v, user.kv.private_v[index]], axis=2))


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
            run_sessions(model, ctrl, [user], 4, transport=transport)
        assert time.monotonic() - start < protocol._USER_JOIN_S


class TestOutOfOrderReply:
    """A reply whose tag, stream or layer is not the one the model party
    waits for is a typed error, on either transport."""

    # case -> (the reply edited: the user's layer-1 PARTIAL or its TOKEN
    # echoes, the edit of its header)
    EDITS = {
        "tag": (TAG_PARTIAL, lambda msg: {"tag": TAG_TOKEN}),
        "stream": (TAG_PARTIAL, lambda msg: {"session_id": msg.session_id + 1}),
        "layer": (TAG_PARTIAL, lambda msg: {"layer": 0}),
        "echo_tag": (TAG_TOKEN, lambda msg: {"tag": TAG_PARTIAL}),
        "echo_stream": (TAG_TOKEN, lambda msg: {"session_id": msg.session_id + 1}),
        "echo_layer": (TAG_TOKEN, lambda msg: {"layer": 1}),
    }

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    @pytest.mark.parametrize("field", sorted(EDITS))
    def test_wrong_reply_header_raises(self, small_weights, transport, field):
        tag, edit = self.EDITS[field]
        user = decoy_user(small_weights, 1)
        sid = next(iter(user.streams))
        honest = user.handle_frame

        def misaddressed(frame):
            replies = honest(frame)
            reply = protocol.deserialize(replies[0]) if replies else None
            if reply is None or reply.tag != tag or (tag == TAG_PARTIAL and reply.layer != 1):
                return replies
            return [serialize(dataclasses.replace(reply, **edit(reply)))]

        user.handle_frame = misaddressed
        expected = f"PARTIAL {sid}/1/2" if tag == TAG_PARTIAL else f"TOKEN {sid}/0/0"
        start = time.monotonic()
        with pytest.raises(ProtocolError, match=f"out-of-order reply: expected {expected}"):
            run_sessions(ModelParty(small_weights), Controller(), [user], 4, transport=transport)
        assert time.monotonic() - start < protocol._USER_JOIN_S


@pytest.fixture(scope="module")
def pinned_shape_weights():
    """Two layers of the benchmark's pinned model shape, whose products
    test_model.TestRowCount checks."""
    return init_model(ModelConfig(
        n_layers=2, n_heads=4, d_model=256, head_dim=64, vocab_size=256, max_seq=16, seed=3
    ))


@pytest.fixture(scope="module")
def pinned_shape_long_weights():
    """pinned_shape_weights' shape with room for 40-token prompts."""
    return init_model(ModelConfig(
        n_layers=2, n_heads=4, d_model=256, head_dim=64, vocab_size=256, max_seq=48, seed=3
    ))


class RecordingController(Controller):
    """A controller that keeps the logits of each stream's draws."""

    def __init__(self):
        super().__init__()
        self.logits = {}

    def expect(self, stream_id, logits):
        self.logits.setdefault(stream_id, []).append(logits.copy())
        return super().expect(stream_id, logits)


def authentic_logits(weights, users, transport) -> np.ndarray:
    """The logits the controller draws the first user's authentic stream
    from, over three rounds of run_sessions."""
    ctrl = RecordingController()
    run_sessions(ModelParty(weights, stop_at_eos=False), ctrl, users, 3, transport=transport)
    return np.array(ctrl.logits[list(users[0].streams)[users[0].vps.idx]])


class TestBatchInvariance:
    """A stream's logits do not depend on what shares its round: a round
    of fewer than _MIN_ROUND_ROWS streams is padded, so the authentic
    stream's logits are bit for bit the same alone and beside 1, 2, 3 and
    15 other users, on either transport."""

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    @pytest.mark.parametrize("lam", [0, 3])
    def test_logits_do_not_depend_on_other_users(self, pinned_shape_weights, transport, lam):
        w = pinned_shape_weights
        others = [rng(u).integers(0, 200, size=4).tolist() for u in range(2, 17)]
        alone = None
        for count in (0, 1, 2, 3, 15):
            users = [decoy_user(w, lam, user_id=1, prompt=(5, 3, 8, 9), span=2)] + [
                decoy_user(w, lam, user_id=u, prompt=p, span=2)
                for u, p in zip(range(2, 17), others[:count])
            ]
            logits = authentic_logits(w, users, transport)
            assert logits.shape == (3, 256)
            if alone is None:
                alone = logits
            assert np.array_equal(logits, alone), count


class TestLambdaInvariance:
    """The authentic stream's logits do not depend on lambda: each stream
    reads the shared rows with products of its own, so they are bit for
    bit the same at lambda 1, 2, 3 and 7, on either transport. Lambda 0
    is left out: its values product sums one part where lambda >= 1 sums
    two."""

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    @pytest.mark.parametrize("n,span", [(4, 2), (40, 20), (40, 36)])
    def test_logits_do_not_depend_on_lambda(self, pinned_shape_long_weights, transport, n, span):
        w = pinned_shape_long_weights
        prompt = (5, 3, 8, 9) if n == 4 else rng(span).integers(0, 200, size=n).tolist()
        want = None
        for lam in (1, 2, 3, 7):
            logits = authentic_logits(w, [decoy_user(w, lam, prompt=prompt, span=span)], transport)
            assert logits.shape == (3, 256)
            if want is None:
                want = logits
            assert np.array_equal(logits, want), lam


class TestKernelCalls:
    """Partial-kernel calls per decode round, at small versions of the
    perfbench workloads' shapes: the user party makes one per QUERY, the
    model party one per layer, and monolithic decode none. A change that
    moves these counts says so."""

    # users, prompt length, lambda, tagged token, transport
    SHAPES = {
        "decode_heavy": (4, 16, 1, 0, "inproc"),
        "prefill_decoys": (2, 12, 3, 8, "inproc"),
        "socket_stream": (1, 32, 3, 0, "socket"),
    }

    @staticmethod
    def count_calls(monkeypatch) -> dict:
        """Count the kernel's calls per party: the user party calls it as
        protocol._softmax_partial, the model party through
        partition._slot_attention."""
        calls, lock = {"user": 0, "model": 0}, threading.Lock()
        for module, party in ((protocol, "user"), (partition, "model")):
            def counted(*args, kernel=module._softmax_partial, party=party):
                with lock:  # socket user parties answer on their own threads
                    calls[party] += 1
                return kernel(*args)

            monkeypatch.setattr(module, "_softmax_partial", counted)
        return calls

    @pytest.mark.parametrize("workload", sorted(SHAPES))
    def test_calls_per_round(self, small_weights, monkeypatch, workload):
        count, n, lam, span, transport = self.SHAPES[workload]
        users = [decoy_user(small_weights, lam, user_id=u, span=span,
                            prompt=rng(u).integers(0, 60, size=n).tolist())
                 for u in range(1, count + 1)]
        calls = self.count_calls(monkeypatch)
        transcript = run_sessions(ModelParty(small_weights, stop_at_eos=False), Controller(),
                                  users, 5, transport=transport)
        rounds, layers = len(transcript.round_s), small_weights.config.n_layers
        queries = sum(e.tag == TAG_QUERY for e in transcript.entries)
        assert rounds == 5 and queries == rounds * layers * count
        assert calls == {"user": queries, "model": rounds * layers}

    def test_monolithic_decode_makes_none(self, small_weights, monkeypatch):
        # mono_reference's path: prefill, then decode_step_monolithic
        calls = self.count_calls(monkeypatch)
        assert len(greedy_decode(small_weights, list(range(16)), 4, stop_at_eos=False)) == 5
        assert calls == {"user": 0, "model": 0}


class TestMalformedFrame:
    """A user party's frame that breaks the wire format, or a reply it
    never sends, is a ProtocolError on either transport, and kills no
    stream."""

    @staticmethod
    def unassigned_tag(user):
        honest = user.handle_frame
        user.handle_frame = lambda frame: [
            reply[:4] + b"\x04" + reply[5:] if reply[4] == TAG_PARTIAL else reply
            for reply in honest(frame)
        ]

    @staticmethod
    def short_setup_token(user):
        # each CONTROL keeps its prompt length and half of its token 0
        user.pending_setup = [
            dataclasses.replace(msg, payload=msg.payload[:8]) for msg in user.pending_setup
        ]

    @staticmethod
    def short_length_prefix(user):
        honest = user.handle_frame
        user.handle_frame = lambda frame: [
            struct.pack("<I", len(reply) - 4 - 8) + reply[4:] for reply in honest(frame)
        ]

    @staticmethod
    def long_length_prefix(user):
        # a socket reader waits for 8 bytes that never come, until the
        # link's deadline
        honest = user.handle_frame
        user.handle_frame = lambda frame: [
            struct.pack("<I", len(reply) - 4 + 8) + reply[4:] for reply in honest(frame)
        ]

    @staticmethod
    def no_reply(user):
        # the in-process link finds no reply queued; the socket link waits
        # until its deadline
        honest = user.handle_frame
        user.handle_frame = lambda frame: [] if frame[4] == TAG_QUERY else honest(frame)

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    @pytest.mark.parametrize("fault", ["unassigned_tag", "short_setup_token",
                                       "short_length_prefix", "long_length_prefix", "no_reply"])
    def test_broken_frame_is_a_protocol_error(self, small_weights, transport, fault):
        user = decoy_user(small_weights, 1)
        getattr(self, fault)(user)
        ctrl = Controller()
        start = time.monotonic()
        with pytest.raises(ProtocolError):
            run_sessions(ModelParty(small_weights), ctrl, [user], 4, transport=transport)
        assert time.monotonic() - start < protocol._USER_JOIN_S
        assert not ctrl.killed

    def test_socket_reset_is_a_protocol_error(self, small_weights, monkeypatch):
        # the user side reads the first QUERY, then resets the connection
        def reset_after_query(user, sock):
            sock.sendall(b"".join(serialize(msg) for msg in user.pending_setup))
            read_frame(sock)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()

        monkeypatch.setattr(protocol, "serve_user_party", reset_after_query)
        user = decoy_user(small_weights, 1)
        ctrl = Controller()
        start = time.monotonic()
        with pytest.raises(ProtocolError, match="socket link failed"):
            run_sessions(ModelParty(small_weights), ctrl, [user], 4, transport="socket")
        assert time.monotonic() - start < protocol._USER_JOIN_S
        assert not ctrl.killed


class TestStreamSetup:
    """Each stream is set up by one CONTROL frame on its own link, which
    carries its prompt length and token 0."""

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_one_control_frame_per_stream(self, small_weights, transport):
        # a lambda=3 user: step 0 carries its four streams' CONTROLs of 29
        # bytes (length prefix and header, a u32 prompt length and a u64
        # token 0) and nothing else, and the gate passes each token 0
        user = decoy_user(small_weights, 3)
        transcript = run_sessions(ModelParty(small_weights), Controller(), [user], 2,
                                  transport=transport)
        setup = [(e.direction, e.tag, e.session_id, e.nbytes)
                 for e in transcript.entries if e.step == 0]
        assert setup == [("u2m", TAG_CONTROL, sid, 29) for sid in user.streams]
        assert [g for g in transcript.gate_log if g[0] == 0] == [
            (0, sid, True, "first token (pre-decode)") for sid in user.streams]

    # a CONTROL naming no user's stream, or another user's, placed first in
    # the first user's setup
    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    @pytest.mark.parametrize("target", ["phantom", "other_user"])
    def test_setup_names_only_its_links_streams(self, small_weights, transport, target):
        first, second = (decoy_user(small_weights, 1, user_id=u) for u in (1, 2))
        sid = 2**16 + 5000 if target == "phantom" else next(iter(second.streams))
        first.pending_setup.insert(0, dataclasses.replace(first.pending_setup[0], session_id=sid))
        model = ModelParty(small_weights)
        with pytest.raises(ProtocolError, match=f"setup frame names stream {sid},"):
            run_sessions(model, Controller(), [first, second], 4, transport=transport)
        assert model.public_k.shape[0] == 0 and model.streams == {}

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_a_user_party_is_served_once(self, small_weights, transport):
        # its CONTROLs went out in the first call, so the second reads none
        # for its streams: a typed error within the link's deadline, not an
        # empty session
        user = decoy_user(small_weights, 1)
        model, ctrl = ModelParty(small_weights), Controller()
        run_sessions(model, ctrl, [user], 3, transport=transport)
        start = time.monotonic()
        with pytest.raises(ProtocolError, match="reply frame"):
            run_sessions(model, ctrl, [user], 3, transport=transport)
        assert time.monotonic() - start < protocol._USER_JOIN_S
        assert model.streams == {} and ctrl.streams == {}


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
            run_sessions(ModelParty(weights), Controller(), [user], 4, transport=transport)
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

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_layer_past_the_model_raises(self, small_weights, transport, monkeypatch):
        n = small_weights.config.n_layers

        def make_frame(user, ids, layer, qs):
            return serialize(ProtocolMessage(
                tag=TAG_QUERY, session_id=ids[0], layer=n, head=len(ids),
                payload=encode_query(ids, qs),
            ))

        with pytest.raises(ProtocolError, match=f"QUERY for layer {n} of a {n}-layer model"):
            self.run_with(small_weights, transport, monkeypatch, make_frame)


class TestMalformedToken:
    """A TOKEN from the model party that is not one u64 below vocab_size
    is a typed error at the user party, on either transport; the party
    keeps nothing of it and the gate kills nothing."""

    # small_config's vocab_size is 64
    PAYLOADS = {"short": b"\x00" * 4, "long": b"\x00" * 9,
                "64": encode_token(64), "1000000": encode_token(10**6)}

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    @pytest.mark.parametrize("payload", sorted(PAYLOADS))
    def test_bad_token_raises(self, small_weights, transport, payload):
        user = decoy_user(small_weights, 1)
        sid = next(iter(user.streams))
        honest = user.handle_frame

        def bad_token(frame):
            msg = protocol.deserialize(frame)
            if msg.tag == TAG_TOKEN:
                frame = serialize(dataclasses.replace(msg, payload=self.PAYLOADS[payload]))
            return honest(frame)

        user.handle_frame = bad_token
        ctrl = Controller()
        with pytest.raises(ProtocolError, match=f"TOKEN for stream {sid} is not one token id"):
            run_sessions(ModelParty(small_weights), ctrl, [user], 4, transport=transport)
        assert [len(s.tokens) for s in user.streams.values()] == [1, 1]
        assert not ctrl.killed


def _token_for(frame: bytes) -> bytes:
    """A TOKEN for the first stream frame names."""
    sid = protocol.deserialize(frame).session_id
    return serialize(ProtocolMessage(tag=TAG_TOKEN, session_id=sid, payload=encode_token(1)))


def _at_layer(frame: bytes, layer: int) -> bytes:
    return serialize(dataclasses.replace(protocol.deserialize(frame), layer=layer))


class TestRoundSchedule:
    """A user party takes the round schedule only: per round, a QUERY
    naming each of its live streams at layers 0, 1, ... in turn, then one
    TOKEN per stream. The model party sending anything else is a
    ProtocolError at the user party, on either transport, within
    _USER_JOIN_S."""

    # case -> (tag and layer of the round-1 frame replaced, the frames sent
    # in its place, the user party's error); small_config has 2 layers
    CASES = {
        "early_token": ((TAG_QUERY, 0), lambda f: [_token_for(f), f],
                        r"TOKEN for stream \d+ at layer 0 of 2"),
        "two_tokens": ((TAG_TOKEN, 0), lambda f: [f, f], r"TOKEN for stream \d+ at layer 0 of 2"),
        "skipped_layer": ((TAG_QUERY, 1), lambda f: [_token_for(f)],
                          r"TOKEN for stream \d+ at layer 1 of 2"),
        "repeated_layer": ((TAG_QUERY, 0), lambda f: [f, f],
                           r"QUERY for layer 0 names stream \d+ at layer 1 of 2"),
        "layer_1_before_0": ((TAG_QUERY, 0), lambda f: [_at_layer(f, 1)],
                             r"QUERY for layer 1 names stream \d+ at layer 0 of 2"),
        "1000_extra_queries": ((TAG_QUERY, 0), lambda f: [f] * 1001,
                               r"QUERY for layer 0 names stream \d+ at layer 1 of 2"),
    }

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_off_schedule_frames_raise(self, small_weights, transport, case, monkeypatch):
        (tag, layer), frames, message = self.CASES[case]
        link_class = protocol.SocketLink if transport == "socket" else InProcLink
        send, replaced = link_class.send, []

        def off_schedule(link, frame):
            msg = protocol.deserialize(frame)
            if replaced or link.step != 1 or (msg.tag, msg.layer) != (tag, layer):
                return send(link, frame)
            replaced.append(frame)
            for sent in frames(frame):
                send(link, sent)

        monkeypatch.setattr(link_class, "send", off_schedule)
        user = decoy_user(small_weights, 1)
        start = time.monotonic()
        with pytest.raises(ProtocolError, match=f"user party failed: .*{message}"):
            run_sessions(ModelParty(small_weights), Controller(), [user], 4, transport=transport)
        assert time.monotonic() - start < protocol._USER_JOIN_S
        # the user party kept no token beyond the honest ones
        assert all(len(s.tokens) <= 2 for s in user.streams.values())


class TestStreamIsolation:
    """One user's outward messages never gate, kill or abort another
    user's stream, a kill aborts its stream once, and a controller serves
    one user's streams again in a later session."""

    PROMPTS = ([3, 1, 4], [1, 5, 9])

    def two_users(self, weights):
        return [decoy_user(weights, 0, user_id=u, prompt=p) for u, p in enumerate(self.PROMPTS)]

    @staticmethod
    def add_to_round_one(user, extra):
        """After the user's own token of round 1, queue extra(msg)'s
        messages outward too."""
        original_queue = user._queue_outward

        def queue(msg):
            original_queue(msg)
            if len(user.streams[msg.session_id].tokens) == 2:
                for forged in extra(msg):
                    original_queue(forged)

        user._queue_outward = queue

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    @pytest.mark.parametrize("guess", ["right", "wrong"])
    def test_token_for_another_users_stream_is_blocked(self, small_weights, guess, transport):
        first, second = self.two_users(small_weights)
        victim = next(iter(second.streams))
        reference = greedy_decode(small_weights, self.PROMPTS[1], 6)
        token = reference[1] if guess == "right" else reference[1] ^ 1
        self.add_to_round_one(first, lambda msg: [ProtocolMessage(
            tag=TAG_TOKEN, session_id=victim, payload=encode_token(token))])
        ctrl = Controller()
        transcript = run_sessions(ModelParty(small_weights), ctrl, [first, second], 6,
                                  transport=transport)
        assert not ctrl.killed
        assert (1, victim, False, "stream of another user") in transcript.gate_log
        assert transcript.tokens[victim] == reference
        assert transcript.tokens[next(iter(first.streams))] == greedy_decode(
            small_weights, self.PROMPTS[0], 6)

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_a_stream_is_aborted_once(self, small_weights, transport):
        first, second = self.two_users(small_weights)
        culprit = next(iter(first.streams))

        def flipped_twice(msg):
            wrong = decode_token(msg.payload) ^ 1
            return [ProtocolMessage(tag=TAG_TOKEN, session_id=culprit,
                                    payload=encode_token(wrong))] * 2

        self.add_to_round_one(first, flipped_twice)
        ctrl = Controller()
        transcript = run_sessions(ModelParty(small_weights), ctrl, [first, second], 6,
                                  transport=transport)
        assert list(ctrl.killed) == [culprit]
        aborts = [(e.step, e.session_id) for e in transcript.entries if e.tag == TAG_ABORT]
        assert aborts == [(1, culprit)]
        assert transcript.tokens[next(iter(second.streams))] == greedy_decode(
            small_weights, self.PROMPTS[1], 6)

    # a stream that has ended, at max_seq or at EOS, and whose last
    # outward token is then flipped, is killed with no ABORT
    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    @pytest.mark.parametrize("end", ["max_seq", "eos"])
    def test_a_stream_killed_after_it_ends_is_not_aborted(self, small_weights, end, transport):
        if end == "eos":
            prompt, stop_at_eos = [22, 35], True
        else:
            prompt, stop_at_eos = [3, 1, 4] * 31 + [1], False  # two rows below max_seq
        honest = greedy_decode(small_weights, prompt, 16, stop_at_eos=stop_at_eos)
        assert (honest[-1] == small_weights.config.eos_token) == (end == "eos")
        user = decoy_user(small_weights, 0, prompt=prompt)
        sid = next(iter(user.streams))
        original_queue = user._queue_outward

        def flip_last(msg):
            if len(user.streams[sid].tokens) == len(honest):
                msg = ProtocolMessage(tag=msg.tag, session_id=sid,
                                      payload=encode_token(decode_token(msg.payload) ^ 1))
            original_queue(msg)

        user._queue_outward = flip_last
        ctrl = Controller()
        transcript = run_sessions(ModelParty(small_weights, stop_at_eos=stop_at_eos), ctrl,
                                  [user], 16, transport=transport)
        assert list(ctrl.killed) == [sid]
        assert transcript.tokens[sid] == honest[:-1]
        assert not [e for e in transcript.entries if e.tag == TAG_ABORT]

    def test_a_controller_serves_sequential_sessions(self, small_weights):
        model, ctrl = ModelParty(small_weights), Controller()
        for prompt in ([2, 7, 1], [8, 2, 8]):
            user = decoy_user(small_weights, 0, user_id=1, prompt=prompt)
            transcript = run_sessions(model, ctrl, [user], 5)
            assert not ctrl.killed
            assert transcript.tokens[next(iter(user.streams))] == greedy_decode(
                small_weights, prompt, 5)

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_a_controller_forgets_a_calls_streams(self, small_weights, transport):
        # user 1's decoded token 2 is flipped in the first call, then user 2
        # decodes honestly on the same parties: neither call leaves a stream
        # open, and the kill stays until its stream id is opened again
        model, ctrl = ModelParty(small_weights), Controller()
        first, second = (decoy_user(small_weights, 0, user_id=u, prompt=p)
                         for u, p in zip((1, 2), self.PROMPTS))
        culprit = next(iter(first.streams))
        original_queue = first._queue_outward

        def flip_token_2(msg):
            if len(first.streams[culprit].tokens) == 3:
                msg = ProtocolMessage(tag=TAG_TOKEN, session_id=culprit,
                                      payload=encode_token(decode_token(msg.payload) ^ 1))
            original_queue(msg)

        first._queue_outward = flip_token_2
        run_sessions(model, ctrl, [first], 6, transport=transport)
        assert ctrl.killed == {culprit: "token mismatch"} and ctrl.streams == {}
        transcript = run_sessions(model, ctrl, [second], 6, transport=transport)
        assert ctrl.streams == {} and model.streams == {}
        assert ctrl.killed == {culprit: "token mismatch"}
        assert transcript.tokens[next(iter(second.streams))] == greedy_decode(
            small_weights, self.PROMPTS[1], 6)


class TestOwedToken:
    """A stream owes the gate one token at a time: token 0 until the first
    draw, then each draw until the stream's next token goes out. A token
    owed to no draw is blocked, and a draw still owed when the next is
    made kills the stream, on either transport; a killed stream that
    still decodes is aborted once, whether it sends anything or not."""

    PROMPTS = ([3, 5, 7, 2], [9, 4, 4, 1])

    def run(self, weights, transport, outward, withhold_token_0=False):
        """Decode two one-stream users 6 rounds, the first one's outward
        messages passing through outward(user, msg, queue), queue being
        the honest one; the second user's tokens stay its greedy decode."""
        first, second = (decoy_user(weights, 0, user_id=u, prompt=p)
                         for u, p in enumerate(self.PROMPTS))
        if withhold_token_0:
            first.take_outward()
        queue = first._queue_outward
        first._queue_outward = lambda msg: outward(first, msg, queue)
        ctrl = Controller()
        transcript = run_sessions(ModelParty(weights), ctrl, [first, second], 6,
                                  transport=transport)
        assert transcript.tokens[next(iter(second.streams))] == greedy_decode(
            weights, self.PROMPTS[1], 6)
        return next(iter(first.streams)), ctrl, transcript

    @staticmethod
    def aborts(transcript):
        return [(e.step, e.session_id) for e in transcript.entries if e.tag == TAG_ABORT]

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_a_withheld_token_0_lets_no_later_token_out(self, small_weights, transport):
        # token 0 never goes out; after decoded token 2 the user sends 63 too
        def smuggle(user, msg, queue):
            queue(msg)
            if len(user.streams[msg.session_id].tokens) == 3:
                queue(ProtocolMessage(tag=TAG_TOKEN, session_id=msg.session_id,
                                      payload=encode_token(63)))

        sid, ctrl, transcript = self.run(small_weights, transport, smuggle, withhold_token_0=True)
        assert ctrl.killed == {sid: "token without ground truth"}
        assert (2, sid, False, "token without ground truth") in transcript.gate_log
        assert transcript.tokens[sid] == greedy_decode(small_weights, self.PROMPTS[0], 2)[1:]
        assert self.aborts(transcript) == [(2, sid)]

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_a_token_held_back_a_round_kills(self, small_weights, transport):
        # decoded token 2 goes out in round 3, before token 3
        held = []

        def delay(user, msg, queue):
            if len(user.streams[msg.session_id].tokens) == 3:
                held.append(msg)
                return
            for early in held:
                queue(early)
            held.clear()
            queue(msg)

        sid, ctrl, transcript = self.run(small_weights, transport, delay)
        assert ctrl.killed == {sid: "draw withheld"}
        assert transcript.tokens[sid] == greedy_decode(small_weights, self.PROMPTS[0], 1)
        assert [g for g in transcript.gate_log if g[1] == sid and not g[2]] == [
            (3, sid, False, "session killed")] * 2
        assert self.aborts(transcript) == [(3, sid)]

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_a_silent_stream_is_aborted_once(self, small_weights, transport):
        # the user sends tokens 0 and 1, then nothing
        def silent(user, msg, queue):
            if len(user.streams[msg.session_id].tokens) <= 2:
                queue(msg)

        sid, ctrl, transcript = self.run(small_weights, transport, silent)
        assert ctrl.killed == {sid: "draw withheld"}
        assert self.aborts(transcript) == [(3, sid)]
        later = [e.session_id for e in transcript.entries if e.tag == TAG_QUERY and e.step > 3]
        assert later and sid not in later
        assert transcript.tokens[sid] == greedy_decode(small_weights, self.PROMPTS[0], 1)


class TestOutOfVocabularyToken:
    """A setup token the model cannot embed, and a decode reply that does
    not echo the token the model party sent, are typed errors naming the
    stream, on either transport."""

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    @pytest.mark.parametrize("token", [64, 10**6])  # small_config's vocab_size is 64
    def test_setup_token(self, small_weights, transport, token):
        user = decoy_user(small_weights, 1)
        sid = next(iter(user.streams))
        user.pending_setup = [
            dataclasses.replace(msg, payload=encode_setup(decode_setup(msg.payload)[0], token))
            if msg.session_id == sid else msg
            for msg in user.pending_setup
        ]
        with pytest.raises(ProtocolError, match=f"stream {sid} sent token {token}, outside"):
            run_sessions(ModelParty(small_weights), Controller(), [user], 4,
                         transport=transport)

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    @pytest.mark.parametrize("token", [11, 64, 10**6, "short"])
    def test_decode_reply(self, small_weights, transport, token):
        # the stream's first decoded token is not 11, so every case steers
        user = decoy_user(small_weights, 1)
        sid = next(iter(user.streams))
        honest = user.handle_frame
        payload, named = (b"\x00" * 4, "a 4-byte payload") if token == "short" else (
            encode_token(token), f"token {token}")

        def steering_reply(frame):
            return [
                serialize(ProtocolMessage(tag=TAG_TOKEN, session_id=sid, payload=payload))
                if reply.tag == TAG_TOKEN and reply.session_id == sid else serialize(reply)
                for reply in map(protocol.deserialize, honest(frame))
            ]

        user.handle_frame = steering_reply
        ctrl = Controller()
        with pytest.raises(ProtocolError,
                           match=f"stream {sid} echoed {named}, not the controller's draw"):
            run_sessions(ModelParty(small_weights), ctrl, [user], 4, transport=transport)
        assert not ctrl.killed


class TestController:
    def test_non_token_blocked(self):
        ctrl = Controller()
        ctrl.open_stream(1)
        msg = ProtocolMessage(tag=TAG_CONTROL, session_id=1, payload=b"\x00" * 4)
        assert not controller_gate(ctrl, msg).passed

    def test_correct_token_passes(self):
        ctrl = Controller()
        ctrl.open_stream(1)
        ctrl.expect(1, np.eye(64)[42])  # greedy: token 42
        msg = ProtocolMessage(tag=TAG_TOKEN, session_id=1, payload=encode_token(42))
        assert controller_gate(ctrl, msg).passed

    def test_flipped_token_blocks_and_kills(self, small_weights):
        prompt = [2, 4, 6]
        model, ctrl, user = make_session(small_weights, prompt)
        assert_flip_kills(user, model, ctrl, greedy_decode(small_weights, prompt, 16))

    def test_malformed_token_payload_kills(self):
        ctrl = Controller()
        ctrl.open_stream(1)
        msg = ProtocolMessage(tag=TAG_TOKEN, session_id=1, payload=b"\x00" * 4)
        decision = controller_gate(ctrl, msg)
        assert not decision.passed and decision.reason == "malformed token payload"
        assert ctrl.killed == {1: "malformed token payload"}

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
        transcript = run_sessions(model, ctrl, [user], 12)
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

    @staticmethod
    def token(value, sid=1):
        return ProtocolMessage(tag=TAG_TOKEN, session_id=sid, payload=encode_token(value))

    def test_a_draw_still_owed_at_the_next_kills(self):
        ctrl = Controller()
        ctrl.open_stream(1)
        assert controller_gate(ctrl, self.token(5)).passed  # the prefill token
        ctrl.expect(1, np.eye(64)[42])
        assert 1 not in ctrl.killed
        ctrl.expect(1, np.eye(64)[43])  # 42 never went out
        assert ctrl.killed == {1: "draw withheld"}
        assert not controller_gate(ctrl, self.token(43)).passed

    def test_a_later_draw_keeps_the_first_kill_reason(self):
        ctrl = Controller()
        ctrl.open_stream(1)
        ctrl.expect(1, np.eye(64)[42])
        assert controller_gate(ctrl, self.token(41)).reason == "token mismatch"
        ctrl.expect(1, np.eye(64)[42])
        ctrl.expect(1, np.eye(64)[42])
        assert ctrl.killed == {1: "token mismatch"}

    def test_token_0_cannot_pass_after_the_first_draw(self):
        ctrl = Controller()
        ctrl.open_stream(1)
        ctrl.expect(1, np.eye(64)[42])
        assert controller_gate(ctrl, self.token(42)).passed
        decision = controller_gate(ctrl, self.token(7))  # the held-back token 0
        assert (decision.passed, decision.reason) == (False, "token without ground truth")
        assert ctrl.killed == {1: "token without ground truth"}


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
        arena_rows = partition._arena_rows

        def noting_rows(rows):
            indexes.append(arena_rows(rows))
            return indexes[-1]

        monkeypatch.setattr(partition, "_arena_rows", noting_rows)
        model, ctrl = ModelParty(small_weights), Controller()
        run_sessions(model, ctrl, users, 12)

        assert list(ctrl.killed) == list(victim.streams)
        # slots 0, 2, 3 stay live after the kill: the arena is gathered
        assert any(isinstance(ix, slice) for ix in indexes)
        assert any(isinstance(ix, np.ndarray) and ix.tolist() == [0, 2, 3] for ix in indexes)
        for user, prompt in zip(users, prompts):
            if user is not victim:
                assert user.authentic_response() == greedy_decode(small_weights, prompt, 12)

    def test_sequential_sessions_forget_their_streams(self, small_weights):
        # each session leaves the model party as it found it: one slot,
        # reused by the next session's stream
        model = ModelParty(small_weights)
        for u in range(9):
            prompt = [3 + u, 1, 4]
            user = decoy_user(small_weights, 0, user_id=u, prompt=prompt)
            transcript = run_sessions(model, Controller(), [user], 4)
            assert model.streams == {}
            assert model.public_k.shape[0] == 1
            assert transcript.tokens[next(iter(user.streams))] == greedy_decode(
                small_weights, prompt, 4
            )

    def test_mixed_prompt_lengths_grow_the_rows(self, small_weights):
        c = small_weights.config
        prompts = [list(range(1, 9)), [4, 2, 7], [6] * 5]  # the shortest comes second
        users = [decoy_user(small_weights, 0, user_id=u, prompt=p) for u, p in enumerate(prompts)]
        model = ModelParty(small_weights)
        run_sessions(model, Controller(), users, 16)
        assert model.public_k.shape[:4] == (4, c.n_layers, c.n_heads, c.max_seq - 3)
        for user, prompt in zip(users, prompts):
            assert user.authentic_response() == greedy_decode(small_weights, prompt, 16)

    def test_late_registration_copies_written_rows(self, small_weights):
        early, late = [5, 9, 2, 7, 7], [8, 1]
        model, ctrl = ModelParty(small_weights), Controller()
        transcript = Transcript(config=small_weights.config)
        users, link_of = [], {}

        def join(user):  # what run_sessions does at setup
            users.append(user)
            link = InProcLink(user.handle_frame, transcript)
            for msg in user.pending_setup:
                model.handle_user_frame(msg)
            for sid, stream in user.streams.items():
                ctrl.open_stream(sid, stream.rule)
                link_of[sid] = link
            route()

        def route():
            for msg in (m for user in users for m in user.take_outward()):
                assert controller_gate(ctrl, msg).passed

        def rounds(n):
            for _ in range(n):
                pairs = [(sid, link_of[sid]) for sid in model.active_streams()]
                model_batch_step(model, pairs, controller=ctrl)
                route()

        first = decoy_user(small_weights, 0, user_id=1, prompt=early)
        join(first)
        rounds(6)
        rows_before = model.public_k.shape[3]
        written = model.public_k[0, :, :, :6].copy()

        # a second user with a shorter prompt joins mid-decode: slots and rows grow
        second = decoy_user(small_weights, 1, user_id=2, prompt=late)
        join(second)
        rounds(10)
        assert model.public_k.shape[0] == 4 and model.public_k.shape[3] > rows_before
        assert np.array_equal(model.public_k[0, :, :, :6], written)
        assert not ctrl.killed
        assert first.authentic_response() == greedy_decode(small_weights, early, 16)
        for i, sid in enumerate(second.streams):
            mono = greedy_decode(small_weights, list(second.vps.prompts[i]), 10)
            assert second.streams[sid].tokens == mono


@pytest.fixture(scope="module")
def long_weights():
    """Room for prompts of several prefill chunks, at the pinned
    benchmark model's head_dim."""
    return init_model(ModelConfig(
        n_layers=2, n_heads=2, d_model=128, head_dim=64, vocab_size=64, max_seq=160, seed=5
    ))


def _prefill_rows(weights, lam, prompt, span, monkeypatch):
    """user_prefill the prompt with lam decoys at span, counting the
    token rows model.trunk runs, padding rows included, and recording the
    logits prefill returns for the virtual prompts."""
    rows, logits = [], []
    trunk, prefill_ = model_module.trunk, protocol.prefill

    def counting_trunk(weights, tokens, *args, **kwargs):
        rows.append(np.size(tokens))
        return trunk(weights, tokens, *args, **kwargs)

    def recording_prefill(*args, **kwargs):
        kv, last = prefill_(*args, **kwargs)
        logits.append(last)
        return kv, last

    with monkeypatch.context() as patch:
        patch.setattr(model_module, "trunk", counting_trunk)
        patch.setattr(protocol, "prefill", recording_prefill)
        user = decoy_user(weights, lam, prompt=prompt, span=span)
    assert len(logits) == 1
    return user, sum(rows), logits[0]


def _set_rows(n, p, prompts):
    """The trunk rows prefill runs for prompts of n tokens that agree on
    p: per chunk of m rows, its U distinct rows in whole blocks, of
    ROW_BLOCK rows where m is a multiple of ROW_BLOCK and of m rows
    otherwise."""
    total = 0
    for lo in range(0, n, PREFILL_CHUNK):
        hi = min(lo + PREFILL_CHUNK, n)
        mid = min(max(p, lo), hi)
        distinct = (mid - lo) + prompts * (hi - mid)
        block = ROW_BLOCK if (hi - lo) % ROW_BLOCK == 0 else hi - lo
        total += -(-distinct // block) * block
    return total


class TestSharedPrefixPrefill:
    """The virtual prompts prefill as one set: the rows they share run
    once per chunk and are kept once. Every stream's prompt rows (the
    shared rows, then its own) and first-token logits are bit-identical
    to prefilling its prompt alone, and no tolerance is allowed."""

    LAMBDAS = (0, 1, 3, 7)
    CASES = [
        (n, s)
        for n in (1, 2, 3, 4, 31, 32, 33, 34, 35, 44, 64, 128, 160)  # 160 is max_seq
        for s in sorted({0, 1, 31, 32, 33, n - 3, n - 2, n - 1})
        if 0 <= s < n
    ]

    @pytest.mark.parametrize("n,span", CASES)
    def test_streams_bit_identical_to_their_own_prefill(self, long_weights, n, span, monkeypatch):
        prompt = rng(1000 * n + span).integers(0, 63, size=n).tolist()
        for lam in self.LAMBDAS:
            user, rows, logits = _prefill_rows(long_weights, lam, prompt, span, monkeypatch)
            p = span if lam else 0
            assert rows == _set_rows(n, p, lam + 1)
            for i, tokens in enumerate(user.vps.prompts):
                assert len(tokens) == n and list(tokens[:span]) == prompt[:span]
                cache, want = prefill(long_weights, list(tokens))
                assert np.array_equal(logits[i], want)
                k, v = stream_rows(user, i)
                assert np.array_equal(k, cache.k[:, :, :n])
                assert np.array_equal(v, cache.v[:, :, :n])
            assert user.kv.shared_k.shape[2] == p
            c = long_weights.config
            assert user.kv.private_k.shape == (lam + 1, c.n_layers, c.n_heads, n - p, c.head_dim)
            run_sessions(ModelParty(long_weights), Controller(), [user], 2)
            assert user.authentic_response() == greedy_decode(long_weights, prompt, 2)

    def test_prefill_rows_grow_sub_linearly_in_lambda(self, long_weights, monkeypatch):
        # prefill_decoys' shape: 128 tokens, one tagged token at 124. The
        # first three chunks are shared and run once; the last holds the
        # 28 shared rows 96-123 once and each of the 4 streams' 4 own
        # rows, 44 distinct rows in three blocks of 16
        prompt = rng(7).integers(0, 63, size=128).tolist()
        _, rows, _ = _prefill_rows(long_weights, 3, prompt, 124, monkeypatch)
        assert rows == 96 + 48 == _set_rows(128, 124, 4)

    def test_stored_rows_grow_sub_linearly_in_lambda(self, long_weights):
        # the same shape: the 124 rows before the tag are kept once, and
        # each of the 4 streams keeps its last 4
        prompt = rng(7).integers(0, 63, size=128).tolist()
        user = decoy_user(long_weights, 3, prompt=prompt, span=124)
        assert user.kv.shared_k.shape == (2, 2, 124, 64)
        assert user.kv.private_k.shape == (4, 2, 2, 4, 64)
        stored = user.kv.shared_k.shape[2] + user.kv.private_k.shape[0] * user.kv.private_k.shape[3]
        assert stored == 124 + 4 * 4


def _tagged_set(count, n, p):
    """count prompts of n tokens that share their first p and differ at p."""
    prefix = rng(n).integers(0, 63, size=p).tolist()
    return [prefix + [i] + rng(n + i).integers(0, 63, size=n - p - 1).tolist()
            for i in range(count)]


class TestPrefillPasses:
    """prefill runs consecutive chunks whose width is a multiple of
    ROW_BLOCK in one trunk pass of at most max_seq rows, and any other
    chunk alone; the passes' rows add up to the chunks' rows."""

    @pytest.mark.parametrize("count,n,p,passes", [
        # prefill_decoys: three shared chunks and the 48-row tail, one pass
        (4, 128, 124, [144]),
        (1, 128, 0, [128]),
        # the 8-row tail chunk runs alone
        (1, 40, 0, [32, 8]),
        # TestPrefillMemory's set: every chunk after the first is over
        # max_seq rows with the one before it
        (8, 160, 40, [32, 208, 256, 256, 256]),
    ], ids=["decoys", "lone 128", "lone 40", "8 x 160"])
    def test_pass_rows(self, long_weights, count, n, p, passes, monkeypatch):
        prompts = _tagged_set(count, n, p)
        rows, trunk = [], model_module.trunk

        def counting_trunk(weights, tokens, *args, **kwargs):
            rows.append(np.size(tokens))
            return trunk(weights, tokens, *args, **kwargs)

        monkeypatch.setattr(model_module, "trunk", counting_trunk)
        prefill(long_weights, prompts[0] if count == 1 else prompts)
        assert rows == passes
        assert sum(rows) == _set_rows(n, p, count)

    def test_softmax_rows_per_layer(self, monkeypatch):
        # prefill_decoys' set on a model of the pinned depth: at layers
        # 0-2 the three shared chunks run softmax on their 32 query rows
        # once, and in the tail chunk the first prompt on all 32 and each
        # of the other three on its 4 own rows rounded up to 16; the last
        # layer reads each prompt's last row
        weights = init_model(ModelConfig(
            n_layers=4, n_heads=2, d_model=32, head_dim=16, vocab_size=64, max_seq=160, seed=3
        ))
        rows, layer = Counter(), [None]
        trunk, softmax_values = model_module.trunk, model_module._softmax_values

        def layer_trunk(weights, tokens, positions, attend, read=None):
            def tracked(at, q, k, v):
                layer[0] = at
                return attend(at, q, k, v)

            return trunk(weights, tokens, positions, tracked, read)

        def counting_softmax_values(scores, v):
            rows[layer[0]] += int(np.prod(scores.shape[:-3])) * scores.shape[-2]
            return softmax_values(scores, v)

        monkeypatch.setattr(model_module, "trunk", layer_trunk)
        monkeypatch.setattr(model_module, "_softmax_values", counting_softmax_values)
        prefill(weights, _tagged_set(4, 128, 124))
        assert [rows[at] for at in range(4)] == [96 + 32 + 3 * 16] * 3 + [4]


def record_frames(user):
    """Wrap the user party's frame handler to keep the raw bytes of every
    frame it receives and every reply it sends, for leak scanning."""
    frames, handle = [], user.handle_frame

    def recording(frame):
        replies = handle(frame)
        frames.extend([frame, *replies])
        return replies

    user.handle_frame = recording
    return frames


class TestConfidentiality:
    def test_no_private_rows_on_the_wire(self, small_weights):
        # a lone stream, and lambda 3 tagged at the fifth of ten tokens,
        # whose four streams share four rows and keep six each
        c = small_weights.config
        for lam, prompt, stored in ((0, [13, 17, 19, 23], 4),
                                    (3, [13, 17, 19, 23, 29, 31, 37, 41, 43, 47], 4 + 4 * 6)):
            user = decoy_user(small_weights, lam, prompt=prompt, span=4)
            setup = b"".join(serialize(m) for m in user.pending_setup)
            frames = record_frames(user)
            run_sessions(ModelParty(small_weights), Controller(), [user], 12)
            wire_bytes = setup + b"".join(frames)

            rows = [user.kv.shared_k, user.kv.shared_v]
            for index in range(lam + 1):
                rows += [user.kv.private_k[index], user.kv.private_v[index]]
            scanned = 0
            for kv in rows:
                for row in kv.reshape(-1, c.head_dim):
                    assert row.tobytes() not in wire_bytes
                    scanned += 1
            assert scanned == 2 * c.n_layers * c.n_heads * stored

    def test_message_count_constant_per_round(self, small_weights):
        prompt = [2, 3, 5]
        model, ctrl, user = make_session(small_weights, prompt)
        transcript = run_sessions(model, ctrl, [user], 12)
        per_step = {}
        for e in transcript.entries:
            if e.step >= 1:
                per_step.setdefault(e.step, 0)
                per_step[e.step] += 1
        assert len(set(per_step.values())) == 1


class TestCommAccounting:
    def run_report(self, weights, prompt, max_tokens=8):
        model, ctrl, user = make_session(weights, prompt)
        transcript = run_sessions(model, ctrl, [user], max_tokens)
        return comm_accounting(transcript)

    def test_scalar_formula(self, small_weights):
        report = self.run_report(small_weights, [1, 2, 3])
        c = small_weights.config
        assert report.constant_per_round
        assert report.query_scalars_per_round == c.n_layers * c.n_heads * c.head_dim
        assert report.partial_scalars_per_round == c.n_layers * c.n_heads * (c.head_dim + 2)
        assert report.round_scalars_per_round == c.n_layers * c.n_heads * (2 * c.head_dim + 2)

    def test_doubling_width_doubles_query_scalars(self, small_config):
        wide = init_model(
            ModelConfig(**{**small_config.__dict__, "d_model": 32, "head_dim": 16})
        )
        narrow_report = self.run_report(init_model(small_config), [1, 2, 3])
        wide_report = self.run_report(wide, [1, 2, 3])
        assert wide_report.query_scalars_per_round == 2 * narrow_report.query_scalars_per_round

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_one_round_time_per_decode_round(self, small_weights, transport):
        model, ctrl, user = make_session(small_weights, [1, 2, 3])
        transcript = run_sessions(model, ctrl, [user], 8, transport=transport)
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
        transcript = run_sessions(model, Controller(), users, 6, transport=transport)
        queries = [e for e in transcript.entries if e.tag == TAG_QUERY]
        assert queries and all(e.head == 4 for e in queries)
        report = comm_accounting(transcript)
        assert report.steps == 6
        assert report.constant_per_round
        assert report.round_scalars_per_round == c.n_layers * c.n_heads * (2 * c.head_dim + 2)

    @pytest.mark.parametrize("transport", ["inproc", "socket"])
    def test_one_round_moves_no_logits(self, small_weights, transport):
        # two lambda=1 users: per layer and link one QUERY out and one
        # PARTIAL back, per stream one TOKEN each way, and nothing else
        c = small_weights.config
        users = [decoy_user(small_weights, 1, user_id=u, prompt=(u + 2, 7, 1)) for u in (1, 2)]
        transcript = run_sessions(ModelParty(small_weights, stop_at_eos=False), Controller(),
                                  users, 1, transport=transport)
        round_one = [e for e in transcript.entries if e.step == 1]
        links, per_link = 2, 2
        streams = links * per_link
        assert Counter((e.direction, e.tag_name) for e in round_one) == {
            ("m2u", "QUERY"): links * c.n_layers,
            ("u2m", "PARTIAL"): links * c.n_layers,
            ("m2u", "TOKEN"): streams,
            ("u2m", "TOKEN"): streams,
        }
        query = HEADER_SIZE + per_link * (4 + 8 * c.n_heads * c.head_dim)
        partial = HEADER_SIZE + per_link * 8 * c.n_heads * (c.head_dim + 2)
        token = HEADER_SIZE + 8
        assert sum(e.nbytes for e in round_one) == (
            links * c.n_layers * (query + partial) + 2 * streams * token
        )

    def test_report_documents_the_extra_scalars(self, small_weights):
        report = self.run_report(small_weights, [4, 5])
        assert "running max" in report.note
        assert "running max" in report.to_text()

    def test_transcript_dump_format(self, small_weights):
        model, ctrl, user = make_session(small_weights, [4, 5])
        transcript = run_sessions(model, ctrl, [user], 2)
        lines = transcript.dump().splitlines()
        # one line per frame, then one per gate decision
        frames, gates = lines[: len(transcript.entries)], lines[len(transcript.entries) :]
        assert frames and len(gates) == len(transcript.gate_log) == 3
        for line in frames:
            direction, tag, session, layer, head, nbytes = line.split()
            assert direction in ("m2u", "u2m")
            assert tag in TAG_NAMES.values()
            int(session), int(layer), int(head), int(nbytes)
        sid = next(iter(user.streams))
        assert gates == [
            f"gate 0 {sid} pass first token (pre-decode)",
            f"gate 1 {sid} pass matches ground truth",
            f"gate 2 {sid} pass matches ground truth",
        ]

    def test_wire_total_counts_link_bytes(self, small_weights):
        user = decoy_user(small_weights, 1)
        setup = b"".join(serialize(m) for m in user.pending_setup)
        frames = record_frames(user)
        transcript = run_sessions(ModelParty(small_weights, stop_at_eos=False), Controller(),
                                  [user], 6)
        wire = len(setup) + sum(len(f) for f in frames)
        assert transcript.total_bytes() == wire
        assert comm_accounting(transcript).total_bytes == wire
        # the gate saw every token, none of them as a link frame
        assert len(transcript.gate_log) == 2 * 7

    def test_accounting_catches_an_extra_frame(self, small_weights):
        c = small_weights.config
        user = decoy_user(small_weights, 1)
        transcript = run_sessions(ModelParty(small_weights, stop_at_eos=False), Controller(),
                                  [user], 6)
        queries = [e for e in transcript.entries if e.tag == TAG_QUERY]
        assert queries and all(e.head == 2 for e in queries)
        report = comm_accounting(transcript)
        assert report.constant_per_round and report.steps == 6
        assert report.round_scalars_per_round == c.n_layers * c.n_heads * (2 * c.head_dim + 2)

        # a PARTIAL sent twice at step 3 over-charges that round's streams
        e = next(e for e in transcript.entries if e.tag == TAG_PARTIAL and e.step == 3)
        extra = ProtocolMessage(tag=TAG_PARTIAL, session_id=e.session_id, layer=e.layer,
                                head=e.head, payload=bytes(e.payload_len))
        transcript.record("u2m", 3, serialize(extra))
        assert not comm_accounting(transcript).constant_per_round
