"""Self-contained verification suites behind the CLI.

Each suite re-derives its expectations from an independent path (the
reference attention, exhaustive enumeration, closed forms) and reports
one pass/fail line per check. The pytest acceptance module covers the
same ground with stricter oracles; these suites are the operational
smoke of the same properties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpora import zipf_corpus
from .langmodel import NgramModel, train_ngram
from .model import ModelConfig, attention_reference, greedy_decode, init_model, prefill
from .numerics import philox_rng
from .obfuscation import (
    ObfuscationConfig,
    TaggedPrompt,
    build_virtual_prompts,
    gqs,
    verify_bound,
)
from .partition import (
    PRIVATE,
    PUBLIC,
    KvPartition,
    merge_partials,
    private_partial,
    public_partial,
)
from .protocol import (
    Controller,
    ModelParty,
    ProtocolError,
    TokenRule,
    UserParty,
    WeightsHandle,
    controller_gate,
    run_sessions,
    user_prefill,
)
from .security import monte_carlo_success
from .wire import TAG_NAMES, TAG_TOKEN, ProtocolMessage, deserialize, encode_token, serialize

__all__ = ["Check", "SUITES", "run_suite"]


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


def _merge_error(rng, n, head_dim, score_scale=1.0) -> float:
    q = rng.standard_normal(head_dim) * score_scale
    K = rng.standard_normal((n, head_dim))
    V = rng.standard_normal((n, head_dim))
    split = int(rng.integers(0, n + 1))
    pvt = private_partial(q, KvPartition.single_head(PRIVATE, K[:split], V[:split]))
    pub = public_partial(q, KvPartition.single_head(PUBLIC, K[split:], V[split:]))
    merged = merge_partials(pvt, pub)
    reference = attention_reference(q, K, V)[0]
    if not np.all(np.isfinite(merged)):
        return np.inf
    return float(np.max(np.abs(merged - reference)))


def suite_theorem1() -> list[Check]:
    rng = philox_rng(2024)
    worst = 0.0
    for _ in range(300):
        n = int(rng.integers(1, 65))
        head_dim = int(rng.integers(2, 33))
        worst = max(worst, _merge_error(rng, n, head_dim))
    checks = [
        Check("split-merge equals unpartitioned attention", worst <= 1e-9,
              f"max abs error {worst:.3e} over 300 random splits (tol 1e-9)")
    ]
    worst_scaled = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 33))
        worst_scaled = max(worst_scaled, _merge_error(rng, n, 8, score_scale=50.0))
    checks.append(
        Check("merge stays finite and accurate at 50x score scale",
              worst_scaled <= 1e-6,
              f"max abs error {worst_scaled:.3e} with scores up to ~500 (tol 1e-6)")
    )
    return checks


def _exhaustive_fakes(context, authentic, epsilon, oracle):
    """Independent enumeration of every same-bin sequence."""
    n = len(authentic)
    width = epsilon / n
    survivors = [()]
    for step in range(n):
        ref = oracle.next_dist(list(context) + list(authentic[:step]))
        bin_index = math.floor(math.log(ref[authentic[step]]) / width)
        lo, hi = bin_index * width, (bin_index + 1) * width
        extended = []
        for cand in survivors:
            dist = oracle.next_dist(list(context) + list(cand))
            for token in range(oracle.vocab_size):
                if lo <= math.log(dist[token]) < hi:
                    extended.append(cand + (token,))
        survivors = extended
    return set(survivors)


def suite_gqs() -> list[Check]:
    oracle = train_ngram(zipf_corpus(5, vocab_size=12), order=2, vocab_size=12)
    bound_violations = 0
    enum_mismatches = 0
    cases = 0
    runs = 0
    for epsilon in (0.05, 0.1, 0.5, 1.0):
        for start in (0, 1):
            for n in (1, 2):
                prompt = TaggedPrompt(
                    tokens=(3, 1, 4, 1, 5), spans=((start + 1, n),)
                )
                config = ObfuscationConfig(epsilon=epsilon, lambda_max=4096)
                fakes = gqs(prompt, prompt.spans[0], config, oracle)
                runs += 1
                context = list(prompt.tokens[: start + 1])
                authentic = prompt.segment(prompt.spans[0])
                for cand in fakes.candidates:
                    cases += 1
                    if not verify_bound(authentic, cand, context, epsilon, oracle):
                        bound_violations += 1
                if set(fakes.candidates) != _exhaustive_fakes(context, authentic, epsilon, oracle):
                    enum_mismatches += 1
    return [
        Check("every sampled decoy honors the log-probability bound",
              bound_violations == 0,
              f"{cases} candidates checked, {bound_violations} violations"),
        Check("sampler output equals exhaustive enumeration",
              enum_mismatches == 0,
              f"{runs} sampler runs compared, {enum_mismatches} mismatches"),
    ]


def suite_bounds() -> list[Check]:
    oracle = train_ngram(zipf_corpus(9, vocab_size=10), order=2, vocab_size=10)
    prompt = TaggedPrompt(tokens=(2, 0, 1, 3), spans=((2, 1),))
    config = ObfuscationConfig(epsilon=2.0, lambda_max=3, prf_key=b"verify")
    fakes = gqs(prompt, prompt.spans[0], config, oracle)
    vps = build_virtual_prompts(prompt, [fakes], config, session_id=1)
    checks = []
    r1 = monte_carlo_success(oracle, vps, eta=1, trials=20000, seed=3,
                             epsilon=config.epsilon, delta=0.0)
    target = 1.0 / len(vps.prompts)
    checks.append(
        Check("one obtained prompt is pure random guessing",
              r1.ci_lo <= target <= r1.ci_hi,
              f"rate {r1.rate:.4f}, CI [{r1.ci_lo:.4f}, {r1.ci_hi:.4f}] vs {target:.4f}")
    )
    r_all = monte_carlo_success(oracle, vps, eta=len(vps.prompts), trials=20000, seed=4,
                                epsilon=config.epsilon, delta=0.0)
    sigma = 3 * np.sqrt(max(r_all.rate * (1 - r_all.rate), 1e-9) / r_all.trials)
    ok = r_all.bound_lo - sigma <= r_all.rate <= r_all.bound_hi + sigma
    checks.append(
        Check("all-prompts adversary lands inside the closed-form bounds", ok,
              f"rate {r_all.rate:.4f} vs [{r_all.bound_lo:.4f}, {r_all.bound_hi:.4f}] +/- 3sig")
    )
    return checks


def suite_protocol() -> list[Check]:
    checks = []
    mismatches = 0
    for seed in (1, 2):
        config = ModelConfig(
            n_layers=2, n_heads=2, d_model=16, head_dim=8, vocab_size=32, max_seq=64, seed=seed
        )
        weights = init_model(config)
        prompt = [3, 5, 7, 2]
        model = ModelParty(weights)
        ctrl = Controller()
        user = UserParty(user_id=seed, weights_handle=WeightsHandle(weights))
        user_prefill(user, TaggedPrompt(tokens=prompt), ObfuscationConfig(0.0, 0))
        transcript = run_sessions(model, ctrl, [user], 24)
        stream_id = next(iter(user.streams))
        if transcript.tokens[stream_id] != greedy_decode(weights, prompt, 24):
            mismatches += 1
    checks.append(
        Check("two-party tokens equal monolithic greedy decode",
              mismatches == 0, f"{mismatches} mismatching streams of 2")
    )

    responses, killed = [], 0
    for lam in (0, 3):
        ctrl = Controller()
        user = UserParty(user_id=1, weights_handle=WeightsHandle(weights),
                         oracle=NgramModel(order=1, vocab_size=config.vocab_size),
                         temperature=0.9, sample_seed=42)
        user_prefill(user, TaggedPrompt(tokens=prompt, spans=((0, 1),)),
                     ObfuscationConfig(1.0, lam + 1, prf_key=b"verify"))
        run_sessions(ModelParty(weights), ctrl, [user], 12)
        killed += len(ctrl.killed)
        responses.append(user.authentic_response())
    checks.append(
        Check("sampled two-party decode passes the exact gate, same at lambda 0 and 3",
              killed == 0 and responses[0] == responses[1] and len(user.streams) == 4,
              f"{killed} streams killed; responses {responses[0]} and {responses[1]}")
    )

    # a user party that replies token 11 to whatever token it was sent
    user = UserParty(user_id=4, weights_handle=WeightsHandle(weights))
    user_prefill(user, TaggedPrompt(tokens=prompt), ObfuscationConfig(0.0, 0))
    honest, error = user.handle_frame, "none"
    user.handle_frame = lambda frame: [
        serialize(ProtocolMessage(TAG_TOKEN, m.session_id, payload=encode_token(11)))
        if m.tag == TAG_TOKEN else serialize(m) for m in map(deserialize, honest(frame))]
    try:
        run_sessions(ModelParty(weights), Controller(), [user], 12)
    except ProtocolError as exc:
        error = str(exc)
    held = user.authentic_response()  # all that the user party can pass the exact gate
    checks.append(Check(
        "a reply that does not echo its token is a typed error and cannot steer the stream",
        "echoed token 11" in error and held == greedy_decode(weights, prompt, 12)[:len(held)],
        f"error: {error}; stream {held}"))

    # a user party that withholds its token 0, then sends token 31 after
    # decoded token 2: token 0's pass ends at the first draw, so nothing
    # is owed for token 31, which is blocked and kills the stream
    user = UserParty(user_id=5, weights_handle=WeightsHandle(weights))
    user_prefill(user, TaggedPrompt(tokens=prompt), ObfuscationConfig(0.0, 0))
    user.take_outward()
    queue, sid = user._queue_outward, next(iter(user.streams))

    def smuggle(msg):
        queue(msg)
        if len(user.streams[sid].tokens) == 3:
            queue(ProtocolMessage(TAG_TOKEN, sid, payload=encode_token(31)))

    user._queue_outward = smuggle
    ctrl = Controller()
    released = run_sessions(ModelParty(weights), ctrl, [user], 6).tokens.get(sid)
    checks.append(Check(
        "a withheld token 0 lets no later token out",
        released == greedy_decode(weights, prompt, 2)[1:]
        and ctrl.killed == {sid: "token without ground truth"},
        f"released {released}; kills {ctrl.killed}"))

    # 100-token prompt tagged at 40: the four virtual prompts prefill as
    # one set. Chunk [0, 32) runs once, chunk [32, 64) runs the 8 rows
    # before the tag once and each prompt's 24 after it, and later chunks
    # run each prompt's own rows; the party keeps the 40 rows before the
    # tag once and 60 per stream
    weights = init_model(ModelConfig(
        n_layers=2, n_heads=2, d_model=128, head_dim=64, vocab_size=64, max_seq=128, seed=3
    ))
    prompt = philox_rng(5).integers(0, 63, size=100).tolist()
    user = UserParty(user_id=3, weights_handle=WeightsHandle(weights),
                     oracle=NgramModel(order=1, vocab_size=64))
    user_prefill(user, TaggedPrompt(tokens=prompt, spans=((40, 1),)),
                 ObfuscationConfig(1.0, 4, prf_key=b"verify"))
    differing = 0
    for i, tokens in enumerate(user.vps.prompts):
        cache, _ = prefill(weights, list(tokens))
        # the stream's prompt rows: the shared rows, then its own
        k = np.concatenate([user.kv.shared_k, user.kv.private_k[i]], axis=2)
        v = np.concatenate([user.kv.shared_v, user.kv.private_v[i]], axis=2)
        n = len(tokens)
        if not (np.array_equal(k, cache.k[:, :, :n]) and np.array_equal(v, cache.v[:, :, :n])):
            differing += 1
    checks.append(
        Check("shared-prefix prefill at lambda 3 is bit-identical to per-prompt prefill",
              differing == 0 and len(user.streams) == 4,
              f"{differing} of {len(user.streams)} streams differ from their own prefill")
    )
    stored = user.kv.shared_k.shape[2] + user.kv.private_k.shape[0] * user.kv.private_k.shape[3]
    checks.append(
        Check("the shared prefix is stored once: 40 + 4 * 60 = 280 rows per layer and head",
              stored == 40 + 4 * 60,
              f"{stored} rows stored, {sum(map(len, user.vps.prompts))} without sharing")
    )

    ctrl = Controller()
    ctrl.open_stream(77)
    rng = philox_rng(13)
    leaked = 0
    for _ in range(1000):
        tag = int(rng.choice([t for t in TAG_NAMES if t != TAG_TOKEN]))
        msg = ProtocolMessage(
            tag=tag, session_id=int(rng.integers(0, 100)),
            payload=bytes(rng.integers(0, 256, size=8, dtype=np.uint8)),
        )
        if controller_gate(ctrl, msg).passed:
            leaked += 1
    checks.append(Check("no non-token frame exits the boundary", leaked == 0,
                        f"{leaked} of 1000 fuzzed frames passed"))

    flips = [  # (name, stream, rule, logits); greedy is token 9
        ("a flipped token", 5, TokenRule(), np.eye(config.vocab_size)[9]),
        ("a flipped sampled token", 6, TokenRule(temperature=0.9, seed=42, key=7),
         philox_rng(21).standard_normal(32)),
    ]
    for name, sid, rule, logits in flips:
        ctrl = Controller()
        ctrl.open_stream(sid, rule)
        flipped = ProtocolMessage(
            tag=TAG_TOKEN, session_id=sid, payload=encode_token(ctrl.expect(sid, logits) ^ 1)
        )
        decision = controller_gate(ctrl, flipped)
        checks.append(Check(f"{name} is blocked and the session killed",
                            (not decision.passed) and sid in ctrl.killed, decision.reason))
    return checks


SUITES = {
    "theorem1": suite_theorem1,
    "gqs": suite_gqs,
    "bounds": suite_bounds,
    "protocol": suite_protocol,
}


def run_suite(name: str) -> list[Check]:
    if name == "all":
        out = []
        for suite in SUITES.values():
            out.extend(suite())
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {list(SUITES)} or 'all'")
    return SUITES[name]()
