"""Acceptance criteria, one test per criterion, each printing a PASS line
with its measured figure (run with -s to see them on success).

Tolerances here are pinned: 1e-9 for split-merge exactness, 1e-6 relative
under 50x score scaling, integer equality for output invariance, exact
enumeration equality for the sampler, and 3-sigma brackets for the Monte
Carlo adversary.
"""

import math
import time

import numpy as np
from mpmath import mp

from splitdecode.bench import BenchConfig, run_mode
from splitdecode.corpora import date_category_corpus, date_prompt, zipf_corpus
from splitdecode.langmodel import train_ngram
from splitdecode.model import ModelConfig, attention_reference, greedy_decode, init_model
from splitdecode.obfuscation import (
    ObfuscationConfig,
    TaggedPrompt,
    build_virtual_prompts,
    gqs,
    verify_bound,
)
from splitdecode.partition import (
    PRIVATE,
    PUBLIC,
    KvPartition,
    merge_partials,
    private_partial,
    public_partial,
)
from splitdecode.protocol import (
    Controller,
    ModelParty,
    UserParty,
    WeightsHandle,
    comm_accounting,
    controller_gate,
    run_sessions,
    user_prefill,
)
from splitdecode.security import authenticity_C, estimate_delta, monte_carlo_success
from splitdecode.wire import (
    TAG_NAMES,
    TAG_TOKEN,
    ProtocolMessage,
    decode_token,
    encode_token,
)

from conftest import rng

NO_OBF = ObfuscationConfig(epsilon=0.0, lambda_max=0)


def random_attention_instance(g, scale=1.0):
    n = int(g.integers(1, 65))
    head_dim = 2 * int(g.integers(1, 17))  # even, <= 32
    n_heads = int(g.integers(1, 5))
    split = int(g.integers(0, n + 1))
    heads = []
    for _ in range(n_heads):
        q = g.standard_normal(head_dim) * scale
        K = g.standard_normal((n, head_dim))
        V = g.standard_normal((n, head_dim))
        heads.append((q, K, V, split))
    return heads


def merge_for(q, K, V, split):
    pvt = private_partial(q, KvPartition.single_head(PRIVATE, K[:split], V[:split]))
    pub = public_partial(q, KvPartition.single_head(PUBLIC, K[split:], V[split:]))
    return merge_partials(pvt, pub)


def test_criterion_01_split_merge_exactness():
    start = time.perf_counter()
    g = rng(10_001)
    worst = 0.0
    for _ in range(1000):
        for q, K, V, split in random_attention_instance(g):
            err = np.max(np.abs(merge_for(q, K, V, split) - attention_reference(q, K, V)[0]))
            worst = max(worst, float(err))
    elapsed = time.perf_counter() - start
    assert worst <= 1e-9
    assert elapsed < 10.0
    print(f"ACCEPTANCE 1 PASS: split-merge exactness, max |err| {worst:.2e} "
          f"over 1000 instances in {elapsed:.1f}s (tol 1e-9, budget 10s)")


def mpmath_attention(q, K, V):
    with mp.workdps(50):
        scores = [mp.fsum(mp.mpf(q[d]) * mp.mpf(K[j, d]) for d in range(len(q)))
                  for j in range(K.shape[0])]
        exps = [mp.e**s for s in scores]
        z = mp.fsum(exps)
        return np.array([
            float(mp.fsum((e / z) * mp.mpf(V[j, d]) for j, e in enumerate(exps)))
            for d in range(V.shape[1])
        ])


def test_criterion_02_stability_under_score_scaling():
    g = rng(10_002)
    finite_checked = 0
    worst_rel = 0.0
    for i in range(1000):
        for q, K, V, split in random_attention_instance(g, scale=50.0):
            merged = merge_for(q, K, V, split)
            assert np.all(np.isfinite(merged))
            finite_checked += 1
            if i % 10 == 0:  # extended-precision spot grid, 100 instances
                want = mpmath_attention(q, K, V)
                rel = np.max(np.abs(merged - want)) / max(np.max(np.abs(want)), 1e-300)
                worst_rel = max(worst_rel, float(rel))
    assert worst_rel <= 1e-6
    print(f"ACCEPTANCE 2 PASS: 50x-scaled merges all finite ({finite_checked} heads), "
          f"max rel err vs 50-digit oracle {worst_rel:.2e} (tol 1e-6)")


def test_criterion_03_output_invariance():
    start = time.perf_counter()
    prompts = [[3, 5, 7, 2], [11, 1, 60, 44, 9], [30], [8, 8, 8, 21, 2, 40, 13]]
    checked = 0
    for seed in range(8):
        config = ModelConfig(
            n_layers=2, n_heads=2, d_model=16, head_dim=8, vocab_size=64,
            max_seq=96, seed=1000 + seed,
        )
        weights = init_model(config)
        for prompt in prompts:
            model = ModelParty(weights)
            ctrl = Controller()
            user = UserParty(seed, WeightsHandle(weights))
            user_prefill(user, TaggedPrompt(tokens=prompt), NO_OBF)
            transcript = run_sessions(model, ctrl, [user], 64)
            sid = next(iter(user.streams))
            assert transcript.tokens[sid] == greedy_decode(weights, prompt, 64)
            checked += 1

    # the three bench modes agree token-for-token as well
    for seed in (0, 1):
        bench_model = ModelConfig(
            n_layers=2, n_heads=2, d_model=32, head_dim=16, vocab_size=64,
            max_seq=48, seed=2000 + seed,
        )
        outputs = [
            run_mode(BenchConfig(mode=mode, users=4, in_tokens=6, out_tokens=12,
                                 lam=0, model=bench_model, repetitions=3, seed=seed)).tokens
            for mode in ("no_protection", "full_isolation", "spd")
        ]
        assert outputs[0] == outputs[1] == outputs[2]
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"ACCEPTANCE 3 PASS: {checked} seed/prompt decodes integer-identical to "
          f"monolithic and across bench modes in {elapsed:.1f}s (budget 120s)")


def exhaustive_bin_filter(context, authentic, epsilon, oracle):
    n = len(authentic)
    width = epsilon / n
    survivors = [()]
    for step in range(n):
        ref = oracle.next_dist(list(context) + list(authentic[:step]))
        j = math.floor(math.log(ref[authentic[step]]) / width)
        lo, hi = j * width, (j + 1) * width
        survivors = [
            cand + (token,)
            for cand in survivors
            for token in range(oracle.vocab_size)
            if lo <= math.log(oracle.next_dist(list(context) + list(cand))[token]) < hi
        ]
    return set(survivors)


def test_criterion_04_sampler_soundness_and_completeness():
    cases = 0
    candidates_checked = 0
    for vocab, corpus_seed in ((12, 1), (32, 2), (64, 3)):
        oracle = train_ngram(zipf_corpus(corpus_seed, vocab_size=vocab), order=2,
                             vocab_size=vocab)
        prompt_tokens = tuple(rng(corpus_seed).integers(0, vocab, size=7).tolist())
        for epsilon in (0.05, 0.1, 0.5, 1.0):
            for start in (1, 3):
                for n in (1, 2, 4):
                    span = (start, n)
                    prompt = TaggedPrompt(tokens=prompt_tokens, spans=(span,))
                    out = gqs(prompt, span,
                              ObfuscationConfig(epsilon=epsilon, lambda_max=4096), oracle)
                    cases += 1
                    context = list(prompt_tokens[:start])
                    authentic = prompt.segment(span)
                    for cand in out.candidates:
                        assert verify_bound(authentic, cand, context, epsilon, oracle)
                        candidates_checked += 1
    assert cases >= 200 * 0.36  # 72 sampler runs spanning the matrix dimensions

    # exact agreement with brute-force enumeration on the small grid
    exact_cases = 0
    for vocab in (8, 16):
        oracle = train_ngram(zipf_corpus(9, vocab_size=vocab), order=2, vocab_size=vocab)
        for epsilon in (0.05, 0.1, 0.5, 1.0):
            for n in (1, 2):
                prompt = TaggedPrompt(tokens=(1, 0, 2, 3, 4), spans=((2, n),))
                out = gqs(prompt, (2, n),
                          ObfuscationConfig(epsilon=epsilon, lambda_max=4096), oracle)
                want = exhaustive_bin_filter([1, 0], prompt.segment((2, n)), epsilon, oracle)
                assert set(out.candidates) == want
                exact_cases += 1
    print(f"ACCEPTANCE 4 PASS: {candidates_checked} sampled decoys across "
          f"{cases} sampler runs all honor the bound; {exact_cases} runs equal "
          f"exhaustive enumeration exactly")


def test_criterion_05_candidate_curve():
    sequences, vocab = date_category_corpus()
    oracle = train_ngram(sequences, order=2, vocab_size=len(vocab))
    prompt = date_prompt(vocab)
    span = prompt.spans[0]

    sizes_eps = [
        len(gqs(prompt, span, ObfuscationConfig(epsilon=e, lambda_max=1024), oracle).candidates)
        for e in (0.05, 0.1, 0.5, 1.0)
    ]
    assert sizes_eps == sorted(sizes_eps)
    assert sizes_eps[-1] > sizes_eps[0]
    sizes_tau = [
        len(gqs(prompt, span,
                ObfuscationConfig(epsilon=0.1, lambda_max=1024, temperature=t),
                oracle).candidates)
        for t in (0.5, 1.0, 8.0)
    ]
    assert sizes_tau == sorted(sizes_tau)
    assert sizes_tau[-1] > sizes_tau[0]

    at_tenth = len(
        gqs(prompt, span, ObfuscationConfig(epsilon=0.1, lambda_max=512), oracle).candidates
    )
    assert 324 <= at_tenth <= 396
    print(f"ACCEPTANCE 5 PASS: candidate count non-decreasing in epsilon {sizes_eps} "
          f"and temperature {sizes_tau}; 360-token category gives {at_tenth} at eps=0.1")


class PerturbedP:
    """P = LM with the authentic date's probability raised by exp(shift),
    compensated on the lexicographically first date."""

    def __init__(self, base, context_token, token, donor, shift):
        self.base = base
        self.context_token = context_token
        self.token = token
        self.donor = donor
        self.shift = shift

    @property
    def vocab_size(self):
        return self.base.vocab_size

    def next_dist(self, context):
        dist = self.base.next_dist(context).copy()
        if len(context) and context[-1] == self.context_token:
            moved = dist[self.token] * (math.exp(self.shift) - 1.0)
            dist[self.token] += moved
            dist[self.donor] -= moved
        return dist


def test_criterion_06_adversary_bounds():
    start = time.perf_counter()
    sequences, vocab = date_category_corpus()
    oracle = train_ngram(sequences, order=2, vocab_size=len(vocab))
    prompt = date_prompt(vocab)
    epsilon = 0.1
    trials = 100_000
    checked = []
    for lam in (1, 3, 7):
        config = ObfuscationConfig(epsilon=epsilon, lambda_max=lam + 1, prf_key=b"adv")
        fakes = gqs(prompt, prompt.spans[0], config, oracle)
        vps = build_virtual_prompts(prompt, [fakes], config, session_id=lam)
        assert vps.lam == lam
        P = PerturbedP(oracle, vocab["on"], vocab["d123"], vocab["d000"], 0.05)
        delta = estimate_delta(P, oracle, vps.prompts)
        etas = sorted({1, 2, (lam + 2) // 2, lam + 1})
        for eta in etas:
            r = monte_carlo_success(P, vps, eta=eta, trials=trials,
                                    seed=97 * lam + eta, epsilon=epsilon, delta=delta)
            sigma = math.sqrt(max(r.rate * (1 - r.rate), 1e-12) / trials)
            assert r.bound_lo - 3 * sigma <= r.rate <= r.bound_hi + 3 * sigma, (lam, eta)
            if eta == 1:
                assert r.ci_lo <= 1 / (lam + 1) <= r.ci_hi
            checked.append((lam, eta))
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"ACCEPTANCE 6 PASS: {len(checked)} (lambda, eta) settings x {trials} trials "
          f"inside closed-form bounds +/- 3 sigma in {elapsed:.1f}s (budget 60s)")


def test_criterion_07_authenticity_chain():
    # vocab <= 16 with an enumerable 10-token category in one slot; the
    # category members share continuation counts exactly, so left-context
    # sampling and whole-prompt ratios agree (any out-of-category token is
    # 3x rarer after "w" and cannot share the eps=0.2 bin)
    lines = [f"q w c{i:02d} z" for i in range(10)] * 3 + ["q q w w"]
    from splitdecode.langmodel import tokenize_text

    sequences, vocab = tokenize_text("\n".join(lines))
    assert len(vocab) <= 16
    oracle = train_ngram(sequences, order=2, vocab_size=len(vocab))
    prompt = TaggedPrompt(
        tokens=(vocab["q"], vocab["w"], vocab["c04"], vocab["z"]), spans=((2, 1),)
    )
    epsilon = 0.2
    config = ObfuscationConfig(epsilon=epsilon, lambda_max=512, prf_key=b"chain")
    fakes = gqs(prompt, prompt.spans[0], config, oracle)
    vps = build_virtual_prompts(prompt, [fakes], config, session_id=4)

    P = PerturbedP(oracle, vocab["w"], vocab["c04"], vocab["c00"], 0.08)
    delta = estimate_delta(P, oracle, vps.prompts)
    report = authenticity_C(P, vps)
    bound = math.exp(epsilon + 2 * delta)
    assert report.C <= bound * (1 + 1e-12)
    assert all(1 / bound <= ratio <= bound for ratio in report.ratios)
    print(f"ACCEPTANCE 7 PASS: worst log-ratio {math.log(report.C):.4f} <= "
          f"eps + 2*delta = {epsilon + 2 * delta:.4f} over {vps.lam} decoys, "
          f"exhaustively")


def test_criterion_08_communication_constancy(small_weights):
    model = ModelParty(small_weights, stop_at_eos=False)
    ctrl = Controller()
    user = UserParty(3, WeightsHandle(small_weights))
    user_prefill(user, TaggedPrompt(tokens=[4, 9, 2]), NO_OBF)
    transcript = run_sessions(model, ctrl, [user], 64)
    report = comm_accounting(transcript)
    c = small_weights.config
    expected = c.n_layers * c.n_heads * (2 * c.head_dim + 2)
    assert report.steps == 64
    assert report.constant_per_round
    assert report.round_scalars_per_round == expected
    assert "running max" in report.note and "running max" in report.to_text()
    print(f"ACCEPTANCE 8 PASS: {report.round_scalars_per_round} attention-exchange "
          f"scalars per round, constant over {report.steps} rounds, "
          f"= layers*heads*(2*head_dim+2) = {expected}; extra running-max scalar "
          f"documented in the report")


def test_criterion_09_controller_soundness(small_weights):
    ctrl = Controller()
    for sid in (1, 2, 3):
        ctrl.open_stream(sid)
        ctrl.expect(sid, np.eye(small_weights.config.vocab_size)[17])  # greedy: token 17
    g = rng(4242)
    non_token = 0
    non_token_passed = 0
    for _ in range(10_000):
        tag = int(g.choice(list(TAG_NAMES)))
        payload = bytes(g.integers(0, 256, size=8, dtype=np.uint8))
        msg = ProtocolMessage(tag=tag, session_id=int(g.integers(0, 50)), payload=payload)
        decision = controller_gate(ctrl, msg)
        if tag != TAG_TOKEN:
            non_token += 1
            non_token_passed += decision.passed
    assert non_token_passed == 0

    # honest session with exactly one flipped outbound token
    prompt = [12, 7]
    model = ModelParty(small_weights)
    ctrl = Controller()
    user = UserParty(5, WeightsHandle(small_weights))
    user_prefill(user, TaggedPrompt(tokens=prompt), NO_OBF)
    flipped = {"done": False}
    original_queue = user._queue_outward

    def evil(msg):
        if not flipped["done"] and len(user.streams[msg.session_id].tokens) == 4:
            flipped["done"] = True
            msg = ProtocolMessage(tag=msg.tag, session_id=msg.session_id,
                                  payload=encode_token(decode_token(msg.payload) ^ 1))
        original_queue(msg)

    user._queue_outward = evil
    run_sessions(model, ctrl, [user], 16)
    sid = next(iter(user.streams))
    assert flipped["done"]
    assert sid in ctrl.killed
    print(f"ACCEPTANCE 9 PASS: 0 of {non_token} fuzzed non-token frames passed; "
          f"one flipped token blocked and session killed")


def test_criterion_10_memory_multiplicity():
    bench_model = ModelConfig(
        n_layers=2, n_heads=2, d_model=32, head_dim=16, vocab_size=64, max_seq=48, seed=8
    )
    copies = {}
    for users in (1, 4, 8):
        for mode, expected in (("full_isolation", users), ("spd", 1)):
            record = run_mode(BenchConfig(
                mode=mode, users=users, in_tokens=6, out_tokens=8, lam=0,
                model=bench_model, repetitions=3, seed=1,
            ))
            assert record.weight_copies == expected, (mode, users)
            copies[(mode, users)] = record.weight_copies

    # user party holds no weight tensors after prefill
    weights = init_model(bench_model)
    user = UserParty(9, WeightsHandle(weights))
    user_prefill(user, TaggedPrompt(tokens=[1, 2, 3]), NO_OBF)
    assert user.weights_handle.released
    assert user.weights_handle._weights is None
    from splitdecode.model import Weights

    assert not any(isinstance(v, Weights) for v in vars(user).values())
    accesses_before = user.weights_handle.accesses
    model = ModelParty(weights)
    ctrl = Controller()
    run_sessions(model, ctrl, [user], 8)
    assert user.weights_handle.accesses == accesses_before
    print(f"ACCEPTANCE 10 PASS: weight copies {copies}; user party retains zero "
          f"weight matrices and makes zero weight accesses after prefill")


def test_criterion_11_scaling_trend():
    bench_model = ModelConfig(
        n_layers=2, n_heads=2, d_model=128, head_dim=64, vocab_size=64, max_seq=64, seed=11
    )
    user_counts = (1, 2, 4, 8)
    modes = ("full_isolation", "spd")
    repeats = 3
    # one wall-clock ordering, made robust to machine-speed phases: the
    # modes run interleaved, repeats times each, and their median slopes
    # compare
    slopes = {mode: [] for mode in modes}
    for _ in range(repeats):
        meds = {mode: [] for mode in modes}
        for m in user_counts:
            for mode in modes:
                meds[mode].append(run_mode(BenchConfig(
                    mode=mode, users=m, in_tokens=32, out_tokens=16, lam=0,
                    model=bench_model, repetitions=3, seed=0,
                )).ms_per_token_med)
        for mode, ys in meds.items():
            fit = np.polyfit(np.array(user_counts, dtype=float), np.array(ys), 1)
            slopes[mode].append(float(fit[0]))
    slope = {mode: float(np.median(s)) for mode, s in slopes.items()}
    assert slope["full_isolation"] >= slope["spd"]
    print(f"ACCEPTANCE 11 PASS: per-token latency slope vs users "
          f"full_isolation {slope['full_isolation']:.4f} ms/user >= "
          f"spd {slope['spd']:.4f} ms/user (medians of {repeats} interleaved runs, "
          f"each of medians of 3 repetitions)")
