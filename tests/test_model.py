import hashlib
import math
import os
import pathlib
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from splitdecode import model as model_module
from splitdecode import protocol
from splitdecode.model import (
    PREFILL_CHUNK,
    RMS_EPS,
    ROTARY_BASE,
    ROW_BLOCK,
    CacheFullError,
    ConfigError,
    KvCache,
    ModelConfig,
    _rms_norm,
    _silu,
    attention_reference,
    causal_attention,
    decode_step_monolithic,
    full_forward,
    greedy_decode,
    init_model,
    prefill,
    sample_token,
    trunk,
    weight_alloc_count,
)
from splitdecode.numerics import DimensionError

from conftest import rng, rotary_encode, weight_tensors


def naive_softmax_attention(Q, K, V, causal):
    """Per-element reference using plain math.exp loops."""
    n_q, n_k = Q.shape[0], K.shape[0]
    offset = n_k - n_q
    out = np.zeros((n_q, V.shape[1]))
    for i in range(n_q):
        visible = n_k if not causal else offset + i + 1
        scores = [sum(Q[i, d] * K[j, d] for d in range(Q.shape[1])) for j in range(visible)]
        m = max(scores)
        exps = [math.exp(s - m) for s in scores]
        z = sum(exps)
        for j in range(visible):
            for d in range(V.shape[1]):
                out[i, d] += (exps[j] / z) * V[j, d]
    return out


def reference_forward(weights, tokens):
    """Logits of every position, attending one head and one query row at a
    time through attention_reference."""
    c = weights.config
    n = len(tokens)
    positions = np.arange(n)

    def rms(x, gain):
        return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + RMS_EPS) * gain

    x = weights.embed[tokens]
    for lw in weights.layers:
        h = rms(x, lw.gain_attn)
        heads = []
        for head in range(c.n_heads):
            cols = slice(head * c.head_dim, (head + 1) * c.head_dim)
            q = rotary_encode(h @ lw.wq[:, cols], positions) * c.head_dim**-0.5
            k = rotary_encode(h @ lw.wk[:, cols], positions)
            v = h @ lw.wv[:, cols]
            rows = [attention_reference(q[i], k[: i + 1], v[: i + 1])[0] for i in range(n)]
            heads.append(np.stack(rows))
        x = x + np.concatenate(heads, axis=1) @ lw.wo
        g = rms(x, lw.gain_mlp) @ lw.w_in
        x = x + (g / (1.0 + np.exp(-g))) @ lw.w_out
    return rms(x, weights.final_gain) @ weights.unembed


class TestConfig:
    def test_head_dim_mismatch(self):
        with pytest.raises(ConfigError):
            ModelConfig(2, 2, 16, 4, 64, 32, 0)

    def test_odd_head_dim(self):
        with pytest.raises(ConfigError):
            ModelConfig(1, 1, 7, 7, 64, 32, 0)

    @pytest.mark.parametrize("vocab,max_seq", [(3, 32), (64, 1)])
    def test_bounds(self, vocab, max_seq):
        with pytest.raises(ConfigError):
            ModelConfig(1, 1, 8, 8, vocab, max_seq, 0)


class TestInitModel:
    def test_same_seed_byte_identical(self, small_config):
        w1, w2 = init_model(small_config), init_model(small_config)
        for t1, t2 in zip(weight_tensors(w1), weight_tensors(w2)):
            assert np.array_equal(t1, t2)

    @pytest.mark.parametrize(
        "config, size, digest",
        [
            # the benchmark's pinned model, and small_config
            (ModelConfig(4, 4, 256, 64, 256, 160, 20240928), 26_232_832,
             "c557f4c618a5299a2db90bb952014da5"),
            (ModelConfig(2, 2, 16, 8, 64, 96, 7), 66_176, "16e4ba5c6e958e08e2fb6970b8636740"),
        ],
        ids=["pinned", "small"],
    )
    def test_weight_file_bytes_are_pinned(self, config, size, digest):
        # init_model must keep every bit of these weights, every tensor in
        # _tensor_layout order as little-endian float64, and count one copy
        before = weight_alloc_count()
        weights = init_model(config)
        assert weight_alloc_count() == before + 1
        data = b"".join(
            np.ascontiguousarray(t, dtype="<f8").tobytes() for t in weight_tensors(weights)
        )
        assert len(data) == size
        assert hashlib.blake2b(data, digest_size=16).hexdigest() == digest

    def test_seed_changes_logits(self, small_config):
        other = ModelConfig(
            **{**small_config.__dict__, "seed": small_config.seed + 1}
        )
        la = full_forward(init_model(small_config), [1, 2, 3])[-1]
        lb = full_forward(init_model(other), [1, 2, 3])[-1]
        assert not np.allclose(la, lb)


class TestAttentionReference:
    def test_single_query_single_key(self):
        v = np.array([[1.0, 2.0, 3.0]])
        out = attention_reference(np.array([0.3, -0.7]), np.array([[1.0, 1.0]]), v)
        assert np.allclose(out, v, atol=1e-15)

    def test_uniform_scores_give_column_mean(self):
        q = np.array([1.0, 0.0])
        K = np.array([[0.0, 1.0], [0.0, -1.0], [0.0, 5.0]])  # all orthogonal to q
        V = rng(3).standard_normal((3, 4))
        out = attention_reference(q, K, V)
        assert np.allclose(out[0], V.mean(axis=0), atol=1e-12)

    def test_matches_naive_oracle(self):
        g = rng(11)
        Q = g.standard_normal((16, 8))
        K = g.standard_normal((16, 8))
        V = g.standard_normal((16, 8))
        got = attention_reference(Q, K, V)
        want = naive_softmax_attention(Q, K, V, causal=True)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_single_query_attends_everything(self):
        g = rng(12)
        q = g.standard_normal(8)
        K = g.standard_normal((5, 8))
        V = g.standard_normal((5, 8))
        got = attention_reference(q, K, V)
        want = naive_softmax_attention(q[None, :], K, V, causal=False)
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_shape_errors(self):
        with pytest.raises(DimensionError):
            attention_reference(np.zeros((2, 4)), np.zeros((3, 5)), np.zeros((3, 4)))
        with pytest.raises(DimensionError):
            attention_reference(np.zeros((2, 4)), np.zeros((3, 4)), np.zeros((2, 4)))


class TestVectorizedCausalPath:
    @pytest.mark.parametrize("length", [1, 2, 7, 33, "max_seq"])
    def test_logits_match_row_by_row_oracle(self, small_weights, length):
        c = small_weights.config
        n = c.max_seq if length == "max_seq" else length
        prompt = rng(n).integers(0, c.vocab_size - 1, size=n).tolist()
        want = reference_forward(small_weights, prompt)
        assert np.max(np.abs(full_forward(small_weights, prompt) - want)) <= 1e-10
        _, last = prefill(small_weights, prompt)
        assert np.max(np.abs(last - want[-1])) <= 1e-10

    @pytest.mark.parametrize("n_q,n_k", [(1, 1), (1, 6), (4, 4), (3, 7)])
    def test_causal_attention_matches_reference_per_head(self, n_q, n_k):
        g = rng(50 + n_q * n_k)
        q = g.standard_normal((3, n_q, 8))
        k = g.standard_normal((3, n_k, 8))
        v = g.standard_normal((3, n_k, 8))
        got = causal_attention(q, k, v)
        for head in range(3):
            want = attention_reference(q[head], k[head], v[head])
            assert np.max(np.abs(got[head] - want)) <= 1e-12


class TestPrefillDecode:
    def test_prefill_then_decode_matches_full_recompute(self, small_weights):
        tokens = [5, 9, 2, 33, 7]
        cache, _ = prefill(small_weights, tokens[:-1])
        cached_logits = decode_step_monolithic(small_weights, cache, tokens[-1])
        full_logits = full_forward(small_weights, tokens)[-1]
        assert np.max(np.abs(cached_logits - full_logits)) <= 1e-10

    def test_empty_prompt_rejected(self, small_weights):
        with pytest.raises(ValueError):
            prefill(small_weights, [])

    def test_overlong_prompt_rejected(self, small_weights):
        with pytest.raises(CacheFullError):
            prefill(small_weights, [1] * (small_weights.config.max_seq + 1))

    def test_prefill_is_deterministic(self, small_weights):
        c1, l1 = prefill(small_weights, [4, 4, 8])
        c2, l2 = prefill(small_weights, [4, 4, 8])
        assert np.array_equal(c1.k, c2.k) and np.array_equal(c1.v, c2.v)
        assert np.array_equal(l1, l2)

    def test_cached_greedy_equals_uncached(self, small_weights):
        prompt = [3, 1, 4, 1, 5]
        cached = greedy_decode(small_weights, prompt, 10, stop_at_eos=False)
        seq = list(prompt)
        uncached = []
        for _ in range(11):
            logits = full_forward(small_weights, seq)[-1]
            token = int(np.argmax(logits))
            uncached.append(token)
            seq.append(token)
        assert cached == uncached

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_cache_equivalence_random_prompts(self, small_config, seed):
        weights = init_model(
            ModelConfig(**{**small_config.__dict__, "seed": 100 + seed})
        )
        g = rng(seed)
        prompt = g.integers(0, small_config.vocab_size - 1, size=int(g.integers(1, 33))).tolist()
        cached = greedy_decode(weights, prompt, 16, stop_at_eos=False)
        seq = list(prompt)
        uncached = []
        for _ in range(17):
            if len(seq) > small_config.max_seq:
                break
            token = int(np.argmax(full_forward(weights, seq)[-1]))
            uncached.append(token)
            seq.append(token)
        assert cached == uncached[: len(cached)]

    def test_prefix_continues_bit_identically(self):
        # head_dim 64, where BLAS picks its kernel by the score product's
        # shape. Three prompts that agree up to a chunk bound and differ
        # from it on prefill as one set; each one's rows and logits are
        # those of its own lone prefill, bit for bit
        weights = init_model(ModelConfig(
            n_layers=2, n_heads=2, d_model=128, head_dim=64, vocab_size=64, max_seq=160, seed=5
        ))
        n = weights.config.max_seq
        prompt = rng(3).integers(0, 63, size=n).tolist()
        for p in range(0, n, PREFILL_CHUNK):
            prompts = [prompt] + [
                prompt[:p] + [(prompt[p] + i) % 64] + rng(4 + p + i).integers(0, 63, size=n - p - 1).tolist()
                for i in (1, 2)
            ]
            kv, logits = prefill(weights, prompts)
            assert kv.shared_k.shape[2] == p and kv.private_k.shape[3] == n - p
            for i, tokens in enumerate(prompts):
                cache, want = prefill(weights, tokens)
                k = np.concatenate([kv.shared_k, kv.private_k[i]], axis=2)
                v = np.concatenate([kv.shared_v, kv.private_v[i]], axis=2)
                assert np.array_equal(k, cache.k[:, :, :n]) and np.array_equal(v, cache.v[:, :, :n])
                assert np.array_equal(logits[i], want)

    def test_decode_on_empty_cache_rejected(self, small_weights):
        from splitdecode.model import KvCache

        with pytest.raises(ValueError):
            decode_step_monolithic(small_weights, KvCache(config=small_weights.config), 3)

    def test_decode_past_max_seq_rejected(self, small_config):
        config = ModelConfig(**{**small_config.__dict__, "max_seq": 4})
        weights = init_model(config)
        cache, _ = prefill(weights, [1, 2, 3, 4])
        with pytest.raises(CacheFullError):
            decode_step_monolithic(weights, cache, 1)

    def test_logits_stay_finite_64_steps(self):
        config = ModelConfig(
            n_layers=2, n_heads=2, d_model=32, head_dim=16, vocab_size=64, max_seq=80, seed=3
        )
        weights = init_model(config)
        cache, logits = prefill(weights, [7, 11, 13])
        token = int(np.argmax(logits))
        for _ in range(64):
            logits = decode_step_monolithic(weights, cache, token)
            assert np.all(np.isfinite(logits))
            token = int(np.argmax(logits))

    def test_cached_rows_never_change(self, small_weights):
        prompt = [9, 8, 7]
        cache, logits = prefill(small_weights, prompt)
        frozen_k = cache.k[:, :, : len(prompt), :].copy()
        frozen_v = cache.v[:, :, : len(prompt), :].copy()
        token = int(np.argmax(logits))
        for _ in range(6):
            token = int(np.argmax(decode_step_monolithic(small_weights, cache, token)))
        assert np.array_equal(cache.k[:, :, : len(prompt), :], frozen_k)
        assert np.array_equal(cache.v[:, :, : len(prompt), :], frozen_v)


class TestTokenRange:
    @pytest.mark.parametrize("end", ["below", "above"])
    def test_out_of_vocab_token_rejected_before_the_trunk(self, small_weights, end, monkeypatch):
        # -1 would read the EOS row from the embedding table's end, and
        # vocab_size would fail deep inside the trunk
        c = small_weights.config
        bad = -1 if end == "below" else c.vocab_size
        cache, _ = prefill(small_weights, [1, 2])

        def no_trunk(*args, **kwargs):
            raise AssertionError("the trunk ran")

        monkeypatch.setattr(model_module, "trunk", no_trunk)
        for call in (
            lambda: prefill(small_weights, [3, bad]),
            lambda: full_forward(small_weights, [bad, 3]),
            lambda: decode_step_monolithic(small_weights, cache, bad),
        ):
            with pytest.raises(ValueError, match=f"token {bad} outside"):
                call()
        assert cache.length == 2

    def test_both_ends_of_the_vocab_accepted(self, small_weights):
        ends = [0, small_weights.config.vocab_size - 1]
        cache, _ = prefill(small_weights, ends)
        assert full_forward(small_weights, ends).shape == (2, small_weights.config.vocab_size)
        for token in ends:
            decode_step_monolithic(small_weights, cache, token)
        assert cache.length == 4


@pytest.fixture(scope="module")
def deep_weights():
    """Three layers, so a middle layer runs at full width, and room for
    prompts of several prefill chunks."""
    return init_model(ModelConfig(
        n_layers=3, n_heads=2, d_model=32, head_dim=16, vocab_size=64, max_seq=128, seed=11
    ))


@pytest.fixture(scope="module")
def pinned_weights():
    """The benchmark's pinned model shape: 4 layers, 4 heads, d_model 256,
    max_seq 160."""
    return init_model(ModelConfig(
        n_layers=4, n_heads=4, d_model=256, head_dim=64, vocab_size=256, max_seq=160,
        seed=20240928,
    ))


def reference_chunk_attention(cache):
    """attend for a chunk of one session's consecutive tokens, kept apart
    from the model's own: it writes their K/V at rows cache.length onward
    and attends causally over the rows up to the chunk's end; the caller
    advances cache.length."""

    def attend(layer, q, k, v):
        lo, hi = cache.length, cache.length + k.shape[1]
        cache.k[layer, :, lo:hi] = k
        cache.v[layer, :, lo:hi] = v
        return causal_attention(q, cache.k[layer, :, :hi], cache.v[layer, :, :hi])

    return attend


class TestDecodeStep:
    """decode_step_monolithic attends as a one-row chunk of its cache. Its
    logits and the row it appends are those of a trunk run whose attend
    writes the row and attends over rows :n + 1 directly, bit for bit."""

    @pytest.mark.parametrize("weights", ["deep_weights", "pinned_weights"])
    @pytest.mark.parametrize("length", [1, 31, 32, 33, "max_seq - 1"])
    def test_bit_identical_to_direct_cache_attention(self, request, weights, length):
        weights = request.getfixturevalue(weights)
        c = weights.config
        n = c.max_seq - 1 if length == "max_seq - 1" else length
        prompt = rng(300 + n).integers(0, c.vocab_size, size=n).tolist()
        cache, logits = prefill(weights, prompt)
        reference = KvCache(config=c)
        reference.k[:], reference.v[:], reference.length = cache.k, cache.v, n
        token = sample_token(logits)
        got = decode_step_monolithic(weights, cache, token)
        want = trunk(weights, [token], [n], reference_chunk_attention(reference))
        assert cache.length == n + 1
        assert np.array_equal(got, want[0])
        assert np.array_equal(cache.k, reference.k) and np.array_equal(cache.v, reference.v)


class TestPrefillMemory:
    def test_set_prefill_peak_below_twice_its_rows(self, pinned_weights):
        # 8 prompts of 160 tokens that agree up to token 40: prefill
        # writes every K/V row once, straight into the PromptSetKv it
        # returns, so its allocations peak below twice that set's bytes
        c = pinned_weights.config
        prefix = rng(21).integers(0, c.vocab_size, size=40).tolist()
        prompts = [
            prefix + [i] + rng(22 + i).integers(0, c.vocab_size, size=119).tolist()
            for i in range(8)
        ]
        tracemalloc.start()
        try:
            kv, _ = prefill(pinned_weights, prompts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kv.shared_k.shape[2] == 40 and kv.private_k.shape[3] == 120
        held = sum(a.nbytes for a in (kv.shared_k, kv.shared_v, kv.private_k, kv.private_v))
        assert peak < 2 * held


class TestPrefillTail:
    """prefill runs its last layer's Q side, attention, MLP and
    unembedding only for the row it returns. Every K/V row stays the one
    a full-width run stores, bit for bit."""

    @pytest.mark.parametrize("length", [1, 31, 32, 33, 100, "max_seq"])
    def test_cache_bit_identical_to_full_width_chunks(self, deep_weights, length):
        c = deep_weights.config
        n = c.max_seq if length == "max_seq" else length
        prompt = rng(200 + n).integers(0, c.vocab_size, size=n).tolist()
        cache, logits = prefill(deep_weights, prompt)
        full = KvCache(config=c)
        attend = reference_chunk_attention(full)
        for lo in range(0, n, PREFILL_CHUNK):
            hi = min(lo + PREFILL_CHUNK, n)
            rows = trunk(deep_weights, prompt[lo:hi], np.arange(lo, hi), attend)
            assert rows.shape == (hi - lo, c.vocab_size)
            full.length = hi
        assert cache.length == full.length == n
        assert np.array_equal(cache.k, full.k) and np.array_equal(cache.v, full.v)
        assert np.max(np.abs(logits - full_forward(deep_weights, prompt)[-1])) <= 1e-10

    @pytest.mark.parametrize("n", [1, 33, 100])
    def test_last_layer_mlp_runs_one_row(self, deep_weights, n, monkeypatch):
        layers = deep_weights.config.n_layers
        rows, silu = [], _silu

        def counting_silu(x):
            rows.append(x.size // x.shape[-1])
            return silu(x)

        monkeypatch.setattr(model_module, "_silu", counting_silu)
        prefill(deep_weights, rng(n).integers(0, 64, size=n).tolist())
        assert sum(rows) == (layers - 1) * n + 1
        assert sum(rows[layers - 1 :: layers]) == 1
        rows.clear()
        full_forward(deep_weights, list(range(n % 64)) or [0])
        assert sum(rows) == layers * max(n % 64, 1)

    @pytest.mark.parametrize("row", [-1, 4])
    def test_tail_outside_the_rows_rejected(self, deep_weights, row):
        with pytest.raises(ValueError, match="outside"):
            trunk(deep_weights, [1, 2, 3], np.arange(3),
                  lambda layer, q, k, v: causal_attention(q, k, v), read=[row])


class TestPromptSetPrefill:
    """prefill of a set of equal-length prompts checks its input before
    any trunk work. (TestSharedPrefixPrefill in test_protocol.py compares
    sets with their prompts' lone prefills.)"""

    @pytest.mark.parametrize("prompts,error", [
        ([], "empty prompt"),
        (np.zeros((0, 3), dtype=int), "empty prompt"),
        ([[], []], "empty prompt"),
        ([[1, 2], [3]], "unequal lengths"),
        ([[1] * 97, [2] * 97], "exceeds max_seq"),
        ([[1, 2, 3], [1, 2, 4], [1, 2, 3]], "identical"),
        ([[1, 2], [64, 2]], "token 64 outside"),
    ])
    def test_bad_set_rejected_before_the_trunk(self, small_weights, prompts, error, monkeypatch):
        assert small_weights.config.max_seq == 96

        def no_trunk(*args, **kwargs):
            raise AssertionError("the trunk ran")

        monkeypatch.setattr(model_module, "trunk", no_trunk)
        with pytest.raises(ValueError, match=error):
            prefill(small_weights, prompts)


class TestRowPlacement:
    """The premise of the set prefill, checked against the BLAS in use: in
    every matrix product the trunk runs at the benchmark's pinned model and
    at head_dim 64 with d_model 128, permuting the left operand's rows, or
    moving them into other blocks of a 3-D stack, permutes the output rows
    bit for bit. A BLAS that picked its kernel by a row's place would fail
    here, by name, before any stream comparison did."""

    @pytest.mark.parametrize("d,vocab", [(256, 256), (128, 64)])
    @pytest.mark.parametrize(
        "product", ["d x d", "d x 4d", "4d x d", "d x vocab", "scores", "values"]
    )
    def test_rows_move_bit_for_bit(self, d, vocab, product):
        head_dim, keys = 64, 160
        inner, cols = {
            "d x d": (d, d), "d x 4d": (d, 4 * d), "4d x d": (4 * d, d),
            "d x vocab": (d, vocab), "scores": (head_dim, keys), "values": (keys, head_dim),
        }[product]
        g = rng(d + inner + cols)
        right = g.standard_normal((inner, cols))
        if product == "scores":
            # causal_attention multiplies by a transposed view of K
            right = np.ascontiguousarray(right.T).T
        for rows in range(1, 65):
            left = g.standard_normal((rows, inner))
            want = left @ right
            order = g.permutation(rows)
            assert np.array_equal(left[order] @ right, want[order]), rows
            # the rows in random places of a stack of two blocks of rows
            places = g.permutation(2 * rows)[:rows]
            stack = g.standard_normal((2 * rows, inner))
            stack[places] = left
            got = (stack.reshape(2, rows, inner) @ right).reshape(2 * rows, -1)
            assert np.array_equal(got[places], want), rows


class TestRowCount:
    """The premise of batch-invariant decode, checked against the BLAS in
    use: in every matrix product a decode round's trunk runs at the
    benchmark's pinned model, each row's bits are the same at every row
    count M from protocol._MIN_ROUND_ROWS (B) to 128. model_batch_step pads
    a smaller round to B rows; a BLAS whose kernel for some larger M gave
    other bits would fail here, by name. The attention products run one
    query row per stream at any M. At d_model 128 the premise needs B = 16
    on OpenBLAS 0.3.31's SkylakeX kernels (its 512x128 product changes bits
    at M = 16), so models of that shape are not batch-invariant."""

    @pytest.mark.parametrize("product", ["d x d", "d x 4d", "4d x d", "d x vocab"])
    def test_row_bits_do_not_depend_on_row_count(self, product):
        d, vocab, b = 256, 256, protocol._MIN_ROUND_ROWS
        inner, cols = {"d x d": (d, d), "d x 4d": (d, 4 * d), "4d x d": (4 * d, d),
                       "d x vocab": (d, vocab)}[product]
        g = rng(inner + cols)
        right = g.standard_normal((inner, cols))
        left = g.standard_normal((128, inner))
        # every row in a block of b rows, which has the bits of a b-row
        # product wherever the block is (TestRowPlacement)
        want = (left.reshape(-1, b, inner) @ right).reshape(128, cols)
        for rows in range(b, 129):
            assert np.array_equal(left[:rows] @ right, want[:rows]), rows


class TestFlatProduct:
    """The premise of prefill's passes and of trunk's flat products,
    checked against the BLAS in use: in every weight product the trunk
    runs at the benchmark's pinned model and at d_model 128 with vocab 64,
    one M-row product gives each row the bits it gets in blocks of
    ROW_BLOCK rows and in blocks of 32, at every M that is a multiple of
    ROW_BLOCK up to 256. A BLAS whose kernel gave other bits at some such
    M would fail here, by name. TestCrossKernel reruns this under other
    OpenBLAS kernels."""

    @pytest.mark.parametrize("d,vocab", [(256, 256), (128, 64)])
    @pytest.mark.parametrize("product", ["d x d", "d x 4d", "4d x d", "d x vocab"])
    def test_flat_product_keeps_block_bits(self, d, vocab, product):
        inner, cols = {"d x d": (d, d), "d x 4d": (d, 4 * d), "4d x d": (4 * d, d),
                       "d x vocab": (d, vocab)}[product]
        g = rng(d + inner + cols)
        right = g.standard_normal((inner, cols))
        left = g.standard_normal((256, inner))
        blocks = [(left.reshape(-1, b, inner) @ right).reshape(256, cols) for b in (ROW_BLOCK, 32)]
        for rows in range(ROW_BLOCK, 257, ROW_BLOCK):
            got = left[:rows] @ right
            for want in blocks:
                assert np.array_equal(got, want[:rows]), rows


def _cpu_flags() -> set[str]:
    try:
        with open("/proc/cpuinfo") as f:
            return next((set(line.split()[2:]) for line in f if line.startswith("flags")), set())
    except OSError:
        return set()


# OpenBLAS core types (OPENBLAS_CORETYPE, read by OpenBLAS builds with
# DYNAMIC_ARCH) and the CPU flag each one's kernels need
CORE_TYPES = {"Prescott": "pni", "Nehalem": "sse4_2", "Sandybridge": "avx",
              "Haswell": "avx2", "Zen": "avx2", "SkylakeX": "avx512f"}


class TestCrossKernel:
    """TestFlatProduct once more in a fresh process per OpenBLAS core type
    the CPU can run, two at a time, so the premise is checked on the
    kernels of other CPUs too, not only on the one this CPU picks."""

    def test_flat_product_premise_holds_on_every_core_type(self):
        flags = _cpu_flags()
        cores = [core for core, flag in CORE_TYPES.items() if flag in flags]
        if not cores:
            pytest.skip("no OpenBLAS x86 core type runs on this CPU")
        root = pathlib.Path(__file__).resolve().parents[1]
        path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))

        def run(core):
            env = {**os.environ, "OPENBLAS_CORETYPE": core, "OPENBLAS_NUM_THREADS": "1",
                   "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1", "PYTHONPATH": path}
            return subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                 f"{root / 'tests' / 'test_model.py'}::TestFlatProduct"],
                cwd=root, env=env, capture_output=True, text=True, timeout=120,
            )

        with ThreadPoolExecutor(max_workers=2) as pool:
            failed = {core: r.stdout + r.stderr for core, r in zip(cores, pool.map(run, cores))
                      if r.returncode != 0}
        assert failed == {}


class TestInPlaceKernels:
    """The trunk's once-per-call rotation and its in-place helpers compute
    the plain expressions bit for bit."""

    def test_trunk_rotation_matches_rotary_encode_at_every_position(self, deep_weights):
        c = deep_weights.config
        positions = np.arange(c.max_seq)
        tokens = rng(5).integers(0, c.vocab_size, size=c.max_seq).tolist()
        seen = {}

        def attend(layer, q, k, v):
            seen[layer] = q.copy(), k.copy()
            return causal_attention(q, k, v)

        trunk(deep_weights, tokens, positions, attend)
        lw = deep_weights.layers[0]
        x = deep_weights.embed[tokens]
        h = (x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + RMS_EPS)) * lw.gain_attn

        def heads(w):
            return (h @ w).reshape(c.max_seq, c.n_heads, c.head_dim).transpose(1, 0, 2)

        q, k = seen[0]
        assert np.array_equal(k, rotary_encode(heads(lw.wk), positions))
        assert np.array_equal(q, rotary_encode(heads(lw.wq), positions) * c.head_dim**-0.5)

    def test_rotary_encode_matches_its_plain_expression_per_position(self):
        x = rng(6).standard_normal((3, 160, 16))
        positions = np.arange(160)
        angles = positions.astype(np.float64)[:, None] * ROTARY_BASE ** (-np.arange(0, 16, 2) / 16)
        cos, sin = np.cos(angles), np.sin(angles)
        even, odd = x[..., 0::2], x[..., 1::2]
        want = np.empty_like(x)
        want[..., 0::2] = even * cos - odd * sin
        want[..., 1::2] = even * sin + odd * cos
        assert np.array_equal(rotary_encode(x, positions), want)
        for p in positions:
            assert np.array_equal(rotary_encode(x[:, p : p + 1], [p]), want[:, p : p + 1])

    def test_silu_and_rms_norm_match_plain_expressions(self):
        x = 4 * rng(7).standard_normal((32, 128))
        gain = 1 + 0.1 * rng(8).standard_normal(128)
        before = x.copy()
        assert np.array_equal(_silu(x), x / (1.0 + np.exp(-x)))
        plain = (x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + RMS_EPS)) * gain
        assert np.array_equal(_rms_norm(x, gain), plain)
        assert np.array_equal(x, before)

    @pytest.mark.parametrize("n_q,n_k", [(0, 5), (1, 1), (1, 6), (4, 4), (3, 7), (32, 100)])
    def test_causal_attention_matches_plain_expression(self, n_q, n_k):
        g = rng(60 + n_q * n_k)
        q, k, v = (g.standard_normal((3, rows, 8)) for rows in (n_q, n_k, n_k))
        scores = q @ k.transpose(0, 2, 1)
        if n_q > 1:
            scores[:, ~np.tri(n_q, n_k, n_k - n_q, dtype=bool)] = -np.inf
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        want = (e / e.sum(axis=-1, keepdims=True)) @ v
        got = causal_attention(q, k, v)
        assert got.shape == (3, n_q, 8) and np.array_equal(got, want)


class TestSampleToken:
    def test_one_hot_logits(self):
        logits = np.full(8, -50.0)
        logits[3] = 10.0
        assert sample_token(logits) == 3

    def test_greedy_tie_breaks_low(self):
        logits = np.zeros(8)
        logits[2] = logits[5] = 4.0
        assert sample_token(logits) == 2

    def test_temperature_sampling_reproducible(self):
        logits = rng(4).standard_normal(16)
        assert sample_token(logits, 1.0, seed=9) == sample_token(logits, 1.0, seed=9)

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_token(np.zeros(4), 0.0)
