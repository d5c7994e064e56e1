"""A small decoder-only transformer with per-layer KV caching.

The network is deliberately tiny and untrained: RMS pre-normalization,
rotary position encoding applied to Q and K at projection time, SiLU MLP,
separate embedding/unembedding tables. All weights are deterministic
functions of the config seed, so every property under test is reproducible.

Rotary encoding at projection time means cached K rows are already
position-encoded; splitting a cache by position therefore needs no
re-encoding on either side of the split.

Every forward pass (full recompute, prefill, cached decode, and the
two-party decode in the protocol module) runs through ``trunk``; they
differ only in the attention callback they hand it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .numerics import DimensionError, philox_rng, seeded_matrix, stable_softmax_stats

__all__ = [
    "CacheFullError",
    "ConfigError",
    "KvCache",
    "LayerWeights",
    "ModelConfig",
    "PREFILL_CHUNK",
    "PromptSetKv",
    "ROW_BLOCK",
    "Weights",
    "attention_reference",
    "causal_attention",
    "decode_step_monolithic",
    "full_forward",
    "greedy_decode",
    "init_model",
    "prefill",
    "sample_token",
    "trunk",
    "weight_alloc_count",
]

ROTARY_BASE = 10000.0
RMS_EPS = 1e-6
# rows per prefill chunk. Fixed, not tuned per prompt: every prefill then
# chunks a prompt at the same bounds and scores each chunk in the same
# (n_heads, hi - lo, hi) shape, which keeps the rows of a prompt set
# bit-identical to its prompts' lone prefills (see prefill). At 32,
# prompts of up to 32 tokens stay one chunk.
PREFILL_CHUNK = 32
# the row count every trunk product may be flattened over: a row's bits
# are the same in one M-row product as in blocks of ROW_BLOCK rows, or of
# any multiple of it, whenever M is a multiple of ROW_BLOCK
# (TestFlatProduct in tests/test_model.py checks this of the BLAS in use).
# So a stack of blocks of a multiple of ROW_BLOCK rows runs as one product
# per weight, a prefill pass can hold several chunks, a chunk of such a
# width pads its distinct rows only to a multiple of ROW_BLOCK, and a
# decoy's attention values product may run on ROW_BLOCK of its chunk's
# 32 query rows (TestValuesProduct).
ROW_BLOCK = 16

# Monotonic count of init_model calls, each one weight copy; the bench
# harness reads the delta around a run to measure weight copies.
_weight_allocations = 0


class ConfigError(ValueError):
    """A model configuration, or a run-config file, that is invalid."""


class CacheFullError(ValueError):
    """A prompt longer than max_seq, or a decode step past it."""


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    n_heads: int
    d_model: int
    head_dim: int
    vocab_size: int
    max_seq: int
    seed: int

    def __post_init__(self):
        if self.n_layers < 1 or self.n_heads < 1:
            raise ConfigError("n_layers and n_heads must be >= 1")
        if self.d_model != self.n_heads * self.head_dim:
            raise ConfigError(
                f"d_model ({self.d_model}) must equal n_heads*head_dim "
                f"({self.n_heads}*{self.head_dim})"
            )
        if self.head_dim % 2 != 0:
            raise ConfigError("head_dim must be even (rotary pairs dimensions)")
        if self.vocab_size < 4:
            raise ConfigError("vocab_size must be >= 4")
        if self.max_seq < 2:
            raise ConfigError("max_seq must be >= 2")

    @property
    def mlp_hidden(self) -> int:
        return 4 * self.d_model

    @property
    def eos_token(self) -> int:
        # fixed convention: the last vocab entry terminates generation
        return self.vocab_size - 1


@dataclass
class LayerWeights:
    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    w_in: np.ndarray
    w_out: np.ndarray
    gain_attn: np.ndarray
    gain_mlp: np.ndarray


@dataclass
class Weights:
    config: ModelConfig
    embed: np.ndarray
    layers: list[LayerWeights]
    final_gain: np.ndarray
    unembed: np.ndarray


def weight_alloc_count() -> int:
    return _weight_allocations


def _tensor_layout(c: ModelConfig) -> list[tuple[int, int, float, bool]]:
    """Every tensor of the weights in the order init_model seeds them, as
    (rows, cols, init scale, gain): embed; per layer wq, wk, wv, wo, w_in,
    w_out, gain_attn, gain_mlp (LayerWeights' field order); final_gain;
    unembed. A gain is a d_model vector 1 + N(0, scale^2), centred at 1 so
    early layers neither kill nor blow up signal; every other tensor is a
    rows x cols matrix of N(0, scale^2) entries."""
    d, h, v = c.d_model, c.mlp_hidden, c.vocab_size
    layer = [(d, d, d**-0.5, False)] * 4 + [
        (d, h, d**-0.5, False), (h, d, h**-0.5, False), (1, d, 0.1, True), (1, d, 0.1, True)
    ]
    return [(v, d, 1.0, False), *layer * c.n_layers, (1, d, 0.1, True), (d, v, d**-0.5, False)]


def init_model(config: ModelConfig) -> Weights:
    """Build all weights deterministically from config.seed; counts one
    weight copy.

    Per-tensor seeds come from SeedSequence(config.seed).generate_state,
    one per _tensor_layout entry, so distinct tensors never share a stream
    and two configs with the same seed produce byte-identical weights.
    """
    global _weight_allocations
    _weight_allocations += 1
    layout = _tensor_layout(config)
    seeds = np.random.SeedSequence(config.seed).generate_state(len(layout), dtype=np.uint64)
    tensors = []
    for seed, (rows, cols, scale, gain) in zip(seeds, layout):
        tensor = seeded_matrix(int(seed), rows, cols, scale)
        tensors.append(1.0 + tensor[0] if gain else tensor)
    n = len(fields(LayerWeights))
    layers = [LayerWeights(*tensors[i : i + n]) for i in range(1, len(tensors) - 2, n)]
    return Weights(config, tensors[0], layers, tensors[-2], tensors[-1])


@dataclass
class KvCache:
    """Per-layer, per-head K/V rows for one decode session.

    Backed by preallocated (n_layers, n_heads, max_seq, head_dim) arrays;
    rows written at position p are never rewritten, so cached entries stay
    stable as later tokens are appended. Owned by exactly one session.
    """

    config: ModelConfig
    k: np.ndarray = field(repr=False, init=False)
    v: np.ndarray = field(repr=False, init=False)
    length: int = 0

    def __post_init__(self):
        c = self.config
        shape = (c.n_layers, c.n_heads, c.max_seq, c.head_dim)
        self.k, self.v = np.zeros(shape), np.zeros(shape)

    def as_set(self) -> PromptSetKv:
        """The cache as a set of one prompt with no shared rows, in views
        of its arrays: the row at position r is private_k[0][:, :, r]."""
        return PromptSetKv(self.k[:, :, :0], self.v[:, :, :0], self.k[None], self.v[None])


def _rms_norm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """(x / sqrt(mean(x * x, axis=-1) + RMS_EPS)) * gain, operation for
    operation and so bit for bit, with every step in one output buffer.
    The mean is np.mean's own sum-then-divide, without its wrapper."""
    out = np.multiply(x, x)
    scale = np.add.reduce(out, axis=-1, keepdims=True)
    scale /= x.shape[-1]
    scale += RMS_EPS
    np.sqrt(scale, out=scale)
    np.divide(x, scale, out=out)
    out *= gain
    return out


def _silu(x: np.ndarray) -> np.ndarray:
    """x / (1.0 + exp(-x)), operation for operation and so bit for bit,
    with every step in one output buffer."""
    out = np.negative(x)
    np.exp(out, out=out)
    out += 1.0
    return np.divide(x, out, out=out)


def _rotary_angles(positions, head_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of the rotary angles, (n, head_dim // 2) each: row r
    for positions[r], pair i at frequency ROTARY_BASE**(-2i/head_dim)."""
    inv_freq = ROTARY_BASE ** (-np.arange(0, head_dim, 2) / head_dim)
    angles = np.asarray(positions, dtype=np.float64)[:, None] * inv_freq
    return np.cos(angles), np.sin(angles)


def _rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Turn each consecutive dimension pair (even, odd) of x (..., head_dim)
    to (even * cos - odd * sin, even * sin + odd * cos), by the angles
    whose cos and sin _rotary_angles gave, broadcast against x's pairs
    (..., head_dim // 2).

    It works on a pair view of x: two products over all of x, [even,
    odd] * cos and * sin, then one subtraction and one addition over half
    of it, in the first product's buffer. Those are the plain
    expression's IEEE operations, the addition's operands swapped, so the
    bits are the same."""
    pairs = x.reshape(*x.shape[:-1], x.shape[-1] // 2, 2)
    out = pairs * cos[..., None]
    turn = pairs * sin[..., None]
    out[..., 0] -= turn[..., 1]
    out[..., 1] += turn[..., 0]
    return out.reshape(x.shape)


def attention_reference(Q: np.ndarray, K: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Exact softmax attention; the oracle every partition test merges against.

    Scores are Q K^T with no internal scaling (callers fold any scaling
    into Q). A causal mask applies when Q has more than one row, aligning
    Q's last row with K's last row.
    """
    Q = np.atleast_2d(np.asarray(Q, dtype=np.float64))
    K = np.asarray(K, dtype=np.float64)
    V = np.asarray(V, dtype=np.float64)
    if K.shape[0] != V.shape[0]:
        raise DimensionError("K and V must have the same number of rows")
    if Q.shape[1] != K.shape[1]:
        raise DimensionError("Q and K width mismatch")
    n_q, n_k = Q.shape[0], K.shape[0]
    if n_q > 1 and n_q > n_k:
        raise DimensionError("causal attention needs at least as many keys as queries")
    scores = Q @ K.T
    out = np.empty((n_q, V.shape[1]))
    offset = n_k - n_q
    for i in range(n_q):
        visible = n_k if n_q == 1 else offset + i + 1
        stats = stable_softmax_stats(scores[i, :visible])
        out[i] = stats.weights @ V[:visible]
    return out


def causal_attention(q: np.ndarray, k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """attention_reference for every head (and any leading axes) at once.

    q is (..., n_q, head_dim), k and v are (..., n_k, head_dim), with the
    leading axes (n_heads, or prompts x n_heads) alike; query row i sees
    keys up to n_k - n_q + i, so queries align with the trailing keys: a
    single query row sees every key, and n_q may be 0. Returns q's shape.
    The softmax is e = exp(s - max(s)); e / sum(e), computed in the score
    buffer.
    """
    return _softmax_values(_scores(q, k, _causal_mask(q.shape[-2], k.shape[-2])), v)


def _causal_mask(n_q: int, n_k: int) -> np.ndarray | None:
    """The (n_q, n_k) keys each query row may not see, those past n_k -
    n_q + i for row i; None for one query row, which sees every key."""
    return ~np.tri(n_q, n_k, n_k - n_q, dtype=bool) if n_q > 1 else None


def _scores(q: np.ndarray, k: np.ndarray, hidden: np.ndarray | None) -> np.ndarray:
    """q k^T, (..., n_q, n_k), with the keys hidden names set to -inf."""
    scores = q @ k.swapaxes(-1, -2)
    if hidden is not None:
        np.copyto(scores, -np.inf, where=hidden)
    return scores


def _softmax_values(scores: np.ndarray, v: np.ndarray) -> np.ndarray:
    """softmax(scores) @ v, the softmax e = exp(s - max(s)); e / sum(e)
    computed row by row in scores, which may be a view."""
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=-1, keepdims=True)
    return scores @ v


def trunk(weights: Weights, tokens, positions, attend, read=None) -> np.ndarray:
    """The decoder: logits for the rows of tokens that read names (every
    row by default), with attention left to attend.

    tokens and positions are a stack of equal-length blocks, (blocks, m)
    (a flat sequence is one block). Rows are numbered block by block. If m
    is a multiple of ROW_BLOCK, every matrix product runs once, on all of
    the stack's rows; otherwise once per block, on m rows, as numpy's
    matmul does for a 3-D stack. Either way a row's bits depend neither
    on which block holds it, or where, nor on how many blocks there are:
    a product whose row count is a multiple of ROW_BLOCK gives a row the
    bits it has in a block of ROW_BLOCK rows (see ROW_BLOCK).

    Every layer runs RMS norm, Q/K/V projection with rotary encoding at the
    given positions, then attend(layer, q, k, v) on (n_heads, rows,
    head_dim) arrays (q already scaled by head_dim**-0.5), which returns
    the per-head attention output of q's shape; then the output projection
    and the MLP, each with its residual. attend is the only place callers
    differ: prefill, monolithic decode and two-party decode all share this
    trunk. The rotary angles are computed once per call, for every layer,
    and q and k are rotated in the projection's contiguous (rows, n_heads,
    head_dim) layout, before the head axis moves to the front.

    No later layer reads the last layer's outputs, so there k and v keep
    every row, for attend to store, while q, attention, the output
    projection, the MLP, the final norm and the unembedding run only for
    the rows in read, each as a block of one row; attend then gets q with
    those rows, in read's order. Returns (len(read), vocab_size) logits,
    or (rows, vocab_size) when read is None; a read row's last bits may
    differ from the same row of a full-width call, because BLAS can take
    another kernel for one row.
    """
    c = weights.config
    tokens = np.atleast_2d(tokens)
    if tokens.shape[1] % ROW_BLOCK == 0:
        tokens = tokens.reshape(1, -1)
    x = weights.embed[tokens]
    n = tokens.size
    if read is not None:
        read = np.asarray(read, dtype=np.intp)
        if np.any((read < 0) | (read >= n)):
            raise ValueError(f"read rows {read.tolist()} outside [0, {n})")
    # (rows, 1, head_dim // 2): one angle per row, alike for every head
    cos, sin = (a[:, None] for a in _rotary_angles(np.ravel(positions), c.head_dim))

    def project(h: np.ndarray, w: np.ndarray) -> np.ndarray:
        # (blocks, rows, d) @ (d, d) -> (blocks * rows, n_heads, head_dim)
        return (h @ w).reshape(-1, c.n_heads, c.head_dim)

    def heads(x: np.ndarray) -> np.ndarray:
        # (rows, n_heads, head_dim) -> (n_heads, rows, head_dim), a view
        return x.transpose(1, 0, 2)

    last = len(weights.layers) - 1
    for layer, lw in enumerate(weights.layers):
        h = _rms_norm(x, lw.gain_attn)
        k = heads(_rotate(project(h, lw.wk), cos, sin))
        v = heads(project(h, lw.wv))
        if layer == last and read is not None:
            x, h = (a.reshape(n, 1, c.d_model)[read] for a in (x, h))
            cos, sin = cos[read], sin[read]
        q = _rotate(project(h, lw.wq), cos, sin)
        q *= c.head_dim**-0.5
        out = attend(layer, heads(q), k, v)
        x += out.transpose(1, 0, 2).reshape(x.shape) @ lw.wo
        x += _silu(_rms_norm(x, lw.gain_mlp) @ lw.w_in) @ lw.w_out
    return (_rms_norm(x, weights.final_gain) @ weights.unembed).reshape(-1, c.vocab_size)


def _check_tokens(config: ModelConfig, tokens):
    """Reject a token outside [0, vocab_size) before the embedding lookup,
    which would read a negative id from the table's end."""
    for token in tokens:
        if not 0 <= token < config.vocab_size:
            raise ValueError(f"token {token} outside [0, {config.vocab_size})")


def full_forward(weights: Weights, tokens) -> np.ndarray:
    """Logits for every position of tokens, recomputed from scratch."""
    tokens = _prompt_set(weights.config, [tokens])[0]
    return trunk(
        weights, tokens, np.arange(len(tokens)), lambda layer, q, k, v: causal_attention(q, k, v)
    )


@dataclass
class PromptSetKv:
    """The prompt K/V rows of a prefilled set of equal-length prompts.

    The prompts agree on their first p tokens, and so, bit for bit, do the
    K/V rows prefill computes for them; those rows are kept once, in
    shared_k/shared_v of shape (n_layers, n_heads, p, head_dim). Prompt
    i's n - p rows after them are private_k[i]/private_v[i] of two
    (prompts, n_layers, n_heads, n - p, head_dim) arrays. p is 0 for a set
    of one, which has nothing to share. prefill writes every row here
    once, and the user party decodes from the same arrays. A KvCache is
    a set of one in this layout too, with max_seq private rows
    (KvCache.as_set).
    """

    shared_k: np.ndarray
    shared_v: np.ndarray
    private_k: np.ndarray
    private_v: np.ndarray


def _prompt_set(config: ModelConfig, prompts) -> np.ndarray:
    """The prompts, one or more, as a (prompts, n) array, checked before
    any trunk work: one length n in [1, max_seq], no two alike and every
    token in the vocabulary."""
    prompts = [list(tokens) for tokens in prompts]
    lengths = sorted({len(tokens) for tokens in prompts})
    if len(lengths) > 1:
        raise ValueError(f"prompts of unequal lengths {lengths}")
    n = lengths[0]
    if n == 0:
        raise ValueError("cannot prefill an empty prompt")
    if n > config.max_seq:
        raise CacheFullError(f"prompt of {n} tokens exceeds max_seq={config.max_seq}")
    if len(set(map(tuple, prompts))) < len(prompts):
        raise ValueError("two of the prompts are identical")
    for tokens in prompts:
        _check_tokens(config, tokens)
    return np.array(prompts, dtype=np.intp)


def _common_prefix(prompts: np.ndarray) -> int:
    """How many leading tokens the prompts all share; 0 for a set of one,
    which has nothing to share. The prompts are pairwise distinct, so the
    count stops before their end."""
    if len(prompts) < 2:
        return 0
    return int(np.argmin(np.all(prompts == prompts[0], axis=0)))


def _chunk_rows(prompts: np.ndarray, lo: int, mid: int, hi: int):
    """The tokens and positions of the distinct rows of chunk [lo, hi) of
    prompts that agree before mid: the shared rows [lo, mid) once, then
    each prompt's own rows [mid, hi). They come as blocks of ROW_BLOCK
    rows where hi - lo is a multiple of it, and of hi - lo rows
    otherwise, the last block padded with copies of the last row. Either
    block keeps the rows' bits (see ROW_BLOCK), and the smaller one pads
    less: 44 distinct rows in a 32-row chunk run as 48, not 64."""
    tokens = np.concatenate([prompts[0, lo:mid], prompts[:, mid:hi].ravel()])
    positions = np.concatenate([np.arange(lo, mid), np.tile(np.arange(mid, hi), len(prompts))])
    block = ROW_BLOCK if (hi - lo) % ROW_BLOCK == 0 else hi - lo
    rows = np.minimum(np.arange(-(-len(tokens) // block) * block), len(tokens) - 1)
    return tokens[rows].reshape(-1, block), positions[rows].reshape(-1, block)


def _set_attention(kv: PromptSetKv, lo: int, mid: int, hi: int):
    """attend for chunk [lo, hi) of the prompt set whose rows kv holds,
    the prompts agreeing before mid, over the distinct rows _chunk_rows
    lays out: the shared rows first, then prompt i's own rows at
    shared + i * own.

    It writes the chunk's shared K/V rows once, and each prompt's own
    rows into its slot, then scores each prompt's m = hi - lo chunk rows
    over its rows :hi, in the (n_heads, m, hi) score shape a lone
    prompt's chunk has, under a causal mask built once per chunk. Those
    rows are views of kv, gathered into one array only for a chunk that
    needs both shared and own rows. The first prompt runs softmax and
    the values product on all m rows, which give the shared rows and its
    own. The others keep only their own rows, so where m is a multiple
    of ROW_BLOCK they run both only on their last own rows, rounded up to
    a multiple of ROW_BLOCK: a values product row has the same bits there
    as in the m-row product (TestValuesProduct). The scores product keeps
    all m rows, because its row bits do depend on the row count (see
    TestValuesProduct). Each output row goes to its distinct row, and
    padding rows get zeros.

    A chunk that attends one prompt (a lone prompt's, or one of shared
    rows only) attends on views and returns the kernel's output. At the
    last layer q holds the rows the trunk reads, prompt i's last row at
    i; each attends as one row, as a lone prompt's final chunk does. A
    one-row chunk (a decode step is one) attends one prompt."""
    count, layers, heads, _, head_dim = kv.private_k.shape
    p = kv.shared_k.shape[2]
    m, shared, own = hi - lo, mid - lo, hi - mid
    distinct = shared + count * own
    # the query rows each prompt after the first runs softmax on
    tail = -(-own // ROW_BLOCK) * ROW_BLOCK if m % ROW_BLOCK == 0 else m
    hidden = _causal_mask(m, hi)

    def own_rows(x: np.ndarray) -> np.ndarray:
        # (heads, rows, head_dim) distinct rows -> (count, heads, own, head_dim)
        return x[:, shared:distinct].reshape(heads, count, own, head_dim).swapaxes(0, 1)

    def prompt_rows(shared_x: np.ndarray, private_x: np.ndarray, prompts: int) -> np.ndarray:
        # the first prompts' rows :hi of one layer, (prompts, heads, hi, head_dim)
        if hi <= p:
            return shared_x[None, :, :hi]
        if p == 0:
            return private_x[:prompts, :, :hi]
        rows = np.empty((prompts, heads, hi, head_dim))
        rows[:, :, :p] = shared_x
        rows[:, :, p:] = private_x[:prompts, :, : hi - p]
        return rows

    def attend(layer, q, k, v):
        if shared:
            kv.shared_k[layer, :, lo:mid] = k[:, :shared]
            kv.shared_v[layer, :, lo:mid] = v[:, :shared]
        if own:
            kv.private_k[:, layer, :, mid - p : hi - p] = own_rows(k)
            kv.private_v[:, layer, :, mid - p : hi - p] = own_rows(v)
        # at the last layer q holds one row for each prompt it attends
        one_row = layer == layers - 1
        prompts = q.shape[1] if one_row else count if own else 1
        keys = prompt_rows(kv.shared_k[layer], kv.private_k[:, layer], prompts)
        values = prompt_rows(kv.shared_v[layer], kv.private_v[:, layer], prompts)
        if one_row:
            a = causal_attention(q.swapaxes(0, 1)[:, :, None], keys, values)
            return a[:, :, 0].swapaxes(0, 1)
        if prompts == 1:
            # q is the chunk's m rows in order
            return _softmax_values(_scores(q, keys[0], hidden), values[0])
        qs = np.empty((prompts, heads, m, head_dim))
        qs[:, :, :shared] = q[:, :shared]
        qs[:, :, shared:] = own_rows(q)
        scores = _scores(qs, keys, hidden)
        out = np.empty_like(q)
        out[:, : shared + own] = _softmax_values(scores[0], values[0])
        rest = _softmax_values(scores[1:, :, m - tail :], values[1:])[:, :, tail - own :]
        out[:, shared + own : distinct] = rest.swapaxes(0, 1).reshape(heads, -1, head_dim)
        out[:, distinct:] = 0.0
        return out

    return attend


def _pass_attention(attends: list, rows: list[int], layers: int):
    """attend for a trunk pass of consecutive chunks: each chunk's attend
    (see _set_attention) on its own rows[i] trunk rows, in order, so at
    every layer a chunk attends over the K/V rows the chunks before it
    have just written, and writes its output into the pass's. At the last
    layer q holds only the rows the trunk reads, which are all the final
    chunk's."""
    if len(attends) == 1:
        return attends[0]
    ends = np.cumsum(rows)
    spans = [slice(end - size, end) for end, size in zip(ends, rows)]
    read = [slice(0, 0)] * (len(spans) - 1) + [slice(None)]

    def attend(layer, q, k, v):
        out = np.empty_like(q)
        for a, span, qspan in zip(attends, spans, read if layer == layers - 1 else spans):
            out[:, qspan] = a(layer, q[:, qspan], k[:, span], v[:, span])
        return out

    return attend


def _passes(chunks: list, max_rows: int) -> list[list]:
    """Consecutive chunks, each (bounds, tokens, positions) with tokens
    and positions as _chunk_rows lays them out, grouped into trunk
    passes: chunks whose width is a multiple of ROW_BLOCK share a pass
    while it holds at most max_rows trunk rows; any other chunk runs
    alone."""
    passes, rows, joinable = [], 0, False
    for chunk in chunks:
        size, flat = chunk[1].size, chunk[1].shape[1] % ROW_BLOCK == 0
        if joinable and flat and rows + size <= max_rows:
            passes[-1].append(chunk)
            rows += size
        else:
            passes.append([chunk])
            rows = size
        joinable = flat
    return passes


def prefill(weights: Weights, tokens):
    """Run one prompt, or a set of equal-length prompts, through the model.

    tokens is a prompt (a sequence of token ids) or a set of prompts (a
    sequence of such sequences); a prompt runs as a set of one, on the
    same code. The prompts run in fixed chunks [lo, hi) of PREFILL_CHUNK
    rows. A chunk's distinct rows run once: the rows of the prompts'
    common prefix, then each prompt's own rows, packed in blocks of
    ROW_BLOCK rows where m = hi - lo is a multiple of ROW_BLOCK, else of
    m rows (see _chunk_rows). Each prompt then attends over its own rows
    :hi (see _set_attention), chunk by chunk. So a set costs the trunk
    rows of its distinct rows, rounded up to ROW_BLOCK per chunk, and the
    prompts after the first add only the attention of their own rows.

    Consecutive chunks whose m is a multiple of ROW_BLOCK share one trunk
    call, a pass, while it holds at most max_seq trunk rows; any other
    chunk runs alone (see _passes). So a pass's peak activations stay
    those of a lone max_seq-token prompt, or of its one chunk where that
    is bigger, and each weight product runs once per layer per pass.

    Every scores product thus has the shape that prefilling the prompt
    alone gives it, and so does every values product but a later
    prompt's, which may hold fewer of the m rows, a multiple of ROW_BLOCK
    (TestValuesProduct).
    A weight product may hold a row at another place, in another number
    of rows, but a row's bits depend on neither: not on its place
    (TestRowPlacement in tests/test_model.py checks this of the BLAS in
    use), and not on the row count where that is a multiple of ROW_BLOCK
    (TestFlatProduct), while a chunk of another width runs in blocks of m
    rows, as it does alone. So every prompt's K/V rows and logits are
    bit-identical to prefilling it alone.

    Only each prompt's last row reaches the unembedding: the last layer
    runs its Q side for no row on every pass but the final one, and for
    each prompt's last row there (see trunk). The K/V rows are the ones a
    full-width run computes; the returned logits agree with full_forward's
    last row to rounding, not bit for bit.

    Raises, before any trunk work, ValueError for an empty prompt or set,
    prompts of unequal lengths, two identical prompts or a token outside
    the vocabulary, and CacheFullError (a ValueError) for prompts longer
    than max_seq.

    Returns, for a prompt, a KvCache of its rows and its next-token logits;
    for a set, a PromptSetKv of their rows and (prompts, vocab_size)
    logits.
    """
    c = weights.config
    tokens = list(tokens)
    single = not tokens or np.ndim(tokens[0]) == 0
    prompts = _prompt_set(c, [tokens] if single else tokens)
    count, n = prompts.shape
    p = _common_prefix(prompts)
    if single:
        cache = KvCache(config=c)
        kv = cache.as_set()
    else:
        shared = (c.n_layers, c.n_heads, p, c.head_dim)
        own = (count, c.n_layers, c.n_heads, n - p, c.head_dim)
        kv = PromptSetKv(np.empty(shared), np.empty(shared), np.empty(own), np.empty(own))

    chunks = []
    for lo in range(0, n, PREFILL_CHUNK):
        hi = min(lo + PREFILL_CHUNK, n)
        mid = min(max(p, lo), hi)
        chunks.append(((lo, mid, hi), *_chunk_rows(prompts, lo, mid, hi)))
    for group in _passes(chunks, c.max_seq):
        bounds, rows = [g[0] for g in group], [g[1].size for g in group]
        # a shared pass's chunks all come in blocks of ROW_BLOCK rows
        stack, positions = (np.concatenate([g[i] for g in group]) for i in (1, 2))
        lo, mid, hi = bounds[-1]
        # each prompt's last row, the last of its own rows in the final chunk
        base = sum(rows[:-1]) + mid - lo - 1
        read = base + (hi - mid) * np.arange(1, count + 1) if hi == n else []
        attend = _pass_attention([_set_attention(kv, *b) for b in bounds], rows, c.n_layers)
        logits = trunk(weights, stack, positions, attend, read)
    if single:
        cache.length = n
        return cache, logits[0]
    return kv, logits


def decode_step_monolithic(weights: Weights, cache: KvCache, token: int) -> np.ndarray:
    """Append token's K/V to the cache and return next-token logits.

    The token attends as a one-row chunk of its cache, through the attend
    prefill uses (_set_attention over KvCache.as_set). Equivalent (within
    1e-10) to recomputing the full sequence without a cache; see the
    cache/no-cache equivalence tests.
    """
    c = weights.config
    if cache.length == 0:
        raise ValueError("decode requires a prefilled cache")
    if cache.length >= c.max_seq:
        raise CacheFullError(f"cache full at max_seq={c.max_seq}")
    _check_tokens(c, [token])
    n = cache.length
    logits = trunk(weights, [token], [n], _set_attention(cache.as_set(), n, n, n + 1))
    cache.length += 1
    return logits[0]


def sample_token(
    logits: np.ndarray, temperature: float | None = None, seed: int | list[int] = 0
) -> int:
    """Pick the next token: greedy argmax by default, seeded sampling if
    a temperature is given.

    Greedy ties break to the lowest token index. Temperature sampling with
    the same seed (an int or a list of ints, as SeedSequence takes) is
    reproducible.
    """
    logits = np.asarray(logits, dtype=np.float64).reshape(-1)
    if temperature is None:
        return int(np.argmax(logits))
    if temperature <= 0:
        raise ValueError("temperature must be > 0")
    stats = stable_softmax_stats(logits / temperature)
    return int(philox_rng(seed).choice(logits.size, p=stats.weights))


def greedy_decode(
    weights: Weights, tokens, max_new_tokens: int, stop_at_eos: bool = True
) -> list[int]:
    """Monolithic cached greedy decode; the trusted single-party baseline."""
    cache, logits = prefill(weights, tokens)
    out = [sample_token(logits)]
    eos = weights.config.eos_token
    for _ in range(max_new_tokens):
        if stop_at_eos and out[-1] == eos:
            break
        if cache.length >= weights.config.max_seq:
            break
        logits = decode_step_monolithic(weights, cache, out[-1])
        out.append(sample_token(logits))
    return out
