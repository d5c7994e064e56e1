"""Scaling-trend harness: no-protection vs full-isolation vs two-party
decode, with weight-copy accounting.

Latency is desk-scale wall clock on CPU, so only orderings and slopes are
meaningful; a "round" advances every user by one token and its duration
is the reported per-token latency. spd runs through protocol.run_sessions,
so its rounds include routing every token through the controller gate.
The monolithic modes attend with partition._slot_attention, the model
party's slot-arena kernel, so they share spd's decode-attention code.
Weight copies are counted by the instrumented allocation counter in the
model module: the sharing modes instantiate the weights once, full
isolation once per user.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .langmodel import NgramModel
from .model import (
    ModelConfig,
    init_model,
    prefill,
    sample_token,
    trunk,
    weight_alloc_count,
)
from .numerics import philox_rng
from .obfuscation import ObfuscationConfig, TaggedPrompt
from .partition import _slot_attention
from .protocol import (
    Controller,
    ModelParty,
    UserParty,
    WeightsHandle,
    run_sessions,
    user_prefill,
)

__all__ = [
    "BenchConfig",
    "BenchRecord",
    "CSV_HEADER",
    "bench_csv",
    "bench_prompts",
    "run_mode",
    "sweep",
]

MODES = ("no_protection", "full_isolation", "spd")

CSV_HEADER = (
    "mode,users,lambda,in_tokens,out_tokens,"
    "ms_per_token_med,ms_per_token_p95,weight_copies,bytes_per_token"
)


@dataclass(frozen=True)
class BenchConfig:
    mode: str
    users: int
    in_tokens: int
    out_tokens: int
    lam: int
    model: ModelConfig
    repetitions: int = 3
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.users < 1:
            raise ValueError("users must be >= 1")
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.lam >= self.model.vocab_size:  # spd's one tagged token has V - 1 decoys
            raise ValueError(f"lam must be < vocab_size ({self.model.vocab_size})")
        if self.repetitions < 3:
            raise ValueError("repetitions must be >= 3")
        if self.in_tokens < 1 or self.out_tokens < 1:
            raise ValueError("token counts must be >= 1")
        needed = self.in_tokens + self.out_tokens
        if needed > self.model.max_seq:
            raise ValueError(f"in+out tokens {needed} exceed max_seq {self.model.max_seq}")


@dataclass
class BenchRecord:
    mode: str
    users: int
    lam: int
    in_tokens: int
    out_tokens: int
    ms_per_token_med: float
    ms_per_token_p95: float
    weight_copies: int
    bytes_per_token: float
    tokens: dict = field(default_factory=dict, repr=False)  # user -> authentic stream

    def csv_row(self) -> str:
        return (
            f"{self.mode},{self.users},{self.lam},{self.in_tokens},{self.out_tokens},"
            f"{self.ms_per_token_med:.4f},{self.ms_per_token_p95:.4f},"
            f"{self.weight_copies},{self.bytes_per_token:.1f}"
        )


def bench_prompts(config: BenchConfig) -> list[list[int]]:
    """Deterministic per-user prompts; EOS never appears in a prompt."""
    rng = philox_rng(config.seed)
    v = config.model.vocab_size
    return [
        rng.integers(0, v - 1, size=config.in_tokens).tolist() for _ in range(config.users)
    ]


def _uniform_oracle(vocab_size: int) -> NgramModel:
    # no counts: smoothing alone makes every next-token distribution uniform
    return NgramModel(order=1, vocab_size=vocab_size)


class _MonoBatchState:
    """Monolithic decode of several users over one weight copy, trunk
    batched, over their prefill caches stacked into one slot arena."""

    def __init__(self, weights, prompts):
        self.w = weights
        caches, self.tokens = [], []
        for prompt in prompts:
            cache, logits = prefill(weights, prompt)
            caches.append(cache)
            self.tokens.append([sample_token(logits)])
        self.k = np.stack([cache.k for cache in caches])
        self.v = np.stack([cache.v for cache in caches])
        self.lens = np.array([cache.length for cache in caches])

    def round(self):
        """One batched decode step for every user; BenchConfig keeps
        in_tokens + out_tokens within max_seq, so no cache fills."""
        partial = _slot_attention(self.k, self.v, list(range(len(self.lens))), self.lens)

        def attend(layer, q, k, v):
            a = partial(layer, *(x.transpose(1, 0, 2) for x in (q, k, v)))[0]
            return a.transpose(1, 0, 2)

        logits = trunk(self.w, [t[-1] for t in self.tokens], self.lens, attend)
        self.lens += 1
        for tokens, row in zip(self.tokens, logits):
            tokens.append(sample_token(row))


def _run_monolithic(config: BenchConfig, prompts) -> tuple[dict, list[float], int, int]:
    """no_protection decodes every user in one batch over shared weights;
    full_isolation gives each user its own weight copy and batch of one."""
    start_allocs = weight_alloc_count()
    if config.mode == "no_protection":
        states = [_MonoBatchState(init_model(config.model), prompts)]
    else:
        states = [_MonoBatchState(init_model(config.model), [prompt]) for prompt in prompts]
    round_times = []
    for _ in range(config.out_tokens - 1):
        t0 = time.perf_counter()
        for state in states:
            state.round()
        round_times.append(time.perf_counter() - t0)
    tokens = dict(enumerate(t for state in states for t in state.tokens))
    return tokens, round_times, weight_alloc_count() - start_allocs, 0


def _run_spd(config: BenchConfig, prompts) -> tuple[dict, list[float], int, float]:
    start_allocs = weight_alloc_count()
    weights = init_model(config.model)
    # one tagged token under the uniform oracle gives a pool of lam + 1
    # equal-length n-grams, the authentic one among them, and so lam
    # decoys; at lam 0 the pool holds only the authentic n-gram
    obf = ObfuscationConfig(epsilon=1.0, lambda_max=config.lam + 1, prf_key=b"bench")
    oracle = _uniform_oracle(config.model.vocab_size)
    parties = []
    for i, prompt in enumerate(prompts):
        party = UserParty(user_id=i, weights_handle=WeightsHandle(weights), oracle=oracle)
        tagged = TaggedPrompt(tokens=prompt, spans=((0, 1),))
        user_prefill(party, tagged, obf)
        parties.append(party)
    model = ModelParty(weights, stop_at_eos=False)
    transcript = run_sessions(model, Controller(), parties, config.out_tokens - 1)

    tokens = {i: list(party.authentic_response()) for i, party in enumerate(parties)}
    total_tokens = sum(len(s.tokens) for party in parties for s in party.streams.values())
    copies = weight_alloc_count() - start_allocs
    return tokens, transcript.round_s, copies, transcript.total_bytes() / max(total_tokens, 1)


_RUNNERS = {
    "no_protection": _run_monolithic,
    "full_isolation": _run_monolithic,
    "spd": _run_spd,
}


def run_mode(config: BenchConfig) -> BenchRecord:
    """Execute one mode end-to-end, repetitions times.

    Token outputs must agree across repetitions; per-token latency is the
    median/p95 over all decode rounds of all repetitions.
    """
    prompts = bench_prompts(config)
    runner = _RUNNERS[config.mode]
    all_round_times: list[float] = []
    rep_medians: list[float] = []
    tokens = None
    copies = None
    bytes_per_token = 0.0
    for _ in range(config.repetitions):
        rep_tokens, round_times, rep_copies, rep_bytes = runner(config, prompts)
        if tokens is None:
            tokens, copies, bytes_per_token = rep_tokens, rep_copies, rep_bytes
        else:
            if rep_tokens != tokens:
                raise RuntimeError("token outputs changed across repetitions")
            if rep_copies != copies:
                raise RuntimeError("weight-copy count changed across repetitions")
        all_round_times.extend(round_times)
        rep_medians.append(float(np.median(round_times)) if round_times else 0.0)
    med = float(np.median(rep_medians)) * 1000
    p95 = float(np.percentile(all_round_times, 95)) * 1000 if all_round_times else 0.0
    return BenchRecord(
        mode=config.mode,
        users=config.users,
        lam=config.lam,
        in_tokens=config.in_tokens,
        out_tokens=config.out_tokens,
        ms_per_token_med=med,
        ms_per_token_p95=p95,
        weight_copies=copies,
        bytes_per_token=float(bytes_per_token),
        tokens=tokens,
    )


def sweep(configs: list[BenchConfig]) -> list[BenchRecord]:
    """One record per config, in a deterministic sort order."""
    if not configs:
        raise ValueError("sweep needs at least one config")
    ordered = sorted(
        configs, key=lambda c: (c.mode, c.users, c.lam, c.in_tokens, c.out_tokens)
    )
    return [run_mode(c) for c in ordered]


def bench_csv(records: list[BenchRecord]) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in records])
