"""Prompt obfuscation: tag sensitive spans, sample decoy n-grams whose
log-probability is quantized into the same bin as the authentic text,
assemble equal-length virtual prompts, and winnow responses back out.

The sampler extends candidates one position at a time. At each position
the authentic token's ln-probability rho lands in a half-open bin
[floor(ln rho / w) * w, (floor(ln rho / w) + 1) * w) of width w = eps/n;
every token whose ln-probability falls in that same bin extends every
surviving candidate. Per-position bin membership bounds the total
log-probability gap of any returned sequence by eps.

The authentic index among the lambda+1 prompts comes from a keyed PRF
over the session id, so the user and its party agree on it without any
communication.
"""

from __future__ import annotations

import hashlib
import hmac
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .langmodel import ProbOracle, seq_logprob, tempered

__all__ = [
    "FakeNgramSet",
    "InsufficientObfuscationError",
    "ObfuscationConfig",
    "TaggedPrompt",
    "VirtualPromptSet",
    "build_virtual_prompts",
    "dump_virtual_prompts",
    "gqs",
    "multi_segment_gqs",
    "prf_index",
    "tag_sensitive",
    "verify_bound",
    "winnow",
]

MAX_SPAN_WORDS = 4


class InsufficientObfuscationError(RuntimeError):
    """Fewer decoys than lambda_min could be generated; inference must stop."""

    def __init__(self, available: int, lambda_min: int):
        super().__init__(
            f"only {available} virtual prompts available, need at least {lambda_min}"
        )
        self.available = available
        self.lambda_min = lambda_min


@dataclass(frozen=True)
class ObfuscationConfig:
    epsilon: float
    lambda_max: int
    lambda_min: int = 0
    temperature: float = 1.0
    prf_key: bytes = b""

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if self.lambda_min > self.lambda_max:
            raise ValueError("lambda_min must be <= lambda_max")
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")


@dataclass(frozen=True)
class TaggedPrompt:
    """A token sequence plus the (start, length) spans flagged sensitive."""

    tokens: tuple
    spans: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "spans", tuple(tuple(s) for s in self.spans))
        end = 0
        for start, length in self.spans:
            if start < end:
                raise ValueError("spans must be sorted and non-overlapping")
            if length < 1 or start + length > len(self.tokens):
                raise ValueError("span out of bounds")
            end = start + length

    def segment(self, span) -> tuple:
        start, length = span
        return self.tokens[start : start + length]


def tag_sensitive(words, patterns) -> tuple:
    """The (start, length) spans of words that patterns mark sensitive.

    A pattern may match up to MAX_SPAN_WORDS consecutive words (joined by
    single spaces). Overlaps resolve leftmost-longest.
    """
    if not patterns:
        raise ValueError("patterns must be non-empty")
    candidates = []
    for pattern in patterns:
        for start in range(len(words)):
            limit = min(MAX_SPAN_WORDS, len(words) - start)
            for length in range(limit, 0, -1):
                if pattern.fullmatch(" ".join(words[start : start + length])):
                    candidates.append((start, length))
                    break
    spans = []
    next_free = 0
    for start, length in sorted(candidates, key=lambda s: (s[0], -s[1])):
        if start >= next_free:
            spans.append((start, length))
            next_free = start + length
    return tuple(spans)


@dataclass(frozen=True)
class FakeNgramSet:
    """Sampler output for one segment: same-length candidate replacements.

    gqs returns its candidates in rank order (smallest log-probability gap
    first, ties by token ids), the authentic segment among them; when the
    budget would have pruned it, it takes the last place.
    """

    candidates: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "candidates", tuple(tuple(c) for c in self.candidates)
        )
        lengths = {len(c) for c in self.candidates}
        if len(lengths) > 1:
            raise ValueError("candidates must share one length")
        if len(set(self.candidates)) != len(self.candidates):
            raise ValueError("duplicate candidates")


def gqs(
    prompt: TaggedPrompt,
    segment,
    config: ObfuscationConfig,
    oracle: ProbOracle,
) -> FakeNgramSet:
    """Sample same-bin replacement n-grams for one tagged segment.

    Conditioning is plain left-context: the oracle sees the prompt tokens
    before the tag start. Temperature (config.temperature) reshapes the
    oracle's distributions before binning. After each position the pool is
    pruned to the lambda_max best candidates by absolute running
    log-probability gap against the authentic prefix, in that rank order;
    the authentic prefix itself is always retained, in the last place if
    it did not rank among them.
    """
    start, n = segment
    if n < 1:
        raise ValueError("segment length must be >= 1")
    if config.epsilon <= 0:
        raise ValueError("sampling needs epsilon > 0")
    if config.lambda_max < 1:
        raise ValueError("sampling needs a candidate budget of at least 1")
    if (start, n) not in prompt.spans:
        raise ValueError(f"segment {(start, n)} is not a tagged span of the prompt")
    authentic = prompt.tokens[start : start + n]
    context = list(prompt.tokens[:start])
    view = tempered(oracle, config.temperature)

    bin_width = config.epsilon / n
    pool: dict[tuple, float] = {(): 0.0}
    authentic_logprob = 0.0
    for step in range(n):
        ref_dist = view.next_dist(context + list(authentic[:step]))
        rho = float(ref_dist[authentic[step]])
        bin_index = math.floor(math.log(rho) / bin_width)
        lo, hi = bin_index * bin_width, (bin_index + 1) * bin_width
        authentic_logprob += math.log(rho)

        extended: dict[tuple, float] = {}
        for cand, logprob in pool.items():
            dist = view.next_dist(context + list(cand))
            logp = np.log(dist)
            for token in np.nonzero((logp >= lo) & (logp < hi))[0]:
                extended[cand + (int(token),)] = logprob + float(logp[token])

        ranked = sorted(
            extended.items(), key=lambda kv: (abs(kv[1] - authentic_logprob), kv[0])
        )
        kept = ranked[: config.lambda_max]
        auth_prefix = authentic[: step + 1]
        if kept and auth_prefix not in (c for c, _ in kept):
            kept[-1] = (auth_prefix, extended[auth_prefix])
        pool = dict(kept)

    return FakeNgramSet(candidates=tuple(pool))


def verify_bound(
    original_seg,
    fake_seg,
    context,
    epsilon: float,
    oracle: ProbOracle,
) -> bool:
    """Directly check the replacement's log-probability gap against epsilon.

    Evaluates both sequences under the oracle and compares the absolute
    difference of their chained ln-probabilities; independent of how the
    sampler binned anything.
    """
    original_seg, fake_seg = list(original_seg), list(fake_seg)
    if len(original_seg) != len(fake_seg):
        raise ValueError("segments must have equal length")
    gap = abs(
        seq_logprob(oracle, fake_seg, context) - seq_logprob(oracle, original_seg, context)
    )
    return gap <= epsilon


def multi_segment_gqs(
    prompt: TaggedPrompt,
    config: ObfuscationConfig,
    oracle: ProbOracle,
) -> list[FakeNgramSet]:
    """Sample every tagged segment independently at a budget of epsilon/k.

    With k segments each sampled at epsilon/k, any combined replacement
    keeps a total log-probability gap of at most epsilon under the
    per-segment independence assumption.
    """
    k = len(prompt.spans)
    if k < 1:
        raise ValueError("prompt has no tagged segments")
    per_segment = replace(config, epsilon=config.epsilon / k)
    return [gqs(prompt, span, per_segment, oracle) for span in prompt.spans]


def prf_index(key: bytes, session_id: int, lam: int) -> int:
    """Keyed, uniform index in [0, lam] derived from the session id.

    HMAC-SHA256 output is consumed 8 bytes at a time with rejection
    sampling, so the index is exactly uniform. Both sides of a session
    compute the same index from the shared key with no communication.
    """
    if lam < 0:
        raise ValueError("lam must be >= 0")
    n = lam + 1
    limit = (2**64 // n) * n
    session = session_id.to_bytes(8, "little", signed=False)
    counter = 0
    while True:
        digest = hmac.new(key, session + counter.to_bytes(4, "little"), hashlib.sha256).digest()
        for off in range(0, len(digest), 8):
            value = int.from_bytes(digest[off : off + 8], "little")
            if value < limit:
                return value % n
        counter += 1


@dataclass(frozen=True)
class VirtualPromptSet:
    """lambda+1 equal-length prompts with the authentic one at a PRF index;
    lambda, the number of decoys, is len(prompts) - 1."""

    prompts: tuple
    idx: int

    def __post_init__(self):
        object.__setattr__(self, "prompts", tuple(tuple(p) for p in self.prompts))
        if not 0 <= self.idx < len(self.prompts):
            raise ValueError("authentic index out of range")
        if len({len(p) for p in self.prompts}) != 1:
            raise ValueError("prompts must share one length")

    @property
    def lam(self) -> int:
        return len(self.prompts) - 1


def build_virtual_prompts(
    prompt: TaggedPrompt,
    fake_sets: list[FakeNgramSet],
    config: ObfuscationConfig,
    session_id,
) -> VirtualPromptSet:
    """Assemble the lambda+1 prompts, aborting below lambda_min.

    Replacement combinations are drawn in candidate rank order, skipping
    the all-authentic combination; lambda = min(lambda_max, combinations
    available), and 0 when no fake set was sampled. Raises
    InsufficientObfuscationError — the user-facing alert — when that falls
    short of lambda_min.
    """
    authentic_combo = tuple(prompt.segment(span) for span in prompt.spans)
    sampled = itertools.product(*(fs.candidates for fs in fake_sets)) if fake_sets else ()
    combos = list(itertools.islice(
        (combo for combo in sampled if combo != authentic_combo), config.lambda_max
    ))
    lam = len(combos)
    if lam < config.lambda_min:
        raise InsufficientObfuscationError(lam, config.lambda_min)

    idx = prf_index(config.prf_key, session_id, lam)

    def substitute(combo) -> tuple:
        tokens = list(prompt.tokens)
        for (start, length), replacement in zip(prompt.spans, combo):
            tokens[start : start + length] = list(replacement)
        return tuple(tokens)

    fakes = iter(combos)
    prompts = [
        prompt.tokens if i == idx else substitute(next(fakes)) for i in range(lam + 1)
    ]
    return VirtualPromptSet(prompts=tuple(prompts), idx=idx)


def winnow(responses, idx: int):
    """Pick the authentic response out of the lambda+1 streams."""
    responses = list(responses)
    if not 0 <= idx < len(responses):
        raise IndexError(f"index {idx} outside {len(responses)} responses")
    return responses[idx]


def dump_virtual_prompts(vps: VirtualPromptSet, vocab: dict[str, int] | None = None) -> str:
    """Debug rendering of a virtual prompt set.

    Never send this across the trust boundary: it names the authentic
    index.
    """
    id_to_word = {i: w for w, i in vocab.items()} if vocab else None
    lines = [f"virtual prompts: lambda={vps.lam} authentic_idx={vps.idx}"]
    for i, prompt in enumerate(vps.prompts):
        marker = "*" if i == vps.idx else " "
        body = (
            " ".join(id_to_word[t] for t in prompt)
            if id_to_word
            else " ".join(str(t) for t in prompt)
        )
        lines.append(f"{marker} [{i}] {body}")
    return "\n".join(lines)
