"""Probability oracles: an order-k n-gram model with additive smoothing,
a temperature view, and an adapter that exposes the toy transformer.

An oracle is anything with a ``vocab_size`` attribute and a
``next_dist(context) -> ndarray`` method returning a strictly positive
distribution over the vocabulary. ``seq_logprob`` chains any oracle over
a token sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from .model import Weights, full_forward
from .numerics import stable_softmax_stats

__all__ = [
    "NgramModel",
    "ProbOracle",
    "TemperedOracle",
    "TransformerOracle",
    "apply_temperature",
    "seq_logprob",
    "tempered",
    "tokenize_text",
    "train_ngram",
]

DEFAULT_SMOOTHING = 0.01


@runtime_checkable
class ProbOracle(Protocol):
    vocab_size: int

    def next_dist(self, context) -> np.ndarray: ...


@dataclass
class NgramModel:
    """Additive-smoothed n-gram model of order k (context length k-1).

    next_dist(ctx) = (count + s) / (total + s*V); an unseen context falls
    back to the uniform distribution, and smoothing keeps every token's
    probability strictly positive. Deterministic given corpus, order and
    smoothing.
    """

    order: int
    vocab_size: int
    smoothing: float = DEFAULT_SMOOTHING
    counts: dict = field(default_factory=dict, repr=False)

    def _key(self, context) -> tuple:
        ctx = tuple(context)
        return ctx[-(self.order - 1):] if self.order > 1 else ()

    def next_dist(self, context) -> np.ndarray:
        table = self.counts.get(self._key(context))
        if table is None:
            return np.full(self.vocab_size, 1.0 / self.vocab_size)
        denom = table.sum() + self.smoothing * self.vocab_size
        return (table + self.smoothing) / denom


def train_ngram(corpus, order: int, smoothing: float = DEFAULT_SMOOTHING,
                vocab_size: int | None = None) -> NgramModel:
    """Count (context, next-token) pairs over the corpus sequences.

    Contexts near a sequence start are the truncated prefix, so a model
    queried with a short context reproduces exactly what it counted.
    """
    corpus = [list(seq) for seq in corpus]
    if not corpus or all(len(seq) == 0 for seq in corpus):
        raise ValueError("corpus must contain at least one non-empty sequence")
    if order < 1:
        raise ValueError("order must be >= 1")
    if smoothing <= 0:
        raise ValueError("smoothing must be > 0")
    if vocab_size is None:
        vocab_size = max(max(seq) for seq in corpus if seq) + 1
    model = NgramModel(order=order, vocab_size=vocab_size, smoothing=smoothing)
    for seq in corpus:
        for i, token in enumerate(seq):
            if not 0 <= token < vocab_size:
                raise ValueError(f"token {token} outside vocab of {vocab_size}")
            key = tuple(seq[max(0, i - order + 1):i])
            table = model.counts.get(key)
            if table is None:
                table = model.counts[key] = np.zeros(vocab_size)
            table[token] += 1
    return model


def seq_logprob(oracle: ProbOracle, tokens, context=()) -> float:
    """Sum of per-step ln-probabilities of tokens given the left context."""
    tokens = list(tokens)
    if not tokens:
        raise ValueError("tokens must be non-empty")
    ctx = list(context)
    total = 0.0
    for token in tokens:
        total += math.log(oracle.next_dist(ctx)[token])
        ctx.append(token)
    return total


def apply_temperature(dist: np.ndarray, tau: float) -> np.ndarray:
    """Re-weight a distribution by exponent 1/tau and renormalize."""
    if tau <= 0:
        raise ValueError("temperature must be > 0")
    dist = np.asarray(dist, dtype=np.float64)
    # work in log space so tiny probabilities survive large exponents
    logp = np.log(dist) / tau
    return stable_softmax_stats(logp).weights


@dataclass
class TemperedOracle:
    """View of a base oracle with temperature applied to every next_dist."""

    base: ProbOracle
    tau: float

    @property
    def vocab_size(self) -> int:
        return self.base.vocab_size

    def next_dist(self, context) -> np.ndarray:
        return apply_temperature(self.base.next_dist(context), self.tau)


def tempered(oracle: ProbOracle, tau: float) -> ProbOracle:
    return oracle if tau == 1.0 else TemperedOracle(oracle, tau)


@dataclass
class TransformerOracle:
    """The toy transformer as a probability oracle.

    A fixed begin token is prepended so the empty context still has a
    well-defined next-token distribution.
    """

    weights: Weights
    begin_token: int = 0

    @property
    def vocab_size(self) -> int:
        return self.weights.config.vocab_size

    def next_dist(self, context) -> np.ndarray:
        tokens = [self.begin_token] + list(context)
        logits = full_forward(self.weights, tokens)[-1]
        return stable_softmax_stats(logits).weights


def tokenize_text(text: str) -> tuple[list[list[int]], dict[str, int]]:
    """Whitespace-tokenize text into integer sequences, one per line."""
    vocab: dict[str, int] = {}
    sequences = []
    for line in text.splitlines():
        words = line.split()
        if not words:
            continue
        seq = []
        for word in words:
            if word not in vocab:
                vocab[word] = len(vocab)
            seq.append(vocab[word])
        sequences.append(seq)
    return sequences, vocab
