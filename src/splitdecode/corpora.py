"""Synthetic corpora for tests, verification suites, and the demo.

The date corpus realizes an enumerable replacement category: 360
date-like tokens that all follow the same two-token context with equal
counts, so a well-trained oracle puts the whole category in one
log-probability bin.
"""

from __future__ import annotations

import re

import numpy as np

from .langmodel import tokenize_text
from .numerics import philox_rng
from .obfuscation import TaggedPrompt

__all__ = [
    "DATE_CATEGORY_SIZE",
    "DEMO_PATTERNS",
    "date_category_corpus",
    "date_prompt",
    "demo_text",
    "zipf_corpus",
]

DATE_CATEGORY_SIZE = 360


def date_category_corpus() -> tuple[list[list[int]], dict[str, int]]:
    """Corpus with a near-uniform enumerable 'date' category of 360 tokens.

    Every sequence reads ``visit on d### done``. 340 dates appear 25
    times and every 18th date 24 times, so the category's log-probability
    spread is ~0.04: a 0.1-wide bin holds the majority tier, and wider
    bins (or a flatter temperature) admit the rare tier too. A second
    template keeps the corpus from being a single context.
    """
    lines = []
    for i in range(DATE_CATEGORY_SIZE):
        reps = 24 if i % 18 == 0 else 25
        lines.extend([f"visit on d{i:03d} done"] * reps)
    lines += [f"send report r{i} now" for i in range(8)]
    return tokenize_text("\n".join(lines))


def date_prompt(vocab: dict[str, int], date_word: str = "d123") -> TaggedPrompt:
    """The standard probe prompt with its date token tagged."""
    tokens = [vocab["visit"], vocab["on"], vocab[date_word], vocab["done"]]
    return TaggedPrompt(tokens=tokens, spans=((2, 1),))


def zipf_corpus(
    seed: int, vocab_size: int, n_sequences: int = 200, length: int = 8
) -> list[list[int]]:
    """Random sequences with a heavy-tailed unigram distribution; gives
    oracles with non-trivial, unequal next-token probabilities."""
    rng = philox_rng(seed)
    weights = 1.0 / (np.arange(vocab_size) + 2.0)
    probs = weights / weights.sum()
    return [
        rng.choice(vocab_size, size=length, p=probs).tolist() for _ in range(n_sequences)
    ]


_NAMES = ["alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi"]
_DAYS = ["monday", "tuesday", "wednesday", "thursday", "friday", "saturday", "sunday"]
# the demo's sensitive words: its patients' names and its days
DEMO_PATTERNS = (re.compile("|".join(_NAMES)), re.compile("|".join(_DAYS)))


def demo_text() -> str:
    """Clinic-flavored toy corpus: every name/day combination once, so
    names are uniform after 'patient' and days uniform after 'on'."""
    lines = [
        f"patient {name} came on {day} for a checkup"
        for name in _NAMES
        for day in _DAYS
    ]
    return "\n".join(lines)
