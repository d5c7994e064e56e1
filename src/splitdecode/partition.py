"""Lossless two-party split of one decode step's attention.

One softmax over concatenated keys equals a convex combination of the
softmaxes over each part, weighted by their denominators. Each side
reports, per head, a PartialAttention: the weighted-value vector ``a``,
the denominator ``gamma`` relative to its own running max ``m``, and
``m`` itself. The merge rescales both denominators to a common max, which
keeps the combination exact while never exponentiating large scores.

Every partial runs through one kernel, _softmax_partial, which gives
each query row products of its own: a row's bits do not depend on how
many rows share the call.

Private partitions (prompt-derived K/V) must never cross a wire: nothing
in the wire module accepts a KvPartition, and the protocol tests fuzz
outbound frames to confirm no private rows leak.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import DimensionError, EmptyPartitionError

__all__ = [
    "KvPartition",
    "PartialAttention",
    "batched_public_partials",
    "merge_partial_arrays",
    "merge_partials",
    "private_partial",
    "public_partial",
]

PRIVATE = "private"
PUBLIC = "public"


@dataclass(frozen=True)
class PartialAttention:
    """One party's per-head contribution to a single attention output.

    For an empty partition gamma is 0 and m is -inf; that sentinel acts as
    the additive identity under merge_partials. Payload on the wire is
    exactly head_dim + 2 scalars: a, gamma, m.
    """

    a: np.ndarray
    gamma: float
    m: float

    @classmethod
    def empty(cls, head_dim: int) -> "PartialAttention":
        return cls(a=np.zeros(head_dim), gamma=0.0, m=-np.inf)


@dataclass
class KvPartition:
    """K/V rows of every layer and head, labeled private or public.

    k and v are (n_layers, n_heads, n, head_dim) arrays of equal shape, so
    k[layer][head] is that head's (n, head_dim) key rows. Private
    partitions are confined to the user party by construction: no
    serializer in this package accepts one.
    """

    label: str
    k: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        if self.label not in (PRIVATE, PUBLIC):
            raise ValueError(f"unknown partition label {self.label!r}")

    @classmethod
    def single_head(cls, label: str, K, V) -> "KvPartition":
        K = np.atleast_2d(np.asarray(K, dtype=np.float64))
        V = np.atleast_2d(np.asarray(V, dtype=np.float64))
        return cls(label=label, k=K[None, None], v=V[None, None])


def _head_rows(part: KvPartition, label: str, layer: int, head: int, width: int):
    """(K, V) of one head, checked against the label and the query width."""
    if part.label != label:
        raise ValueError(f"expected a {label} partition, got a {part.label} one")
    K, V = part.k[layer, head], part.v[layer, head]
    if K.shape[0] != V.shape[0]:
        raise DimensionError("K and V row counts differ")
    if K.shape[0] > 0 and K.shape[1] != width:
        raise DimensionError(f"key width {K.shape[1]} does not match query width {width}")
    return K, V


def _softmax_partial(qs, parts, lengths=None):
    """The partial kernel: (a, gamma, m) of queries qs (..., d) against
    parts, a list of (K, V) pairs of shape (..., n, d) that broadcast
    against qs.shape[:-1], read in order as one row list; a part stored
    once, such as a user's shared (heads, p, d) rows, is read per query
    row. lengths, broadcast against qs.shape[:-1], limits each query row
    to the first lengths rows of that list. Every query must see at least
    one key.
    """
    scores = [(K @ qs[..., None])[..., 0] for K, _ in parts]
    scores = np.concatenate(scores, axis=-1) if len(parts) > 1 else scores[0]
    n = scores.shape[-1]
    if lengths is not None and np.any(lengths < n):
        scores = np.where(np.arange(n) >= lengths[..., None], -np.inf, scores)
    m = scores.max(axis=-1)
    e = np.exp(scores - m[..., None])
    gamma = e.sum(axis=-1)
    a, stop = None, 0
    for _, V in parts:
        start, stop = stop, stop + V.shape[-2]
        term = (e[..., None, start:stop] @ V)[..., 0, :]
        a = term if a is None else a + term
    return a / gamma[..., None], gamma, m


def _arena_rows(rows: list[int]):
    """Index of the given arena rows: a slice, which reads a view, when
    they are consecutive and ascending, else an array, which gathers."""
    lo = rows[0]
    if rows == list(range(lo, lo + len(rows))):
        return slice(lo, lo + len(rows))
    return np.array(rows)


def _slot_attention(K, V, slots: list[int], lens: np.ndarray):
    """One decode round's attention over a slot arena: K and V of shape
    (slots, n_layers, n_heads, rows, head_dim), slot slots[b] holding
    lens[b] rows of session b. Returns partial(layer, qs, ks, vs) on
    (sessions, n_heads, head_dim) arrays, which writes ks[b]/vs[b] at row
    lens[b] of slot slots[b] and returns (a, gamma, m) of qs[b] over that
    slot's rows up to and including it, in one masked kernel call."""
    arena = _arena_rows(slots)
    n = int(lens.max()) + 1

    def partial(layer, qs, ks, vs):
        K[slots, layer, :, lens] = ks
        V[slots, layer, :, lens] = vs
        return _softmax_partial(
            qs, [(K[arena, layer, :, :n], V[arena, layer, :, :n])], lens[:, None] + 1
        )

    return partial


def _one_partial(q, part: KvPartition, label: str, layer: int, head: int) -> PartialAttention:
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    K, V = _head_rows(part, label, layer, head, q.size)
    if K.shape[0] == 0:
        return PartialAttention.empty(V.shape[1])
    a, gamma, m = _softmax_partial(q, [(K, V)])
    return PartialAttention(a=a, gamma=float(gamma), m=float(m))


def private_partial(
    q: np.ndarray, part: KvPartition, layer: int = 0, head: int = 0
) -> PartialAttention:
    """The user party's softmax-weighted V contribution over its private rows."""
    return _one_partial(q, part, PRIVATE, layer, head)


def public_partial(
    q: np.ndarray, part: KvPartition, layer: int = 0, head: int = 0
) -> PartialAttention:
    """The model party's contribution over the generated-token rows."""
    return _one_partial(q, part, PUBLIC, layer, head)


def merge_partial_arrays(a1, g1, m1, a2, g2, m2) -> np.ndarray:
    """Combine private (a1, g1, m1) and public (a2, g2, m2) partials held
    as arrays: a of shape (..., head_dim), gamma and m of shape (...).

    Both denominators are rescaled to the shared max before mixing, so the
    coefficients gamma_pvt/(gamma_pvt + alpha*gamma_pub) and its mirror
    are evaluated without overflowing either exponential. The empty
    partial (gamma 0, m -inf) is the identity: its weight is exactly 0,
    and the other side's vector comes back exactly.
    """
    if np.any((g1 == 0.0) & (g2 == 0.0)):
        raise EmptyPartitionError("cannot merge two empty partials")
    m = np.maximum(m1, m2)
    g1 = g1 * np.exp(m1 - m)
    g2 = g2 * np.exp(m2 - m)
    total = g1 + g2
    return (g1 / total)[..., None] * a1 + (g2 / total)[..., None] * a2


def merge_partials(pvt: PartialAttention, pub: PartialAttention) -> np.ndarray:
    """merge_partial_arrays of one private and one public PartialAttention."""
    return merge_partial_arrays(pvt.a, pvt.gamma, pvt.m, pub.a, pub.gamma, pub.m)


def batched_public_partials(
    qs: np.ndarray,
    parts: list[KvPartition],
    layer: int = 0,
    head: int = 0,
) -> list[PartialAttention]:
    """public_partial of each query row against its partition."""
    qs = np.atleast_2d(np.asarray(qs, dtype=np.float64))
    if len(parts) == 0 or qs.shape[0] != len(parts):
        raise ValueError("need one query row per partition")
    return [public_partial(q, part, layer, head) for q, part in zip(qs, parts)]
