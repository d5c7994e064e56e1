"""Lossless two-party split of one decode step's attention.

One softmax over concatenated keys equals a convex combination of the
softmaxes over each part, weighted by their denominators. Each side
reports, per head, a PartialAttention: the weighted-value vector ``a``,
the denominator ``gamma`` relative to its own running max ``m``, and
``m`` itself. The merge rescales both denominators to a common max, which
keeps the combination exact while never exponentiating large scores.

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

    @property
    def is_empty(self) -> bool:
        return self.gamma == 0.0

    def scalars(self) -> np.ndarray:
        return np.concatenate([self.a, [self.gamma, self.m]])


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


def _softmax_partial(qs, K, V, lengths=None):
    """The partial kernel: (a, gamma, m) of queries qs (..., d) against
    their keys and values (..., n, d). lengths, broadcast against
    qs.shape[:-1], limits each query row to its first lengths keys; every
    row must see at least one."""
    scores = (K @ qs[..., None])[..., 0]
    n = scores.shape[-1]
    if lengths is not None and np.any(lengths < n):
        scores = np.where(np.arange(n) >= lengths[..., None], -np.inf, scores)
    m = scores.max(axis=-1)
    e = np.exp(scores - m[..., None])
    gamma = e.sum(axis=-1)
    a = (e[..., None, :] @ V)[..., 0, :] / gamma[..., None]
    return a, gamma, m


def _one_partial(q, part: KvPartition, label: str, layer: int, head: int) -> PartialAttention:
    q = np.asarray(q, dtype=np.float64).reshape(-1)
    K, V = _head_rows(part, label, layer, head, q.size)
    if K.shape[0] == 0:
        return PartialAttention.empty(V.shape[1])
    a, gamma, m = _softmax_partial(q, K, V)
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


def merge_partials(pvt, pub) -> np.ndarray:
    """merge_partial_arrays over PartialAttention values.

    pvt and pub are one PartialAttention each, or equal-length sequences
    of them merged pairwise into one output row per pair.
    """
    single = isinstance(pvt, PartialAttention)
    pvt, pub = ([pvt], [pub]) if single else (pvt, pub)

    def fields(side):
        return (np.stack([p.a for p in side]), np.array([p.gamma for p in side]),
                np.array([p.m for p in side]))

    out = merge_partial_arrays(*fields(pvt), *fields(pub))
    return out[0] if single else out


def batched_public_partials(
    qs: np.ndarray,
    parts: list[KvPartition],
    layer: int = 0,
    head: int = 0,
) -> list[PartialAttention]:
    """Public partials for a batch of users in one padded-matrix pass.

    Users may have different public lengths; shorter ones are masked.
    Elementwise identical (within 1e-12) to calling public_partial per
    user, which the tests assert against a plain loop.
    """
    qs = np.atleast_2d(np.asarray(qs, dtype=np.float64))
    if len(parts) == 0 or qs.shape[0] != len(parts):
        raise ValueError("need one query row per partition")
    d = qs.shape[1]
    rows = [_head_rows(part, PUBLIC, layer, head, d) for part in parts]
    lengths = np.array([K.shape[0] for K, _ in rows])
    seen = np.flatnonzero(lengths)  # rows with no keys get the empty partial
    found = iter(())
    if len(seen):
        K_pad = np.zeros((len(seen), lengths.max(), d))
        V_pad = np.zeros_like(K_pad)
        for j, i in enumerate(seen):
            K_pad[j, : lengths[i]], V_pad[j, : lengths[i]] = rows[i]
        a, gamma, m = _softmax_partial(qs[seen], K_pad, V_pad, lengths[seen])
        found = (PartialAttention(a[j], float(gamma[j]), float(m[j])) for j in range(len(seen)))
    return [next(found) if n else PartialAttention.empty(d) for n in lengths]
