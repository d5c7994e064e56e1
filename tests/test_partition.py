import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

from splitdecode.model import attention_reference
from splitdecode.numerics import DimensionError, EmptyPartitionError
from splitdecode.partition import (
    PRIVATE,
    PUBLIC,
    KvPartition,
    PartialAttention,
    _slot_attention,
    _softmax_partial,
    batched_public_partials,
    merge_partial_arrays,
    merge_partials,
    private_partial,
    public_partial,
)

from conftest import rng


def restricted_softmax(q, K, V):
    """Attention limited to one partition, via plain loops."""
    scores = [sum(q[d] * K[j, d] for d in range(len(q))) for j in range(K.shape[0])]
    m = max(scores)
    exps = [math.exp(s - m) for s in scores]
    z = sum(exps)
    out = np.zeros(V.shape[1])
    for j, e in enumerate(exps):
        out += (e / z) * V[j]
    return out


def mpmath_attention(q, K, V, dps=50):
    """Softmax attention at dps decimal digits."""
    with mp.workdps(dps):
        scores = [mp.fsum(mp.mpf(q[d]) * mp.mpf(K[j, d]) for d in range(len(q)))
                  for j in range(K.shape[0])]
        exps = [mp.e**s for s in scores]
        z = mp.fsum(exps)
        out = []
        for d in range(V.shape[1]):
            out.append(float(mp.fsum((e / z) * mp.mpf(V[j, d]) for j, e in enumerate(exps))))
    return np.array(out)


def split_instance(seed, n, head_dim, scale=1.0):
    g = rng(seed)
    q = g.standard_normal(head_dim) * scale
    K = g.standard_normal((n, head_dim))
    V = g.standard_normal((n, head_dim))
    split = int(g.integers(0, n + 1))
    pvt = private_partial(q, KvPartition.single_head(PRIVATE, K[:split], V[:split]))
    pub = public_partial(q, KvPartition.single_head(PUBLIC, K[split:], V[split:]))
    return q, K, V, pvt, pub


class TestPartials:
    def test_single_position_is_that_value_row(self):
        K = np.array([[0.5, -1.0]])
        V = np.array([[3.0, 4.0]])
        pa = private_partial(np.array([2.0, 1.0]), KvPartition.single_head(PRIVATE, K, V))
        assert np.allclose(pa.a, V[0], atol=1e-15)
        assert pa.gamma == 1.0  # relative to m, a lone score exponentiates to 1
        assert pa.m == pytest.approx(0.0)

    def test_orthogonal_query_sees_mean(self):
        q = np.array([0.0, 1.0])
        K = np.array([[1.0, 0.0], [-1.0, 0.0], [2.0, 0.0], [5.0, 0.0]])
        V = rng(9).standard_normal((4, 3))
        pa = private_partial(q, KvPartition.single_head(PRIVATE, K, V))
        assert np.allclose(pa.a, V.mean(axis=0), atol=1e-12)

    def test_matches_restricted_softmax_oracle(self):
        g = rng(21)
        q = g.standard_normal(4)
        K = g.standard_normal((8, 4))
        V = g.standard_normal((8, 4))
        for ctor, label in ((private_partial, PRIVATE), (public_partial, PUBLIC)):
            pa = ctor(q, KvPartition.single_head(label, K, V))
            assert np.max(np.abs(pa.a - restricted_softmax(q, K, V))) <= 1e-12

    def test_empty_partition_sentinel(self):
        part = KvPartition.single_head(PRIVATE, np.zeros((0, 4)), np.zeros((0, 4)))
        pa = private_partial(np.ones(4), part)
        assert pa.gamma == 0.0 and pa.m == -np.inf
        assert np.array_equal(pa.a, np.zeros(4))

    def test_label_enforced(self):
        part = KvPartition.single_head(PUBLIC, np.ones((1, 2)), np.ones((1, 2)))
        with pytest.raises(ValueError):
            private_partial(np.ones(2), part)

    def test_unknown_label_rejected(self):
        with pytest.raises(ValueError):
            KvPartition.single_head("secret", np.ones((1, 2)), np.ones((1, 2)))


class TestMerge:
    def test_empty_public_returns_private_exactly(self):
        _, _, _, pvt, _ = split_instance(1, 5, 4)
        merged = merge_partials(pvt, PartialAttention.empty(4))
        assert np.array_equal(merged, pvt.a)

    def test_empty_private_returns_public_exactly(self):
        q, K, V, _, _ = split_instance(2, 5, 4)
        pub = public_partial(q, KvPartition.single_head(PUBLIC, K, V))
        merged = merge_partials(PartialAttention.empty(4), pub)
        assert np.array_equal(merged, pub.a)

    def test_both_empty_rejected(self):
        with pytest.raises(EmptyPartitionError):
            merge_partials(PartialAttention.empty(4), PartialAttention.empty(4))

    def test_duplicated_rows_collapse(self):
        g = rng(3)
        q = g.standard_normal(4)
        K = g.standard_normal((6, 4))
        V = g.standard_normal((6, 4))
        pvt = private_partial(q, KvPartition.single_head(PRIVATE, K, V))
        pub = public_partial(q, KvPartition.single_head(PUBLIC, K, V))
        merged = merge_partials(pvt, pub)
        assert np.allclose(merged, pvt.a, atol=1e-12)
        assert np.allclose(merged, pub.a, atol=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_role_swap_symmetry(self, seed):
        g = rng(40 + seed)
        q = g.standard_normal(8)
        Ka, Va = g.standard_normal((5, 8)), g.standard_normal((5, 8))
        Kb, Vb = g.standard_normal((3, 8)), g.standard_normal((3, 8))
        one = merge_partials(
            private_partial(q, KvPartition.single_head(PRIVATE, Ka, Va)),
            public_partial(q, KvPartition.single_head(PUBLIC, Kb, Vb)),
        )
        two = merge_partials(
            private_partial(q, KvPartition.single_head(PRIVATE, Kb, Vb)),
            public_partial(q, KvPartition.single_head(PUBLIC, Ka, Va)),
        )
        assert np.max(np.abs(one - two)) <= 1e-12

    def test_random_splits_match_reference(self):
        worst = 0.0
        for seed in range(200):
            q, K, V, pvt, pub = split_instance(1000 + seed, int(rng(seed).integers(1, 65)), 8)
            merged = merge_partials(pvt, pub)
            worst = max(worst, float(np.max(np.abs(merged - attention_reference(q, K, V)[0]))))
        assert worst <= 1e-9

    def test_extreme_scores_stay_stable(self):
        # scores reach roughly +/-500; unstabilized exponentials would overflow
        worst = 0.0
        for seed in range(50):
            q, K, V, pvt, pub = split_instance(7000 + seed, 16, 8, scale=50.0)
            merged = merge_partials(pvt, pub)
            assert np.all(np.isfinite(merged))
            want = mpmath_attention(q, K, V)
            rel = np.max(np.abs(merged - want)) / max(np.max(np.abs(want)), 1e-300)
            worst = max(worst, float(rel))
        assert worst <= 1e-6

    @settings(deadline=None, max_examples=80)
    @given(
        seed=st.integers(0, 10**6),
        n=st.integers(1, 24),
        split=st.integers(0, 24),
        head_dim=st.sampled_from([2, 4, 8]),
    )
    def test_arbitrary_splits_property(self, seed, n, split, head_dim):
        g = rng(seed)
        split = min(split, n)
        q = g.standard_normal(head_dim)
        K = g.standard_normal((n, head_dim))
        V = g.standard_normal((n, head_dim))
        pvt = private_partial(q, KvPartition.single_head(PRIVATE, K[:split], V[:split]))
        pub = public_partial(q, KvPartition.single_head(PUBLIC, K[split:], V[split:]))
        merged = merge_partials(pvt, pub)
        want = attention_reference(q, K, V)[0]
        assert np.max(np.abs(merged - want)) <= 1e-9

    def test_sequences_merge_pairwise(self):
        pairs = [split_instance(300 + seed, 9, 4)[3:] for seed in range(6)]
        pairs.append((PartialAttention.empty(4), pairs[0][1]))

        def fields(side):
            return (np.stack([p.a for p in side]), np.array([p.gamma for p in side]),
                    np.array([p.m for p in side]))

        private, public = fields([p for p, _ in pairs]), fields([p for _, p in pairs])
        merged = merge_partial_arrays(*private, *public)
        assert merged.shape == (len(pairs), 4)
        for row, (pvt, pub) in zip(merged, pairs):
            assert np.max(np.abs(row - merge_partials(pvt, pub))) <= 1e-14
        # the empty partial is the identity inside a batch too
        assert np.array_equal(merged[-1], pairs[0][1].a)

    def test_coefficients_match_stated_form(self):
        # the overflow-safe evaluation must equal the direct coefficient
        # formulas wherever those are finite
        q, K, V, pvt, pub = split_instance(77, 10, 4)
        if pvt.gamma == 0.0 or pub.gamma == 0.0:
            pytest.skip("degenerate split drawn")
        alpha = math.exp(pub.m - pvt.m)
        c_pvt = pvt.gamma / (pvt.gamma + alpha * pub.gamma)
        c_pub = pub.gamma / (pvt.gamma / alpha + pub.gamma)
        direct = c_pvt * pvt.a + c_pub * pub.a
        assert np.max(np.abs(merge_partials(pvt, pub) - direct)) <= 1e-12


def shared_prefix_instance(seed, p, tails, heads=3, head_dim=8):
    """Queries of len(tails) streams, shared prefix rows (heads, p, d),
    and max(tails) rows per stream, of which each stream sees its tail."""
    g = rng(seed)
    S, n = len(tails), max(tails)
    qs = g.standard_normal((S, heads, head_dim))
    Kp, Vp = g.standard_normal((2, heads, p, head_dim))
    K, V = g.standard_normal((2, S, heads, n, head_dim))
    return qs, (Kp, Vp), K, V, np.array(tails)


class TestSharedPrefixPartial:
    """_softmax_partial with a prefix shared by every stream equals the
    partial over each stream's concatenated rows: the prefix rows, then
    its own."""

    CASES = [
        (1, 0, (3,)),
        (1, 4, (0,)),
        (1, 4, (2,)),
        (8, 0, (1, 2, 3, 4, 5, 6, 7, 8)),
        (8, 6, (0, 3, 1, 7, 2, 0, 5, 4)),
        (8, 9, (2, 2, 2, 2, 2, 2, 2, 2)),
    ]

    @pytest.mark.parametrize("S,p,tails", CASES)
    def test_equals_partial_over_concatenated_rows(self, S, p, tails):
        qs, (Kp, Vp), K, V, lengths = shared_prefix_instance(S * 100 + p, p, tails)
        a, gamma, m = _softmax_partial(qs, [(Kp, Vp), (K, V)], p + lengths[:, None])
        Kc = np.concatenate([np.broadcast_to(Kp, (S, *Kp.shape)), K], axis=2)
        Vc = np.concatenate([np.broadcast_to(Vp, (S, *Vp.shape)), V], axis=2)
        want_a, want_gamma, want_m = _softmax_partial(qs, [(Kc, Vc)], p + lengths[:, None])
        assert a.shape == want_a.shape == (S, 3, 8)
        assert np.max(np.abs(a - want_a)) <= 1e-12 * np.max(np.abs(want_a))
        assert np.max(np.abs(gamma / want_gamma - 1)) <= 1e-12
        assert np.max(np.abs(m - want_m)) <= 1e-12 * np.max(np.abs(want_m))

    @pytest.mark.parametrize("S,p,tails", CASES)
    def test_merged_with_public_matches_reference(self, S, p, tails):
        qs, (Kp, Vp), K, V, lengths = shared_prefix_instance(S * 100 + p + 1, p, tails)
        public = 1 + np.arange(S) % 3  # 1 to 3 public rows per stream
        Kb, Vb = rng(S * 100 + p + 2).standard_normal((2, S, 3, 3, 8))
        pvt = _softmax_partial(qs, [(Kp, Vp), (K, V)], p + lengths[:, None])
        pub = _softmax_partial(qs, [(Kb, Vb)], public[:, None])
        merged = merge_partial_arrays(*pvt, *pub)
        for s in range(S):
            for h in range(3):
                n, r = lengths[s], public[s]
                keys = np.concatenate([Kp[h], K[s, h, :n], Kb[s, h, :r]])
                values = np.concatenate([Vp[h], V[s, h, :n], Vb[s, h, :r]])
                want = attention_reference(qs[s, h], keys, values)[0]
                assert np.max(np.abs(merged[s, h] - want)) <= 1e-10


class TestStreamInvariance:
    """The premise of the user party's lambda invariance: at the pinned
    model's head shape, a stream's partial over the shared rows and its
    own is bit for bit the same whether it is alone in the kernel call or
    one of S = 2 to 8, with unequal own lengths. Its inputs are copied
    for the call alone, so they sit elsewhere in memory, as another QUERY's
    do. This fails, and never skips, on a BLAS that breaks the premise."""

    @staticmethod
    def partial(qs, shared, K, V, lengths):
        # the user party's parts: the shared rows, if any, then the own
        parts = [shared] if shared[0].shape[1] else []
        return _softmax_partial(qs, parts + [(K, V)], lengths[:, None])

    @pytest.mark.parametrize("p", [0, 9, 124])
    def test_stream_bits_do_not_depend_on_the_streams_beside_it(self, p):
        qs, shared, K, V, own = shared_prefix_instance(
            p, p, (4, 1, 7, 3, 7, 2, 6, 5), heads=4, head_dim=64
        )
        lengths = p + own
        for s in range(8):
            alone = self.partial(qs[s:s + 1].copy(), shared, K[s:s + 1].copy(),
                                 V[s:s + 1].copy(), lengths[s:s + 1])
            for S in range(max(s + 1, 2), 9):
                batch = self.partial(qs[:S], shared, K[:S], V[:S], lengths[:S])
                for got, want in zip(batch, alone):
                    assert np.array_equal(got[s], want[0]), (s, S)


class TestSlotAttention:
    """The decode-round kernel of the model party's public arena and the
    bench's monolithic batch: each session's new K/V row lands at row
    lens[b] of its slot, and its query attends over that slot's rows up
    to and including it."""

    @pytest.mark.parametrize("slots", [[0, 2, 3], [0, 1, 2, 3]], ids=["gathered", "contiguous"])
    def test_writes_the_row_and_attends_over_the_slot(self, slots):
        g = rng(len(slots))
        layer, heads, head_dim = 1, 3, 4
        K, V = g.standard_normal((2, 4, 2, heads, 8, head_dim))
        before_k, before_v = K.copy(), V.copy()
        lens = np.array([5, 1, 0, 6])[slots]  # unequal; rows past them hold noise
        qs, ks, vs = g.standard_normal((3, len(slots), heads, head_dim))
        a, gamma, m = _slot_attention(K, V, slots, lens)(layer, qs, ks, vs)
        written = np.zeros(K.shape, dtype=bool)
        for b, slot in enumerate(slots):
            assert np.array_equal(K[slot, layer, :, lens[b]], ks[b])
            assert np.array_equal(V[slot, layer, :, lens[b]], vs[b])
            written[slot, layer, :, lens[b]] = True
            n = lens[b] + 1
            for h in range(heads):
                want = attention_reference(qs[b, h], K[slot, layer, h, :n], V[slot, layer, h, :n])
                assert np.max(np.abs(a[b, h] - want[0])) <= 1e-12
        # every other row, the slots outside the batch included, is untouched
        assert np.array_equal(K[~written], before_k[~written])
        assert np.array_equal(V[~written], before_v[~written])


class TestBatchedPublicPartials:
    def test_batch_of_one_equals_single(self):
        g = rng(5)
        q = g.standard_normal(4)
        part = KvPartition.single_head(PUBLIC, g.standard_normal((6, 4)), g.standard_normal((6, 4)))
        batched = batched_public_partials(q[None, :], [part])[0]
        single = public_partial(q, part)
        assert np.max(np.abs(batched.a - single.a)) <= 1e-12
        assert batched.gamma == pytest.approx(single.gamma, rel=1e-12)
        assert batched.m == single.m

    def test_batch_of_eight_matches_loop(self):
        g = rng(6)
        qs = g.standard_normal((8, 4))
        parts = [
            KvPartition.single_head(PUBLIC, g.standard_normal((7, 4)), g.standard_normal((7, 4)))
            for _ in range(8)
        ]
        batched = batched_public_partials(qs, parts)
        for i, part in enumerate(parts):
            single = public_partial(qs[i], part)
            assert np.max(np.abs(batched[i].a - single.a)) <= 1e-12
            assert batched[i].gamma == pytest.approx(single.gamma, rel=1e-12)

    def test_mixed_lengths_match_loop(self):
        g = rng(7)
        qs = g.standard_normal((5, 4))
        lengths = [0, 1, 3, 9, 2]
        parts = [
            KvPartition.single_head(PUBLIC, g.standard_normal((n, 4)), g.standard_normal((n, 4)))
            for n in lengths
        ]
        batched = batched_public_partials(qs, parts)
        for i, part in enumerate(parts):
            single = public_partial(qs[i], part)
            if lengths[i] == 0:
                assert batched[i].gamma == 0.0 and single.gamma == 0.0
            else:
                assert np.max(np.abs(batched[i].a - single.a)) <= 1e-12

    def test_ragged_head_dim_rejected(self):
        g = rng(8)
        qs = g.standard_normal((2, 4))
        good = KvPartition.single_head(PUBLIC, g.standard_normal((3, 4)), g.standard_normal((3, 4)))
        bad = KvPartition.single_head(PUBLIC, g.standard_normal((3, 5)), g.standard_normal((3, 5)))
        with pytest.raises(DimensionError):
            batched_public_partials(qs, [good, bad])

    def test_private_partitions_rejected(self):
        g = rng(9)
        part = KvPartition.single_head(PRIVATE, g.standard_normal((3, 4)), g.standard_normal((3, 4)))
        with pytest.raises(ValueError):
            batched_public_partials(g.standard_normal((1, 4)), [part])
