import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitdecode.langmodel import (
    NgramModel,
    TransformerOracle,
    apply_temperature,
    seq_logprob,
    tempered,
    tokenize_text,
    train_ngram,
)

from conftest import rng


class TestTrainNgram:
    def test_hand_counted_bigram(self):
        # three 'a b' sequences, vocab {a=0, b=1, c=2}: count(b|a) = 3 of 3
        model = train_ngram([[0, 1]] * 3, order=2, smoothing=0.5, vocab_size=3)
        assert model.next_dist([0])[1] == pytest.approx((3 + 0.5) / (3 + 0.5 * 3))
        assert model.next_dist([0])[2] == pytest.approx(0.5 / (3 + 0.5 * 3))

    def test_unseen_context_is_uniform(self):
        model = train_ngram([[0, 1, 2]], order=3, vocab_size=5)
        assert np.allclose(model.next_dist([4, 4]), np.full(5, 0.2))

    def test_heavy_smoothing_tends_uniform(self):
        model = train_ngram([[0, 0, 0, 0]], order=2, smoothing=1e9, vocab_size=4)
        assert np.allclose(model.next_dist([0]), np.full(4, 0.25), atol=1e-8)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            train_ngram([], order=2)
        with pytest.raises(ValueError):
            train_ngram([[]], order=2)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            train_ngram([[0, 1]], order=0)
        with pytest.raises(ValueError):
            train_ngram([[0, 1]], order=2, smoothing=0.0)
        with pytest.raises(ValueError):
            train_ngram([[0, 9]], order=2, vocab_size=4)

    def test_determinism(self):
        corpus = [[0, 1, 2, 1], [2, 2, 0]]
        a = train_ngram(corpus, order=2, smoothing=0.01, vocab_size=3)
        b = train_ngram(corpus, order=2, smoothing=0.01, vocab_size=3)
        for ctx in ([], [0], [1], [2], [0, 1]):
            assert np.array_equal(a.next_dist(ctx), b.next_dist(ctx))

    @settings(deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 10_000),
        order=st.integers(1, 4),
        smoothing=st.floats(min_value=1e-4, max_value=10),
    )
    def test_next_dist_is_a_distribution(self, seed, order, smoothing):
        g = rng(seed)
        corpus = [g.integers(0, 6, size=int(g.integers(1, 10))).tolist() for _ in range(4)]
        model = train_ngram(corpus, order=order, smoothing=smoothing, vocab_size=6)
        for ctx in ([], [0], [5, 2], corpus[0][:3]):
            dist = model.next_dist(ctx)
            assert dist.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(dist > 0)


class TestSeqLogprob:
    def test_uniform_single_token(self):
        model = NgramModel(order=1, vocab_size=4)
        assert seq_logprob(model, [2]) == pytest.approx(math.log(0.25))

    def test_chain_rule_identity(self):
        model = train_ngram([[0, 1, 2, 3, 0, 1]], order=3, vocab_size=4)
        ctx = [0]
        whole = seq_logprob(model, [1, 2], ctx)
        split = seq_logprob(model, [1], ctx) + seq_logprob(model, [2], ctx + [1])
        assert whole == pytest.approx(split, abs=1e-12)

    def test_matches_per_step_product(self):
        model = train_ngram([[0, 1, 2, 3, 2, 1]], order=2, vocab_size=4)
        tokens, ctx = [1, 2, 3], [0]
        product = 1.0
        running = list(ctx)
        for t in tokens:
            product *= model.next_dist(running)[t]
            running.append(t)
        assert seq_logprob(model, tokens, ctx) == pytest.approx(math.log(product), abs=1e-12)

    def test_always_nonpositive(self):
        model = train_ngram([[0, 1, 0, 1]], order=2, vocab_size=3)
        assert seq_logprob(model, [0, 1, 0]) <= 0

    def test_empty_tokens_rejected(self):
        with pytest.raises(ValueError):
            seq_logprob(NgramModel(order=1, vocab_size=4), [])


class TestTemperature:
    def test_identity_at_one(self):
        dist = np.array([0.7, 0.2, 0.1])
        assert np.allclose(apply_temperature(dist, 1.0), dist, atol=1e-12)

    def test_large_tau_flattens(self):
        dist = np.array([0.9, 0.05, 0.05])
        assert np.allclose(apply_temperature(dist, 1e9), np.full(3, 1 / 3), atol=1e-6)

    def test_hand_value_tau_two(self):
        out = apply_temperature(np.array([0.8, 0.2]), 2.0)
        # sqrt(0.8)/sqrt(0.2) = 2, so the normalized pair is exactly (2/3, 1/3)
        assert np.allclose(out, [2 / 3, 1 / 3], atol=1e-12)

    def test_invalid_tau(self):
        with pytest.raises(ValueError):
            apply_temperature(np.array([1.0]), 0.0)

    def test_tempered_view(self):
        model = train_ngram([[0, 1, 2]], order=2, vocab_size=3)
        assert tempered(model, 1.0) is model
        view = tempered(model, 2.0)
        assert view.vocab_size == 3
        assert np.allclose(
            view.next_dist([0]), apply_temperature(model.next_dist([0]), 2.0), atol=1e-15
        )


class TestTransformerOracle:
    def test_valid_distribution(self, small_weights):
        oracle = TransformerOracle(small_weights)
        dist = oracle.next_dist([3, 5])
        assert dist.shape == (small_weights.config.vocab_size,)
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(dist > 0)

    def test_empty_context_defined(self, small_weights):
        dist = TransformerOracle(small_weights).next_dist([])
        assert dist.sum() == pytest.approx(1.0, abs=1e-9)

    def test_deterministic(self, small_weights):
        oracle = TransformerOracle(small_weights)
        assert np.array_equal(oracle.next_dist([1, 2]), oracle.next_dist([1, 2]))


class TestCorpusIo:
    def test_tokenize_lines(self):
        seqs, vocab = tokenize_text("a b a\n\nb c\n")
        assert seqs == [[0, 1, 0], [1, 2]]
        assert vocab == {"a": 0, "b": 1, "c": 2}
