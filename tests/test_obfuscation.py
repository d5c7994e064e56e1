import hashlib
import itertools
import math
import re
from dataclasses import dataclass, replace

import numpy as np
import pytest

from splitdecode.corpora import date_category_corpus, date_prompt, zipf_corpus
from splitdecode.langmodel import seq_logprob, tempered, train_ngram
from splitdecode.obfuscation import (
    FakeNgramSet,
    InsufficientObfuscationError,
    ObfuscationConfig,
    TaggedPrompt,
    VirtualPromptSet,
    build_virtual_prompts,
    dump_virtual_prompts,
    gqs,
    multi_segment_gqs,
    prf_index,
    tag_sensitive,
    verify_bound,
    winnow,
)

from conftest import rng


@dataclass
class FixedOracle:
    """Test double: a fixed next-token distribution, optionally overridden
    per context."""

    dist: np.ndarray
    per_context: dict = None

    @property
    def vocab_size(self):
        return len(self.dist)

    def next_dist(self, context):
        if self.per_context:
            hit = self.per_context.get(tuple(context))
            if hit is not None:
                return np.asarray(hit, dtype=np.float64)
        return np.asarray(self.dist, dtype=np.float64)


def exhaustive_bin_filter(context, authentic, epsilon, oracle):
    """Independent enumeration of all same-bin sequences of |authentic|."""
    n = len(authentic)
    width = epsilon / n
    survivors = [()]
    for step in range(n):
        ref = oracle.next_dist(list(context) + list(authentic[:step]))
        j = math.floor(math.log(ref[authentic[step]]) / width)
        lo, hi = j * width, (j + 1) * width
        new = []
        for cand in survivors:
            dist = oracle.next_dist(list(context) + list(cand))
            for token in range(oracle.vocab_size):
                if lo <= math.log(dist[token]) < hi:
                    new.append(cand + (token,))
        survivors = new
    return set(survivors)


UNIFORM4 = FixedOracle(np.full(4, 0.25))
SKEWED4 = FixedOracle(np.array([0.5, 0.45, 0.04, 0.01]))


def one_span_prompt(tokens, start, length):
    return TaggedPrompt(tokens=tokens, spans=((start, length),))


class TestTagging:
    PATTERNS = (re.compile("alice|bob"), re.compile("dawn|noon"))

    def test_no_match(self):
        assert tag_sensitive(["meets", "at"], self.PATTERNS) == ()

    def test_single_hit_span_length(self):
        spans = tag_sensitive(["alice", "bob", "meets"], [re.compile("alice bob")])
        assert spans == ((0, 2),)

    def test_adjacent_hits_stay_separate(self):
        spans = tag_sensitive(["alice", "bob", "at", "dawn"], self.PATTERNS)
        assert spans == ((0, 1), (1, 1), (3, 1))

    def test_leftmost_longest_wins(self):
        patterns = [re.compile("alice bob meets"), re.compile("bob meets at")]
        spans = tag_sensitive(["alice", "bob", "meets", "at", "noon"], patterns)
        assert spans == ((0, 3),)

    def test_rules_required(self):
        with pytest.raises(ValueError):
            tag_sensitive(["alice"], [])

    def test_span_validation(self):
        with pytest.raises(ValueError):
            TaggedPrompt(tokens=(1, 2, 3), spans=((0, 2), (1, 1)))
        with pytest.raises(ValueError):
            TaggedPrompt(tokens=(1, 2), spans=((1, 4),))


class TestGqs:
    def test_uniform_vocab_all_in_one_bin(self):
        prompt = one_span_prompt((0, 1), 1, 1)
        out = gqs(prompt, (1, 1), ObfuscationConfig(epsilon=0.5, lambda_max=16), UNIFORM4)
        assert set(out.candidates) == {(0,), (1,), (2,), (3,)}
        assert prompt.segment((1, 1)) in out.candidates

    def test_constructed_bins(self):
        # ln .5 = -0.693 and ln .45 = -0.799 share bin [-1, 0) at width 1;
        # ln .04 = -3.22 and ln .01 = -4.61 do not
        prompt = one_span_prompt((0, 0), 1, 1)  # authentic token 0
        out = gqs(prompt, (1, 1), ObfuscationConfig(epsilon=1.0, lambda_max=16), SKEWED4)
        assert set(out.candidates) == {(0,), (1,)}

    def test_two_token_segment_matches_enumeration(self):
        per_context = {
            (2,): [0.6, 0.3, 0.1],
            (2, 0): [0.5, 0.25, 0.25],
            (2, 1): [0.45, 0.3, 0.25],
            (2, 2): [0.2, 0.4, 0.4],
        }
        oracle = FixedOracle(np.full(3, 1 / 3), per_context=per_context)
        prompt = one_span_prompt((2, 0, 1), 1, 2)
        epsilon = 0.6
        out = gqs(prompt, (1, 2), ObfuscationConfig(epsilon=epsilon, lambda_max=64), oracle)
        want = exhaustive_bin_filter([2], (0, 1), epsilon, oracle)
        assert set(out.candidates) == want

    def test_candidates_share_segment_length(self):
        oracle = train_ngram(
            [rng(0).integers(0, 8, size=10).tolist() for _ in range(20)], order=2, vocab_size=8
        )
        prompt = one_span_prompt(tuple(rng(1).integers(0, 8, size=6).tolist()), 2, 3)
        out = gqs(prompt, (2, 3), ObfuscationConfig(epsilon=2.0, lambda_max=32), oracle)
        assert all(len(c) == 3 for c in out.candidates)
        assert prompt.segment((2, 3)) in out.candidates

    def test_lambda_max_prunes_but_keeps_authentic(self):
        prompt = one_span_prompt((0, 3), 1, 1)  # authentic token 3, the lexicographically last
        out = gqs(prompt, (1, 1), ObfuscationConfig(epsilon=0.5, lambda_max=2), UNIFORM4)
        assert len(out.candidates) == 2
        assert (3,) in out.candidates

    def test_epsilon_must_be_positive(self):
        prompt = one_span_prompt((0, 1), 1, 1)
        with pytest.raises(ValueError):
            gqs(prompt, (1, 1), ObfuscationConfig(epsilon=0.0, lambda_max=4), UNIFORM4)

    def test_candidate_budget_must_be_positive(self):
        prompt = one_span_prompt((0, 1), 1, 1)
        with pytest.raises(ValueError):
            gqs(prompt, (1, 1), ObfuscationConfig(epsilon=0.5, lambda_max=0), UNIFORM4)

    def test_authentic_always_member(self):
        oracle = train_ngram(
            [rng(3).integers(0, 12, size=12).tolist() for _ in range(30)], order=2, vocab_size=12
        )
        for seed in range(6):
            tokens = tuple(rng(50 + seed).integers(0, 12, size=5).tolist())
            prompt = one_span_prompt(tokens, 1, 2)
            out = gqs(prompt, (1, 2), ObfuscationConfig(epsilon=0.4, lambda_max=8), oracle)
            assert prompt.segment((1, 2)) in out.candidates


class TestVerifyBound:
    def test_identity_always_passes(self):
        assert verify_bound([1, 2], [1, 2], [0], 0.0, UNIFORM4)

    def test_every_gqs_output_passes(self):
        oracle = train_ngram(
            [rng(4).integers(0, 10, size=9).tolist() for _ in range(25)], order=2, vocab_size=10
        )
        for epsilon in (0.05, 0.2, 1.0):
            prompt = one_span_prompt((1, 4, 2, 7), 1, 2)
            out = gqs(prompt, (1, 2), ObfuscationConfig(epsilon=epsilon, lambda_max=64), oracle)
            authentic = prompt.segment((1, 2))
            for cand in out.candidates:
                assert verify_bound(authentic, cand, [1], epsilon, oracle)

    def test_out_of_bin_token_fails(self):
        # |ln .04 - ln .5| = 2.53 > 1
        assert not verify_bound([0], [2], [], 1.0, SKEWED4)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            verify_bound([0, 1], [0], [], 1.0, UNIFORM4)


class TestMultiSegment:
    def corpus_oracle(self):
        return train_ngram(
            [rng(8).integers(0, 8, size=10).tolist() for _ in range(40)], order=2, vocab_size=8
        )

    def test_single_segment_equals_plain_gqs(self):
        oracle = self.corpus_oracle()
        prompt = one_span_prompt((1, 2, 3, 4), 1, 2)
        config = ObfuscationConfig(epsilon=0.8, lambda_max=16)
        [multi] = multi_segment_gqs(prompt, config, oracle)
        single = gqs(prompt, (1, 2), config, oracle)
        assert multi.candidates == single.candidates

    def test_two_segments_split_the_budget(self):
        oracle = self.corpus_oracle()
        prompt = TaggedPrompt(tokens=(0, 1, 2, 3, 4, 5), spans=((1, 1), (4, 1)))
        config = ObfuscationConfig(epsilon=0.2, lambda_max=16)
        multi = multi_segment_gqs(prompt, config, oracle)
        per_segment = replace(config, epsilon=0.1)
        assert multi[0].candidates == gqs(prompt, (1, 1), per_segment, oracle).candidates
        assert multi[1].candidates == gqs(prompt, (4, 1), per_segment, oracle).candidates

    def test_combined_replacement_honors_total_budget(self):
        # the independence assumption bounds the sum of per-segment
        # conditional gaps; left-context conditioning makes that the
        # controlled quantity (suffix conditionals may drift separately)
        oracle = self.corpus_oracle()
        prompt = TaggedPrompt(tokens=(0, 1, 2, 3, 4, 5), spans=((1, 1), (4, 1)))
        epsilon = 0.5
        config = ObfuscationConfig(epsilon=epsilon, lambda_max=8)
        sets = multi_segment_gqs(prompt, config, oracle)
        contexts = [list(prompt.tokens[:1]), list(prompt.tokens[:4])]
        segments = [prompt.segment(s) for s in prompt.spans]
        for combo in itertools.product(sets[0].candidates, sets[1].candidates):
            gap = sum(
                abs(
                    seq_logprob(oracle, list(combo[j]), contexts[j])
                    - seq_logprob(oracle, list(segments[j]), contexts[j])
                )
                for j in range(2)
            )
            assert gap <= epsilon + 1e-9

    def test_no_segments_rejected(self):
        with pytest.raises(ValueError):
            multi_segment_gqs(TaggedPrompt(tokens=(0, 1)), ObfuscationConfig(0.1, 4), UNIFORM4)


class TestPrfIndex:
    def test_lambda_zero(self):
        assert prf_index(b"k", 123, 0) == 0

    def test_deterministic(self):
        assert prf_index(b"key", 42, 7) == prf_index(b"key", 42, 7)

    def test_key_matters(self):
        hits = sum(prf_index(b"a", s, 7) == prf_index(b"b", s, 7) for s in range(400))
        assert hits < 120  # ~50 expected at 1/8 agreement

    def test_uniform_over_sessions(self):
        lam = 7
        counts = np.zeros(lam + 1)
        n = 100_000
        for session in range(n):
            counts[prf_index(b"uniformity", session, lam)] += 1
        expected = n / (lam + 1)
        sigma = math.sqrt(n * (1 / (lam + 1)) * (1 - 1 / (lam + 1)))
        assert np.all(np.abs(counts - expected) <= 3 * sigma)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            prf_index(b"k", 1, -1)


class TestVirtualPrompts:
    def test_abort_below_lambda_min(self):
        prompt = one_span_prompt((9, 0, 9), 1, 1)
        fakes = FakeNgramSet(candidates=((0,), (1,), (2,)))  # authentic + 2 decoys
        config = ObfuscationConfig(epsilon=0.1, lambda_max=8, lambda_min=3)
        with pytest.raises(InsufficientObfuscationError):
            build_virtual_prompts(prompt, [fakes], config, session_id=1)

    def test_eight_prompts_one_authentic(self):
        prompt = one_span_prompt((0, 1), 1, 1)
        out = gqs(prompt, (1, 1), ObfuscationConfig(epsilon=0.5, lambda_max=16), UNIFORM4)
        config = ObfuscationConfig(epsilon=0.5, lambda_max=7, prf_key=b"pp")
        vps = build_virtual_prompts(prompt, [out], config, session_id=5)
        assert vps.lam == 3  # uniform vocab of 4 gives 3 decoys
        assert sum(p == prompt.tokens for p in vps.prompts) == 1
        assert vps.prompts[vps.idx] == prompt.tokens

    def test_equal_lengths_by_construction(self):
        oracle = train_ngram(
            [rng(2).integers(0, 6, size=8).tolist() for _ in range(30)], order=2, vocab_size=6
        )
        prompt = one_span_prompt((0, 1, 2, 3, 4), 2, 2)
        config = ObfuscationConfig(epsilon=2.0, lambda_max=6, prf_key=b"x")
        fakes = multi_segment_gqs(prompt, config, oracle)
        vps = build_virtual_prompts(prompt, fakes, config, session_id=9)
        assert vps.lam > 1
        assert len({len(p) for p in vps.prompts}) == 1
        # pairwise distinct, so the prompts' common prefix ends before them
        assert len(set(vps.prompts)) == vps.lam + 1

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="prompts must share one length"):
            VirtualPromptSet(prompts=((1, 2, 3), (1, 2)), idx=0)

    def test_index_comes_from_prf(self):
        prompt = one_span_prompt((0, 1), 1, 1)
        out = gqs(prompt, (1, 1), ObfuscationConfig(epsilon=0.5, lambda_max=16), UNIFORM4)
        config = ObfuscationConfig(epsilon=0.5, lambda_max=7, prf_key=b"shared")
        vps = build_virtual_prompts(prompt, [out], config, session_id=77)
        assert vps.idx == prf_index(b"shared", 77, vps.lam)

    def test_no_fake_sets_no_decoys(self):
        # a tagged prompt whose segments were not sampled has no decoys;
        # the empty combination is not one
        prompt = one_span_prompt((9, 0, 9), 1, 1)
        vps = build_virtual_prompts(prompt, [], ObfuscationConfig(0.0, 4), session_id=3)
        assert vps.lam == 0 and vps.prompts == (prompt.tokens,)

    @pytest.mark.parametrize("lambda_max", [0, 1, 2, 3])
    def test_decoys_capped_at_lambda_max(self, lambda_max):
        prompt = one_span_prompt((9, 2, 9), 1, 1)
        # four decoys; the authentic (2,) is not the first candidate
        fakes = FakeNgramSet(candidates=((0,), (1,), (2,), (3,), (4,)))
        config = ObfuscationConfig(epsilon=0.1, lambda_max=lambda_max)
        vps = build_virtual_prompts(prompt, [fakes], config, session_id=2)
        assert vps.lam == lambda_max
        assert vps.prompts[vps.idx] == prompt.tokens
        assert len(set(vps.prompts)) == lambda_max + 1

    def test_no_spans_single_prompt(self):
        vps = build_virtual_prompts(
            TaggedPrompt(tokens=(5, 6)), [], ObfuscationConfig(0.1, 4), session_id=0
        )
        assert vps.lam == 0 and vps.prompts == ((5, 6),)

    def test_dump_marks_authentic(self):
        vps = build_virtual_prompts(
            TaggedPrompt(tokens=(5, 6)), [], ObfuscationConfig(0.1, 4), session_id=0
        )
        text = dump_virtual_prompts(vps)
        assert "authentic_idx=0" in text and text.count("*") == 1


class TestWinnow:
    def test_lambda_zero(self):
        assert winnow([[1, 2, 3]], 0) == [1, 2, 3]

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            winnow([[1], [2]], 2)

    def test_shared_key_recovers_end_to_end(self):
        key, session, lam = b"both-sides", 31337, 4
        responses = [[i] for i in range(lam + 1)]
        idx_sender = prf_index(key, session, lam)
        idx_receiver = prf_index(key, session, lam)
        assert winnow(responses, idx_receiver) == responses[idx_sender]

    def test_wrong_key_recovers_at_chance(self):
        lam = 7
        hits = sum(
            prf_index(b"true", s, lam) == prf_index(b"guess", s, lam) for s in range(4000)
        )
        p = 1 / (lam + 1)
        sigma = math.sqrt(4000 * p * (1 - p))
        assert abs(hits - 4000 * p) <= 3 * sigma


class TestTransformerAsOracle:
    def test_sampler_sound_under_the_toy_model(self, small_weights):
        # the transformer adapter drives the sampler end to end
        from splitdecode.langmodel import TransformerOracle

        oracle = TransformerOracle(small_weights)
        prompt = one_span_prompt((3, 9, 27, 4), 2, 1)
        config = ObfuscationConfig(epsilon=2.0, lambda_max=16)
        out = gqs(prompt, (2, 1), config, oracle)
        assert prompt.segment((2, 1)) in out.candidates
        ctx = list(prompt.tokens[:2])
        authentic = prompt.segment((2, 1))
        assert all(
            verify_bound(authentic, c, ctx, config.epsilon, oracle) for c in out.candidates
        )


@pytest.fixture(scope="module")
def date_oracle():
    sequences, vocab = date_category_corpus()
    return train_ngram(sequences, order=2, vocab_size=len(vocab)), vocab


class TestDateCategoryCurve:

    def test_lambda_near_category_size(self, date_oracle):
        oracle, vocab = date_oracle
        prompt = date_prompt(vocab)
        out = gqs(prompt, prompt.spans[0], ObfuscationConfig(epsilon=0.1, lambda_max=512), oracle)
        assert 324 <= len(out.candidates) <= 396

    def test_candidate_count_monotone_in_epsilon(self, date_oracle):
        oracle, vocab = date_oracle
        prompt = date_prompt(vocab)
        sizes = [
            len(gqs(prompt, prompt.spans[0],
                    ObfuscationConfig(epsilon=e, lambda_max=1024), oracle).candidates)
            for e in (0.05, 0.1, 0.5, 1.0)
        ]
        assert sizes == sorted(sizes)

    def test_candidate_count_monotone_in_temperature(self, date_oracle):
        oracle, vocab = date_oracle
        prompt = date_prompt(vocab)
        sizes = [
            len(gqs(prompt, prompt.spans[0],
                    ObfuscationConfig(epsilon=0.1, lambda_max=1024, temperature=t),
                    oracle).candidates)
            for t in (0.5, 1.0, 8.0)
        ]
        assert sizes == sorted(sizes)
        assert sizes[-1] > sizes[0]  # flattening genuinely widens the pool

    def test_soundness_uses_same_temperature_view(self, date_oracle):
        oracle, vocab = date_oracle
        prompt = date_prompt(vocab)
        config = ObfuscationConfig(epsilon=0.1, lambda_max=64, temperature=2.0)
        out = gqs(prompt, prompt.spans[0], config, oracle)
        view = tempered(oracle, 2.0)
        ctx = list(prompt.tokens[:2])
        authentic = prompt.segment(prompt.spans[0])
        assert all(
            verify_bound(authentic, c, ctx, config.epsilon, view) for c in out.candidates
        )


# blake2b-16 of every candidate tuple and virtual prompt set below. gqs
# returns its pool in the order it ranked it, so any change to the ranking,
# the pruning or where the authentic candidate lands moves this digest
DECOY_PIPELINE_DIGEST = "9a6c6757808e5aed7e7d90d8281519bd"


def test_decoy_pipeline_pinned(date_oracle):
    oracle, vocab = date_oracle
    zipf = train_ngram(zipf_corpus(5, 8, n_sequences=60), order=2, vocab_size=8)
    zipf_prompts = [TaggedPrompt(tokens=(3, 1, 4, 1, 5, 2, 6, 5), spans=spans)
                    for spans in (((2, 2),), ((1, 1), (4, 3)))]
    cases = [(date_prompt(vocab, word), oracle, eps, lmax, temp)
             for word in ("d123", "d018")
             for eps in (0.05, 0.1, 0.5, 1.0)
             for lmax in (1, 2, 3, 8, 64)
             for temp in (1.0, 2.0)]
    cases += [(prompt, zipf, eps, lmax, temp)
              for prompt in zipf_prompts
              for eps in (0.3, 2.0)
              for lmax in (1, 2, 4, 11)
              for temp in (0.7, 2.0)]
    digest = hashlib.blake2b(digest_size=16)
    for session, (prompt, orc, eps, lmax, temp) in enumerate(cases):
        config = ObfuscationConfig(epsilon=eps, lambda_max=lmax, temperature=temp, prf_key=b"pin")
        sets = multi_segment_gqs(prompt, config, orc)
        vps = build_virtual_prompts(prompt, sets, config, session_id=session)
        digest.update(repr(([fs.candidates for fs in sets], vps.prompts, vps.idx)).encode())
    assert len(cases) == 112
    assert digest.hexdigest() == DECOY_PIPELINE_DIGEST
