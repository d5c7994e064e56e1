import math
from dataclasses import dataclass

import pytest

from splitdecode.corpora import date_category_corpus, date_prompt, zipf_corpus
from splitdecode.langmodel import NgramModel, train_ngram
from splitdecode.obfuscation import (
    ObfuscationConfig,
    VirtualPromptSet,
    build_virtual_prompts,
    gqs,
)
from splitdecode.security import (
    AdversaryResult,
    authenticity_C,
    estimate_delta,
    monte_carlo_success,
    success_bounds,
    wilson_interval,
)

from conftest import rng


@dataclass
class ShiftedOracle:
    """Wraps a base oracle, multiplying one token's probability by
    exp(shift) at one context and compensating on a donor token."""

    base: object
    context: tuple
    token: int
    donor: int
    shift: float

    @property
    def vocab_size(self):
        return self.base.vocab_size

    def next_dist(self, context):
        dist = self.base.next_dist(context).copy()
        context = tuple(context)
        if context[-len(self.context):] == self.context:
            moved = dist[self.token] * (math.exp(self.shift) - 1.0)
            dist[self.token] += moved
            dist[self.donor] -= moved
        return dist


def uniform_prompt_set(lam=3, length=2):
    prompts = tuple(tuple([i] * length) for i in range(lam + 1))
    return VirtualPromptSet(prompts=prompts, idx=1)


class TestAuthenticity:
    def test_equiprobable_prompts_give_one(self):
        oracle = NgramModel(order=1, vocab_size=8)
        report = authenticity_C(oracle, uniform_prompt_set())
        assert report.C == pytest.approx(1.0, abs=1e-12)
        assert all(r == pytest.approx(1.0, abs=1e-12) for r in report.ratios)

    def test_double_probability_gives_two(self):
        # single-token prompts with P = [1/2, 1/4, 1/4, 0...] via counts
        oracle = train_ngram([[0, 0, 1, 2]], order=1, smoothing=1e-9, vocab_size=4)
        vps = VirtualPromptSet(prompts=((0,), (1,)), idx=1)
        report = authenticity_C(oracle, vps)
        assert report.C == pytest.approx(2.0, rel=1e-6)

    def test_gqs_prompts_bounded_by_exp_epsilon(self):
        sequences, vocab = date_category_corpus()
        oracle = train_ngram(sequences, order=2, vocab_size=len(vocab))
        prompt = date_prompt(vocab)
        epsilon = 0.1
        config = ObfuscationConfig(epsilon=epsilon, lambda_max=512, prf_key=b"c")
        fakes = gqs(prompt, prompt.spans[0], config, oracle)
        vps = build_virtual_prompts(prompt, [fakes], config, session_id=3)
        # P = LM here, so delta = 0 and authenticity is bounded by e^eps
        report = authenticity_C(oracle, vps)
        assert report.C <= math.exp(epsilon) * (1 + 1e-9)


class TestEstimateDelta:
    def base(self):
        return train_ngram(zipf_corpus(17, vocab_size=8), order=2, vocab_size=8)

    def test_identical_oracles_give_zero(self):
        oracle = self.base()
        prompts = [[0, 1], [2, 3, 4], [5]]
        assert estimate_delta(oracle, oracle, prompts) == 0.0

    def test_known_shift_recovered_exactly(self):
        base = self.base()
        shifted = ShiftedOracle(base, context=(1,), token=2, donor=3, shift=0.1)
        # prompts ending in the shifted (context, token) pair see exactly 0.1
        prompts = [[1, 2], [0, 1, 2]]
        delta = estimate_delta(shifted, base, prompts)
        assert delta == pytest.approx(0.1, abs=1e-12)

    def test_monotone_in_shift(self):
        base = self.base()
        prompts = [[1, 2], [1, 3]]
        deltas = [
            estimate_delta(
                ShiftedOracle(base, (1,), 2, 3, s), base, prompts
            )
            for s in (0.05, 0.1, 0.2)
        ]
        assert deltas == sorted(deltas)


class TestSuccessBounds:
    def test_eta_one_is_random_guessing(self):
        lo, hi = success_bounds(1, 7, 0.3, 0.2)
        assert lo == hi == pytest.approx(1 / 8)

    def test_zero_gap_all_prompts(self):
        lo, hi = success_bounds(4, 3, 0.0, 0.0)
        assert lo == pytest.approx(1 / 4)
        assert hi == pytest.approx(1 / 4)

    def test_hand_computed_case(self):
        lo, hi = success_bounds(2, 1, math.log(2), 0.0)
        assert lo == pytest.approx(1 / 3)
        assert hi == pytest.approx(2 / 3)

    def test_monotone_nonincreasing_in_lambda(self):
        values = [success_bounds(2, lam, 0.1, 0.05) for lam in (1, 3, 7, 15)]
        los = [v[0] for v in values]
        his = [v[1] for v in values]
        assert los == sorted(los, reverse=True)
        assert his == sorted(his, reverse=True)

    def test_eta_out_of_range(self):
        with pytest.raises(ValueError):
            success_bounds(0, 3, 0.1, 0.0)
        with pytest.raises(ValueError):
            success_bounds(5, 3, 0.1, 0.0)

    def test_lower_never_exceeds_upper(self):
        g = rng(1)
        for _ in range(200):
            lam = int(g.integers(0, 16))
            eta = int(g.integers(1, lam + 2))
            lo, hi = success_bounds(eta, lam, float(g.random()), float(g.random()))
            assert lo <= hi + 1e-15


class TestAdversary:
    def test_trial_uniform_all_prompts(self):
        # all four prompts of a uniform set obtained: the guess is chance
        oracle = NgramModel(order=1, vocab_size=8)
        vps = uniform_prompt_set(lam=3)
        result = monte_carlo_success(oracle, vps, eta=4, trials=4000, seed=5)
        p = 1 / 4
        assert abs(result.rate - p) <= 3 * math.sqrt(p * (1 - p) / 4000)

    def test_trial_eta_out_of_range(self):
        oracle = NgramModel(order=1, vocab_size=8)
        with pytest.raises(ValueError):
            monte_carlo_success(oracle, uniform_prompt_set(lam=1), eta=3, trials=10, seed=0)

    def test_monte_carlo_deterministic(self):
        oracle = NgramModel(order=1, vocab_size=8)
        vps = uniform_prompt_set(lam=3)
        a = monte_carlo_success(oracle, vps, eta=2, trials=5000, seed=11)
        b = monte_carlo_success(oracle, vps, eta=2, trials=5000, seed=11)
        assert a == b

    def test_eta_one_ci_contains_chance(self):
        oracle = NgramModel(order=1, vocab_size=8)
        vps = uniform_prompt_set(lam=7)
        result = monte_carlo_success(oracle, vps, eta=1, trials=30000, seed=2)
        assert result.ci_lo <= 1 / 8 <= result.ci_hi

    def test_gqs_prompts_land_between_bounds(self):
        oracle = train_ngram(zipf_corpus(23, vocab_size=10), order=2, vocab_size=10)
        from splitdecode.obfuscation import TaggedPrompt

        prompt = TaggedPrompt(tokens=(1, 0, 2, 4), spans=((2, 1),))
        epsilon = 1.5
        config = ObfuscationConfig(epsilon=epsilon, lambda_max=4, prf_key=b"mc")
        fakes = gqs(prompt, prompt.spans[0], config, oracle)
        vps = build_virtual_prompts(prompt, [fakes], config, session_id=8)
        delta = 0.0  # the adversary's P is the sampling oracle itself
        for eta in (1, 2, vps.lam + 1):
            r = monte_carlo_success(
                oracle, vps, eta=eta, trials=30000, seed=eta, epsilon=epsilon, delta=delta
            )
            sigma = math.sqrt(max(r.rate * (1 - r.rate), 1e-9) / r.trials)
            assert r.bound_lo - 3 * sigma <= r.rate <= r.bound_hi + 3 * sigma

    def test_result_validation(self):
        with pytest.raises(ValueError):
            AdversaryResult(
                eta=1, lam=1, epsilon=0, delta=0, rate=0.5, ci_lo=0.4, ci_hi=0.6,
                bound_lo=0.7, bound_hi=0.3, trials=10,
            )


class TestReporting:
    def test_wilson_interval_basic(self):
        lo, hi = wilson_interval(50, 100)
        assert lo < 0.5 < hi
        with pytest.raises(ValueError):
            wilson_interval(0, 0)
