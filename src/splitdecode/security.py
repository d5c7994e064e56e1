"""Executable security analysis: prompt-authenticity measurement, oracle
distance, closed-form attack-success bounds, and the Monte Carlo
adversary that checks them.

The adversary model: it obtains eta of the lambda+1 prompts as a uniform
subset, then guesses among them proportionally to a reference
distribution P. Success means naming the authentic prompt. With P known
and the oracle gap delta measured exactly over an enumerable prompt set,
the empirical success rate must land inside the closed-form bounds up to
sampling noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .langmodel import ProbOracle, seq_logprob
from .numerics import philox_rng
from .obfuscation import VirtualPromptSet

__all__ = [
    "AdversaryResult",
    "AuthenticityReport",
    "authenticity_C",
    "estimate_delta",
    "monte_carlo_success",
    "success_bounds",
    "wilson_interval",
]

WILSON_Z = 1.959963984540054  # two-sided 95%


@dataclass(frozen=True)
class AuthenticityReport:
    """Worst-case probability ratio C between decoys and the authentic
    prompt, with all per-prompt ratios."""

    C: float
    ratios: tuple

    def __post_init__(self):
        if self.C < 1.0:
            raise ValueError("C must be >= 1")


def authenticity_C(P: ProbOracle, prompts: VirtualPromptSet) -> AuthenticityReport:
    """Minimal C >= 1 with 1/C <= P(S_i)/P(S_0) <= C over all decoys.

    Computed in log space; a zero-probability prompt is rejected before it
    can silently produce an infinite ratio.
    """
    logp = []
    for prompt in prompts.prompts:
        lp = seq_logprob(P, list(prompt))
        if not math.isfinite(lp):
            raise ValueError("prompt has zero probability under P")
        logp.append(lp)
    lp0 = logp[prompts.idx]
    ratios = tuple(
        math.exp(lp - lp0) for i, lp in enumerate(logp) if i != prompts.idx
    )
    worst = max((abs(lp - lp0) for i, lp in enumerate(logp) if i != prompts.idx), default=0.0)
    return AuthenticityReport(C=math.exp(worst), ratios=ratios)


def estimate_delta(P: ProbOracle, LM: ProbOracle, prompt_set) -> float:
    """Max |ln P(S) - ln LM(S)| over the enumerable evaluation set."""
    worst = 0.0
    for prompt in prompt_set:
        prompt = list(prompt)
        gap = abs(seq_logprob(P, prompt) - seq_logprob(LM, prompt))
        worst = max(worst, gap)
    return worst


def success_bounds(eta: int, lam: int, epsilon: float, delta: float) -> tuple[float, float]:
    """Closed-form lower/upper attack-success probabilities.

    lower = eta/(lam+1) * 1/(1 + (eta-1) e^(eps+2 delta)) and the upper
    bound mirrors it with the exponent negated. eta=1 collapses both to
    1/(lam+1): pure random guessing.
    """
    if not 1 <= eta <= lam + 1:
        raise ValueError(f"eta must be in [1, {lam + 1}]")
    if epsilon < 0 or delta < 0:
        raise ValueError("epsilon and delta must be >= 0")
    inclusion = eta / (lam + 1)
    spread = math.exp(epsilon + 2 * delta)
    lower = inclusion / (1 + (eta - 1) * spread)
    upper = inclusion / (1 + (eta - 1) / spread)
    return lower, upper


def _prompt_weights(P: ProbOracle, prompts: VirtualPromptSet) -> np.ndarray:
    logp = np.array([seq_logprob(P, list(p)) for p in prompts.prompts])
    return np.exp(logp - logp.max())


@dataclass(frozen=True)
class AdversaryResult:
    eta: int
    lam: int
    epsilon: float
    delta: float
    rate: float
    ci_lo: float
    ci_hi: float
    bound_lo: float
    bound_hi: float
    trials: int

    def __post_init__(self):
        if self.bound_lo > self.bound_hi:
            raise ValueError("bounds out of order")
        if not 0 <= self.rate <= 1:
            raise ValueError("rate must be a probability")


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z) -> tuple[float, float]:
    if trials < 1:
        raise ValueError("trials must be >= 1")
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def monte_carlo_success(
    P: ProbOracle,
    prompts: VirtualPromptSet,
    eta: int,
    trials: int,
    seed: int,
    epsilon: float = 0.0,
    delta: float = 0.0,
) -> AdversaryResult:
    """Run the attack trials times: each trial obtains a uniform eta-subset
    of the lambda+1 prompts and guesses within it proportionally to P. The
    success rate comes with its Wilson interval and the closed-form bounds
    attached. Deterministic given the seed."""
    n = len(prompts.prompts)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 1 <= eta <= n:
        raise ValueError(f"eta must be in [1, {n}]")
    rng = philox_rng(seed)
    weights = _prompt_weights(P, prompts)

    # uniform eta-subsets: the first eta slots of independent permutations
    order = np.argsort(rng.random((trials, n)), axis=1)[:, :eta]
    w = weights[order]
    cdf = np.cumsum(w, axis=1)
    draws = rng.random(trials) * cdf[:, -1]
    picked = order[np.arange(trials), np.argmax(draws[:, None] < cdf, axis=1)]
    successes = int(np.sum(picked == prompts.idx))

    rate = successes / trials
    ci_lo, ci_hi = wilson_interval(successes, trials)
    bound_lo, bound_hi = success_bounds(eta, prompts.lam, epsilon, delta)
    return AdversaryResult(
        eta=eta,
        lam=prompts.lam,
        epsilon=epsilon,
        delta=delta,
        rate=rate,
        ci_lo=ci_lo,
        ci_hi=ci_hi,
        bound_lo=bound_lo,
        bound_hi=bound_hi,
        trials=trials,
    )
