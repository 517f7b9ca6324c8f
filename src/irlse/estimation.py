"""Generative-model sampling, the uniform-sampling estimator, and its
theoretical error machinery: concentration radii, high-probability error
bound, and the required per-pair sample size.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .feasible import ExpertSpec, IrlSeProblem
from .mdp import MdpNoReward, Policy

SQRT8 = 2.0 * math.sqrt(2.0)


@dataclass
class Dataset:
    """Transition and per-expert action counts gathered from the generative model.

    transition_counts[s, a, s'] counts environment samples; action_counts[i, s, a]
    counts draws from expert i's policy at state s (i = 0 is the optimal expert).
    """

    transition_counts: np.ndarray  # (S, A, S) int64
    action_counts: np.ndarray  # (n+1, S, A) int64

    def pair_counts(self) -> np.ndarray:
        """N(s, a) = total environment samples at each pair."""
        return self.transition_counts.sum(axis=2)

    def state_counts(self) -> np.ndarray:
        """N(s) = total queries issued at state s (summed over actions)."""
        return self.transition_counts.sum(axis=(1, 2))


class GenerativeModel:
    """Seeded oracle over a true problem: a query at (s, a) returns one next
    state and one action per expert policy (optimal expert first).

    The sampler draws only the counts of a batch of queries, as multinomials
    from the stored rows, so a fixed seed reproduces the counts exactly.
    """

    def __init__(self, truth: IrlSeProblem, seed: int):
        self.truth = truth
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)


def empirical_problem(dataset: Dataset, truth: IrlSeProblem) -> IrlSeProblem:
    """Plug-in problem from counts: ratio estimates with uniform fallbacks
    (1/S for unseen pairs, 1/A for unvisited states); xi and modes copied."""
    S, A = truth.num_states, truth.num_actions
    pair = dataset.pair_counts().astype(float)  # (S, A)
    with np.errstate(invalid="ignore", divide="ignore"):
        p_hat = dataset.transition_counts / pair[:, :, None]
    p_hat = np.where(pair[:, :, None] > 0, p_hat, 1.0 / S)
    state = dataset.state_counts().astype(float)  # (S,)
    with np.errstate(invalid="ignore", divide="ignore"):
        pi_hat = dataset.action_counts / state[None, :, None]
    pi_hat = np.where(state[None, :, None] > 0, pi_hat, 1.0 / A)
    mdp_hat = MdpNoReward(S, A, p_hat, truth.mdp.discount)
    optimal_hat = Policy(pi_hat[0])
    experts_hat = tuple(
        ExpertSpec(Policy(pi_hat[i + 1]), ex.xi, ex.mode)
        for i, ex in enumerate(truth.experts)
    )
    return IrlSeProblem(mdp_hat, optimal_hat, experts_hat)


def _unit_rows(probs: np.ndarray) -> np.ndarray:
    """Rows rescaled to sum to 1: the problem accepts sums of 1 +- 1e-12,
    the multinomial no entry above 1."""
    return probs / probs.sum(axis=-1, keepdims=True)


def us_irl_se(model: GenerativeModel, m: int):
    """Uniform sampling: exactly m queries at every (s, a); returns the
    plug-in problem and the dataset.

    Only counts enter the plug-in problem, so they are drawn directly:
    N(s, a, .) ~ Mult(m, p(.|s, a)) and, since each state is queried A*m
    times, N_i(s, .) ~ Mult(A*m, pi_i(.|s)). The cost does not grow with m.
    """
    m = operator.index(m)
    truth = model.truth
    A = truth.num_actions
    if m < 0:
        raise ValueError("sample count m must be non-negative")
    if A * m >= 2 ** 63:
        raise ValueError(f"sample count m={m} is too large: {A} * m counts "
                         "per state do not fit in 64-bit integers")
    policies = np.stack([truth.optimal_policy.probs]
                        + [ex.policy.probs for ex in truth.experts])
    dataset = Dataset(model._rng.multinomial(m, _unit_rows(truth.mdp.transition)),
                      model._rng.multinomial(A * m, _unit_rows(policies)))
    return empirical_problem(dataset, truth), dataset


def support_min_probability(problem: IrlSeProblem) -> float:
    """Smallest positive action probability over all sub-optimal experts."""
    if problem.num_experts == 0:
        raise ValueError("pi_min is undefined without sub-optimal experts")
    return min(
        float(ex.policy.probs[ex.policy.support_mask()].min()) for ex in problem.experts
    )


def min_max_probability(problem: IrlSeProblem) -> float:
    """Per-expert maximum supported probability, minimized over experts
    (the reporting variant; the bounds use support_min_probability)."""
    if problem.num_experts == 0:
        raise ValueError("pi_min is undefined without sub-optimal experts")
    return min(float(ex.policy.probs.max()) for ex in problem.experts)


@dataclass(frozen=True)
class ComplexityConstants:
    pi_min_support: float | None
    pi_min_minmax: float | None
    q0: float
    q1: float
    q2: float


def complexity_constants(problem: IrlSeProblem) -> ComplexityConstants:
    """q-constants entering the sample-complexity bounds.

    Uses the support-minimum pi_min variant for q0/q1/q2; the min-max variant
    is reported alongside. Without sub-optimal experts the constants
    degenerate to the single-agent regime (q0 infinite, q1 the horizon).
    """
    horizon = 1.0 / (1.0 - problem.mdp.discount)
    if problem.num_experts == 0:
        return ComplexityConstants(None, None, math.inf, horizon, max(1.0, horizon))
    pi_min = support_min_probability(problem)
    max_xi = max(ex.xi for ex in problem.experts)
    q0 = max_xi / pi_min
    q1 = min(q0, horizon)
    return ComplexityConstants(pi_min, min_max_probability(problem), q0, q1, max(1.0, q1))


@dataclass(frozen=True)
class ConcentrationRadii:
    beta: float
    alpha: float
    rho: float
    t: int
    log_term: float  # log(3 S A n / delta)


def concentration_radii(t: int, S: int, A: int, n: int, delta: float,
                        pi_min: float) -> ConcentrationRadii:
    """The three high-probability radii at iteration t of the uniform sampler."""
    if t < 1:
        raise ValueError("t must be at least 1")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    if not (0.0 < pi_min <= 1.0):
        raise ValueError("pi_min must lie in (0, 1]")
    if n < 1:
        raise ValueError("the radii are defined for n >= 1 sub-optimal experts")
    log_term = math.log(3.0 * S * A * n / delta)
    beta = math.sqrt((log_term + (S - 1) * math.log(math.e * (1.0 + t / (S - 1)))) / t) \
        if S > 1 else math.sqrt(log_term / t)
    ta = t * A
    alpha = math.sqrt((log_term + (A - 1) * math.log(math.e * (1.0 + ta / (A - 1)))) / ta) \
        if A > 1 else math.sqrt(log_term / ta)
    rho = math.sqrt(3.0 * log_term / (pi_min * ta))
    return ConcentrationRadii(beta, alpha, rho, t, log_term)


def _log_bracket(log_term: float, y: int, gamma: float) -> float:
    """Shared bracket of the t-validity thresholds for a simplex of size y."""
    inner = 64.0 * gamma ** 4 / (1.0 - gamma) ** 4 * (
        log_term + (y - 1) * (math.sqrt(math.e) + math.sqrt(1.0 / (y - 1))) ** 2
    )
    return log_term + (y - 1) * math.log(inner)


def validity_thresholds(S: int, A: int, n: int, delta: float, gamma: float,
                        pi_min: float):
    """Minimum t for the error-bound derivation to apply: the pi_min
    coverage threshold and the S- and A-simplex thresholds."""
    log_term = math.log(3.0 * S * A * n / delta)
    t_pi = 3.0 * log_term / (A * pi_min)
    pref = 8.0 * gamma ** 2 / (1.0 - gamma) ** 2
    t_s = pref * _log_bracket(log_term, S, gamma) if (S > 1 and gamma > 0) else (
        pref * log_term if gamma > 0 else 0.0)
    t_a = (pref / A) * _log_bracket(log_term, A, gamma) if (A > 1 and gamma > 0) else (
        (pref / A) * log_term if gamma > 0 else 0.0)
    return t_pi, t_s, t_a


@dataclass(frozen=True)
class ErrorBound:
    value: float
    valid: bool  # whether t clears the validity thresholds
    radii: ConcentrationRadii


def error_bound(t: int, S: int, A: int, n: int, delta: float, gamma: float,
                pi_min: float, max_xi: float) -> ErrorBound:
    """High-probability Hausdorff error bound of the uniform sampler at
    iteration t; flagged not-yet-valid below the t validity thresholds."""
    radii = concentration_radii(t, S, A, n, delta, pi_min)
    q1 = min(max_xi / pi_min, 1.0 / (1.0 - gamma))
    lead = SQRT8 * gamma / (1.0 - gamma)
    value = lead * radii.beta + (radii.rho + lead * (radii.alpha + radii.beta)) * q1
    t_pi, t_s, t_a = validity_thresholds(S, A, n, delta, gamma, pi_min)
    valid = t >= max(t_pi, t_s, t_a)
    return ErrorBound(value, valid, radii)


def error_bound_for(problem: IrlSeProblem, t: int, delta: float) -> ErrorBound:
    pi_min = support_min_probability(problem)
    max_xi = max(ex.xi for ex in problem.experts)
    return error_bound(t, problem.num_states, problem.num_actions,
                       problem.num_experts, delta, problem.mdp.discount,
                       pi_min, max_xi)


def required_m(epsilon: float, delta: float, S: int, A: int, n: int,
               gamma: float, pi_min: float, max_xi: float) -> int:
    """Smallest per-pair sample count m whose error bound is valid and <= epsilon.

    The bound is monotone decreasing in t, so exponential doubling followed
    by binary search finds the exact minimum. The total query budget is
    m * S * A.
    """
    if not (0.0 < epsilon < 1.0) or not (0.0 < delta < 1.0):
        raise ValueError("epsilon and delta must lie in (0, 1)")

    def good(t: int) -> bool:
        b = error_bound(t, S, A, n, delta, gamma, pi_min, max_xi)
        return b.valid and b.value <= epsilon

    hi = 1
    while not good(hi):
        hi *= 2
        if hi > 2 ** 62:
            raise RuntimeError("required sample size search overflowed")
    lo = hi // 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if good(mid):
            hi = mid
        else:
            lo = mid
    return hi
