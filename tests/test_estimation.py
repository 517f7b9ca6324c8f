"""Uniform sampling, empirical plug-in problems, and finite-sample bounds."""
import math

import numpy as np
import pytest

from irlse import (
    ConstraintMode,
    Dataset,
    ExpertSpec,
    GenerativeModel,
    IrlSeProblem,
    MdpNoReward,
    Policy,
    complexity_constants,
    concentration_radii,
    empirical_problem,
    error_bound,
    error_bound_for,
    example_fig1,
    min_max_probability,
    random_problem,
    required_m,
    support_min_probability,
    us_irl_se,
    validity_thresholds,
)
from oracles import without_expert


@pytest.fixture
def truth():
    return random_problem(3, 2, 1, 0.8, seed=0)


class TestSampling:
    def test_counts_exact(self, truth):
        model = GenerativeModel(truth, seed=1)
        _, ds = us_irl_se(model, 37)
        assert np.all(ds.pair_counts() == 37)
        # each expert contributes one action per query at each visited state
        assert np.all(ds.state_counts() == 37 * truth.num_actions)
        assert np.all(ds.action_counts.sum(axis=2) == 37 * truth.num_actions)

    def test_determinism(self, truth):
        e1, d1 = us_irl_se(GenerativeModel(truth, seed=9), 50)
        e2, d2 = us_irl_se(GenerativeModel(truth, seed=9), 50)
        assert np.array_equal(d1.transition_counts, d2.transition_counts)
        assert np.array_equal(d1.action_counts, d2.action_counts)
        assert np.array_equal(e1.mdp.transition, e2.mdp.transition)

    def test_seeds_differ(self, truth):
        _, d1 = us_irl_se(GenerativeModel(truth, seed=1), 200)
        _, d2 = us_irl_se(GenerativeModel(truth, seed=2), 200)
        assert not np.array_equal(d1.transition_counts, d2.transition_counts)

    def test_empirical_frequencies_converge(self, truth):
        model = GenerativeModel(truth, seed=3)
        emp, _ = us_irl_se(model, 40_000)
        assert np.max(np.abs(emp.mdp.transition - truth.mdp.transition)) < 0.02
        assert np.max(np.abs(emp.optimal_policy.probs
                             - truth.optimal_policy.probs)) < 0.02
        for got, want in zip(emp.experts, truth.experts):
            assert np.max(np.abs(got.policy.probs - want.policy.probs)) < 0.02
            assert got.xi == want.xi and got.mode == want.mode

    def test_zero_count_fallbacks(self, truth):
        S, A, n = truth.num_states, truth.num_actions, truth.num_experts
        ds = Dataset(np.zeros((S, A, S), dtype=np.int64),
                     np.zeros((n + 1, S, A), dtype=np.int64))
        emp = empirical_problem(ds, truth)
        assert np.all(emp.mdp.transition == 1.0 / truth.num_states)
        assert np.all(emp.optimal_policy.probs == 1.0 / truth.num_actions)

    def test_count_moments(self, truth):
        # m queries at (s, a) give Mult(m, p(.|s, a)) next-state counts; the
        # A*m queries at s give Mult(A*m, pi_i(.|s)) action counts per expert
        m, seeds = 20, 2000
        draws = [us_irl_se(GenerativeModel(truth, seed), m)[1] for seed in range(seeds)]
        policies = np.stack([truth.optimal_policy.probs]
                            + [ex.policy.probs for ex in truth.experts])
        for counts, n, p in (
                (np.stack([d.transition_counts for d in draws]), m, truth.mdp.transition),
                (np.stack([d.action_counts for d in draws]), truth.num_actions * m,
                 policies)):
            want_var = n * p * (1.0 - p)
            err = np.abs(counts.mean(axis=0) - n * p)
            assert np.all(err <= 4.0 * np.sqrt(want_var / seeds) + 1e-12)
            wide = want_var >= 1.0
            assert wide.any()
            ratio = counts.var(axis=0, ddof=1)[wide] / want_var[wide]
            assert np.all(np.abs(ratio - 1.0) <= 0.15)

    def test_huge_m_draws_counts_only(self):
        truth = example_fig1()
        _, ds = us_irl_se(GenerativeModel(truth, 0), 2 ** 60)
        assert np.all(ds.pair_counts() == 2 ** 60)
        assert np.all(ds.action_counts.sum(axis=2) == truth.num_actions * 2 ** 60)

    def test_oversized_m_raises(self):
        truth = example_fig1()  # A = 2
        with pytest.raises(ValueError, match="64-bit"):
            us_irl_se(GenerativeModel(truth, 0), 2 ** 62)

    def test_rows_summing_slightly_above_one(self):
        row = [1.0 + 9e-13, 0.0]
        mdp = MdpNoReward(2, 2, np.array([[row, row], [row, row]]), 0.9)
        policy = Policy(np.array([row, row]))
        truth = IrlSeProblem(mdp, policy, (ExpertSpec(policy, 0.5, ConstraintMode.UPPER),))
        _, ds = us_irl_se(GenerativeModel(truth, 0), 30)
        assert np.all(ds.transition_counts[:, :, 0] == 30)
        assert np.all(ds.action_counts[:, :, 0] == 60)


class TestPiMin:
    def test_variants_on_fig1(self):
        problem = example_fig1(0.9, 0.5)
        assert support_min_probability(problem) == 1.0
        assert min_max_probability(problem) == 1.0

    def test_variants_differ_on_mixtures(self, truth):
        support = support_min_probability(truth)
        minmax = min_max_probability(truth)
        assert 0 < support <= minmax <= 1.0

    def test_undefined_without_experts(self, truth):
        single = without_expert(truth, 0)
        with pytest.raises(ValueError):
            support_min_probability(single)

    def test_complexity_constants(self, truth):
        consts = complexity_constants(truth)
        horizon = 1.0 / (1.0 - truth.mdp.discount)
        max_xi = max(ex.xi for ex in truth.experts)
        assert consts.q0 == pytest.approx(max_xi / consts.pi_min_support)
        assert consts.q1 == pytest.approx(min(consts.q0, horizon))
        assert consts.q2 == pytest.approx(max(1.0, consts.q1))

    def test_constants_degenerate_without_experts(self, truth):
        consts = complexity_constants(without_expert(truth, 0))
        assert consts.pi_min_support is None
        assert math.isinf(consts.q0)
        assert consts.q1 == pytest.approx(5.0)


def radii_oracle(t, S, A, n, delta, pi_min):
    """Independent re-implementation of the three radii, written from the
    closed forms with no shared code."""
    L = math.log(3 * S * A * n / delta)
    beta = math.sqrt((L + (S - 1) * math.log(math.e * (1 + t / (S - 1)))) / t)
    alpha = math.sqrt((L + (A - 1) * math.log(math.e * (1 + (t * A) / (A - 1)))) / (t * A))
    rho = math.sqrt(3 * L / (pi_min * t * A))
    return beta, alpha, rho


class TestBounds:
    TUPLES = [
        (10, 2, 2, 1, 0.1, 0.5),
        (100, 3, 2, 1, 0.05, 0.25),
        (1000, 4, 3, 2, 0.01, 0.1),
        (64, 2, 2, 1, 0.2, 0.9),
        (7, 5, 4, 3, 0.5, 0.05),
        (12345, 6, 2, 1, 0.001, 0.33),
        (2, 3, 3, 2, 0.25, 0.75),
        (500, 2, 4, 4, 0.02, 0.2),
        (32, 8, 2, 1, 0.15, 0.4),
        (99, 3, 5, 2, 0.07, 0.6),
    ]

    @pytest.mark.parametrize("t,S,A,n,delta,pi_min", TUPLES)
    def test_radii_match_oracle(self, t, S, A, n, delta, pi_min):
        got = concentration_radii(t, S, A, n, delta, pi_min)
        beta, alpha, rho = radii_oracle(t, S, A, n, delta, pi_min)
        assert got.beta == pytest.approx(beta, rel=1e-12)
        assert got.alpha == pytest.approx(alpha, rel=1e-12)
        assert got.rho == pytest.approx(rho, rel=1e-12)

    @pytest.mark.parametrize("t,S,A,n,delta,pi_min", TUPLES)
    def test_error_bound_assembly(self, t, S, A, n, delta, pi_min):
        gamma, max_xi = 0.9, 0.3
        beta, alpha, rho = radii_oracle(t, S, A, n, delta, pi_min)
        lead = 2.0 * math.sqrt(2.0) * gamma / (1.0 - gamma)
        q1 = min(max_xi / pi_min, 1.0 / (1.0 - gamma))
        want = lead * beta + (rho + lead * (alpha + beta)) * q1
        got = error_bound(t, S, A, n, delta, gamma, pi_min, max_xi)
        assert got.value == pytest.approx(want, rel=1e-12)

    def test_bound_monotone_in_t(self):
        values = [error_bound(t, 3, 2, 1, 0.1, 0.9, 0.3, 0.4).value
                  for t in (1, 2, 4, 8, 16, 64, 256, 4096)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_validity_thresholds_formulas(self):
        S, A, n, delta, gamma, pi_min = 2, 2, 1, 0.05, 0.1, 0.3
        L = math.log(3 * S * A * n / delta)
        t_pi, t_s, t_a = validity_thresholds(S, A, n, delta, gamma, pi_min)
        assert t_pi == pytest.approx(3 * L / (A * pi_min), rel=1e-12)
        pref = 8 * gamma ** 2 / (1 - gamma) ** 2
        inner = 64 * gamma ** 4 / (1 - gamma) ** 4 * (
            L + (S - 1) * (math.sqrt(math.e) + 1.0) ** 2)
        assert t_s == pytest.approx(pref * (L + (S - 1) * math.log(inner)), rel=1e-12)

    def test_validity_flag(self):
        # gamma = 0.1: thresholds are tiny, so moderate t is valid
        assert error_bound(64, 2, 2, 1, 0.05, 0.1, 0.3, 0.2).valid
        # gamma = 0.9: thresholds are astronomically large
        assert not error_bound(1000, 3, 2, 1, 0.1, 0.9, 0.3, 0.4).valid

    def test_required_m_is_minimal(self):
        eps, delta = 0.5, 0.1
        m = required_m(eps, delta, 2, 2, 1, 0.1, 0.3, 0.2)
        good = error_bound(m, 2, 2, 1, delta, 0.1, 0.3, 0.2)
        assert good.valid and good.value <= eps
        below = error_bound(m - 1, 2, 2, 1, delta, 0.1, 0.3, 0.2)
        assert (not below.valid) or below.value > eps

    def test_error_bound_for_uses_problem_constants(self, truth):
        got = error_bound_for(truth, 50, 0.1)
        pi_min = support_min_probability(truth)
        max_xi = max(ex.xi for ex in truth.experts)
        want = error_bound(50, 3, 2, 1, 0.1, 0.8, pi_min, max_xi)
        assert got.value == want.value and got.valid == want.valid

    def test_input_validation(self):
        with pytest.raises(ValueError):
            concentration_radii(0, 2, 2, 1, 0.1, 0.5)
        with pytest.raises(ValueError):
            concentration_radii(10, 2, 2, 0, 0.1, 0.5)
        with pytest.raises(ValueError):
            required_m(1.5, 0.1, 2, 2, 1, 0.5, 0.3, 0.2)


class TestGoodEvent:
    def test_bound_dominates_estimation_error(self):
        """At gamma = 0.1 the validity thresholds are cleared by t = 64; the
        high-probability bound should dominate the realized transition and
        policy errors far more often than 1 - delta."""
        truth = random_problem(2, 2, 1, 0.1, seed=12)
        delta = 0.2
        pi_min = support_min_probability(truth)
        thresholds = validity_thresholds(2, 2, 1, delta, 0.1, pi_min)
        t = int(max(thresholds)) + 1
        bound = error_bound_for(truth, t, delta)
        assert bound.valid
        hits = 0
        trials = 25
        for seed in range(trials):
            emp, _ = us_irl_se(GenerativeModel(truth, seed=seed), t)
            err = max(
                np.max(np.abs(emp.mdp.transition - truth.mdp.transition)),
                np.max(np.abs(emp.experts[0].policy.probs
                              - truth.experts[0].policy.probs)),
            )
            if err <= bound.value:
                hits += 1
        assert hits >= int((1 - delta) * trials)
