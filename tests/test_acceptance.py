"""End-to-end acceptance checks: oracle agreement, closed-form desk-scale
quantities, estimator convergence, and formula fidelity."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irlse import (
    CanonicalParams,
    ConstraintMode,
    GenerativeModel,
    LinearProgram,
    RewardFunction,
    concentration_radii,
    directed_distance,
    enumerate_vertices,
    error_bound,
    error_bound_for,
    example_fig1,
    hausdorff_distance,
    lb_chain,
    lb_subopt,
    lp_solve,
    mask_unsupported,
    membership_implicit,
    params_from_reward,
    polytope_h_rep,
    random_problem,
    required_m,
    reward_from_params,
    us_irl_se,
    validity_thresholds,
    volume_upper_bounds,
    zeta_caps,
)
from oracles import (
    check_zeta_constraints,
    membership_q,
    near_one_discount_problems,
    vertices_by_subsets,
    without_expert,
)

TOL = 1e-8


def constructed_member(problem, rng):
    """A reward built from the canonical parametrization with a zeta small
    enough that every expert load stays below its budget."""
    S, A = problem.num_states, problem.num_actions
    min_xi = min(ex.xi for ex in problem.experts)
    scale = min(0.4, min_xi * (1.0 - problem.mdp.discount))
    zeta = mask_unsupported(problem.optimal_policy,
                            rng.uniform(0, scale, size=(S, A)))
    v = np.full(S, 0.5 / (1.0 - problem.mdp.discount))
    values, in_box = reward_from_params(problem, CanonicalParams(zeta, v))
    assert in_box
    return RewardFunction(np.clip(values, 0.0, 1.0))


@pytest.fixture(scope="module")
def oracle_corpus():
    """20 random problems with 1000 sampled rewards each (950 uniform plus 50
    canonical-parametrization draws so that accepted rewards exist)."""
    rng = np.random.default_rng(2024)
    corpus = []
    for idx in range(20):
        S = int(rng.integers(2, 5))
        A = int(rng.integers(2, 4))
        n = int(rng.integers(1, 3))
        gamma = [0.5, 0.9][idx % 2]
        problem = random_problem(S, A, n, gamma, seed=idx)
        rewards = [RewardFunction(rng.uniform(0, 1, size=(S, A)))
                   for _ in range(950)]
        rewards += [constructed_member(problem, rng) for _ in range(50)]
        corpus.append((problem, rewards))
    return corpus


class TestOracleEquivalence:
    def test_three_way_agreement(self, oracle_corpus):
        for problem, rewards in oracle_corpus:
            poly = polytope_h_rep(problem)
            flat = np.stack([r.values.reshape(-1) for r in rewards])
            poly_flags = poly.contains_many(flat, tol=TOL)
            for r, poly_flag in zip(rewards, poly_flags):
                implicit = bool(membership_implicit(problem, r, tol=TOL))
                q_level = bool(membership_q(problem, r, tol=TOL))
                assert implicit == q_level == bool(poly_flag)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), gamma=st.sampled_from([0.99, 0.999]))
    def test_three_way_agreement_near_one_discount(self, seed, gamma):
        # stochastic optimal policies (equality rows), UPPER/LOWER/EXACT
        # experts; uniform rewards plus up to 6 vertices clipped into the
        # box, which lie on the boundary of the set (vertices need no LP, so
        # the check does not rest on the simplex)
        rng = np.random.default_rng(seed)
        members = 0
        for problem in near_one_discount_problems(seed, gamma, list(ConstraintMode)):
            poly = polytope_h_rep(problem)
            vertices = rng.permutation(vertices_by_subsets(poly.G, poly.h))[:6]
            vecs = np.vstack([rng.uniform(0, 1, size=(50, problem.dim)),
                              np.clip(vertices, 0.0, 1.0)])
            for vec in vecs:
                r = RewardFunction(vec.reshape(problem.num_states, problem.num_actions))
                implicit = bool(membership_implicit(problem, r))
                assert implicit == bool(membership_q(problem, r)) == poly.contains(vec)
                if not implicit:
                    continue
                members += 1
                # the zeta load sums residuals of the optimality conditions
                # over a horizon of 1/(1 - gamma), so its tolerance scales too
                params = params_from_reward(problem, r)
                for verdict in check_zeta_constraints(problem, params.zeta,
                                                      tol=TOL / (1.0 - gamma)):
                    assert verdict.satisfied
        assert members > 0  # the UPPER-mode set always has members


class TestCanonicalRoundTrip:
    def test_accepted_rewards_round_trip(self, oracle_corpus):
        seen_any = False
        for problem, rewards in oracle_corpus:
            for r in rewards:
                if not membership_implicit(problem, r, tol=TOL):
                    continue
                seen_any = True
                params = params_from_reward(problem, r, tol=TOL)
                values, _ = reward_from_params(problem, params)
                assert np.max(np.abs(values - r.values)) < 1e-9
                for verdict in check_zeta_constraints(problem, params.zeta):
                    assert np.all(verdict.slack >= -1e-8)
        assert seen_any


class TestExpertDeletionAndCaps:
    def test_expert_deletion_and_caps(self, oracle_corpus):
        for problem, rewards in oracle_corpus:
            caps = zeta_caps(problem)
            for r in rewards:
                if not membership_implicit(problem, r, tol=TOL):
                    continue
                for i in range(problem.num_experts):
                    assert membership_implicit(without_expert(problem, i), r, tol=TOL)
                params = params_from_reward(problem, r, tol=TOL)
                assert np.all(params.zeta <= caps.g + 1e-8)


class TestClosedFormCrossSection:
    def test_fig1_membership_grid(self):
        problem = example_fig1(0.9, 0.5)
        grid = np.linspace(0.0, 1.0, 21)
        # the grid spacing (0.05) dwarfs the float slack used to evaluate the
        # predicate at the exact boundary points 0 and 0.5
        for x, y in itertools.product(grid, grid):
            r = RewardFunction(np.array([[x, y], [0.0, 0.0]]))
            predicted = -1e-9 <= x - y <= 0.5 + 1e-9
            assert bool(membership_implicit(problem, r)) == predicted, (x, y)


class TestBenchmarkHausdorffGaps:
    def test_subopt_gap(self):
        base = polytope_h_rep(lb_subopt(1, 0.9, 0.1, 0.25, 2.0, None))
        alt = polytope_h_rep(lb_subopt(1, 0.9, 0.1, 0.25, 2.0, 0))
        report = hausdorff_distance(base, alt)
        # half * (xi / pi_min) * (1 - 1/alpha) = 0.1
        assert report.value >= 0.1 - 1e-6

    def test_chain_gap(self):
        base = polytope_h_rep(lb_chain(1, 2, 0.9, 0.05, None))
        alt = polytope_h_rep(lb_chain(1, 2, 0.9, 0.05, (0, 1)))
        report = hausdorff_distance(base, alt)
        assert report.value >= 0.45 - 1e-6

    def test_chain_measured_value_cross_checked(self):
        """The exact distance for the chain pair, cross-checked against an
        independent LP backend: with tilt delta = eps * gamma / (1 - gamma),
        the witness geometry gives delta / (1 + 2 delta)."""
        scipy_opt = pytest.importorskip("scipy.optimize")
        base = polytope_h_rep(lb_chain(1, 2, 0.9, 0.05, None))
        alt = polytope_h_rep(lb_chain(1, 2, 0.9, 0.05, (0, 1)))
        report = hausdorff_distance(base, alt)
        delta = 0.05 * 0.9 / 0.1
        assert report.value == pytest.approx(delta / (1 + 2 * delta), abs=1e-9)

        def scipy_directed(point, poly):
            d = poly.dim
            G = np.vstack([
                np.hstack([poly.G, np.zeros((poly.G.shape[0], 1))]),
                np.hstack([np.eye(d), -np.ones((d, 1))]),
                np.hstack([-np.eye(d), -np.ones((d, 1))]),
            ])
            h = np.concatenate([poly.h, point, -point])
            c = np.zeros(d + 1)
            c[-1] = 1.0
            res = scipy_opt.linprog(c, A_ub=G, b_ub=h,
                                    bounds=[(None, None)] * (d + 1), method="highs")
            assert res.status == 0
            return res.fun

        value = max(
            max(scipy_directed(v, alt) for v in enumerate_vertices(base)),
            max(scipy_directed(v, base) for v in enumerate_vertices(alt)),
        )
        assert report.value == pytest.approx(value, abs=1e-7)


class TestEstimatorConvergence:
    def test_sweep_median_decreases(self):
        problem = random_problem(3, 2, 1, 0.9, seed=0)
        truth_poly = polytope_h_rep(problem)
        delta = 0.1
        t_grid = [10, 100, 1000]
        seeds = range(20)
        estimates = {t: [] for t in t_grid}
        for seed in seeds:
            for t in t_grid:
                emp, dataset = us_irl_se(GenerativeModel(problem, seed=seed), t)
                assert np.all(dataset.pair_counts() == t)
                emp_poly = polytope_h_rep(emp)
                report = hausdorff_distance(truth_poly, emp_poly)
                estimates[t].append(report.value)
        medians = [float(np.median(estimates[t])) for t in t_grid]
        assert medians[0] > medians[1] > medians[2], medians

        # in the valid regime the bound must dominate in >= 18/20 seeds
        for t in t_grid:
            bound = error_bound(
                t, 3, 2, 1, delta, 0.9,
                pi_min=min(float(problem.experts[0].policy.probs[
                    problem.experts[0].policy.support_mask()].min()), 1.0),
                max_xi=problem.experts[0].xi)
            if not bound.valid:
                continue
            hits = sum(est <= bound.value for est in estimates[t])
            assert hits >= 18

        # the t above all lie below the validity thresholds; at t = 10**6 the
        # bound is valid and below 1, and it must cover every estimate
        t = 10**6
        bound = error_bound_for(problem, t, delta)
        assert bound.valid and bound.value < 1.0
        for seed in seeds:
            emp, _ = us_irl_se(GenerativeModel(problem, seed=seed), t)
            assert hausdorff_distance(truth_poly, polytope_h_rep(emp)).value <= bound.value


class TestEmpiricalFallbacks:
    def test_zero_count_cells(self):
        problem = random_problem(4, 3, 2, 0.8, seed=6)
        emp, _ = us_irl_se(GenerativeModel(problem, seed=0), 0)
        assert np.all(emp.mdp.transition == 0.25)
        assert np.all(emp.optimal_policy.probs == 1.0 / 3.0)
        for ex in emp.experts:
            assert np.all(ex.policy.probs == 1.0 / 3.0)


class TestVolumeBounds:
    def test_fig1_products(self):
        single, multi = volume_upper_bounds(example_fig1(0.9, 0.5))
        assert single == pytest.approx(100.0, rel=1e-12)
        assert multi == pytest.approx(5.0, rel=1e-12)


def independent_radii(t, S, A, n, delta, pi_min):
    L = math.log(3 * S * A * n / delta)
    beta = math.sqrt((L + (S - 1) * math.log(math.e * (1 + t / (S - 1)))) / t)
    alpha = math.sqrt((L + (A - 1) * math.log(math.e * (1 + t * A / (A - 1)))) / (t * A))
    rho = math.sqrt(3 * L / (pi_min * t * A))
    return beta, alpha, rho


class TestFormulaFidelity:
    TUPLES = [
        (5, 2, 2, 1, 0.1, 0.5, 0.9, 0.3),
        (50, 3, 2, 1, 0.05, 0.25, 0.5, 0.2),
        (500, 4, 3, 2, 0.01, 0.1, 0.9, 0.4),
        (64, 2, 2, 1, 0.2, 0.9, 0.1, 0.3),
        (7, 5, 4, 3, 0.5, 0.05, 0.7, 0.1),
        (12345, 6, 2, 1, 0.001, 0.33, 0.8, 0.5),
        (2, 3, 3, 2, 0.25, 0.75, 0.6, 0.2),
        (500, 2, 4, 4, 0.02, 0.2, 0.3, 0.6),
        (32, 8, 2, 1, 0.15, 0.4, 0.95, 0.2),
        (99, 3, 5, 2, 0.07, 0.6, 0.45, 0.35),
    ]

    @pytest.mark.parametrize("t,S,A,n,delta,pi_min,gamma,max_xi", TUPLES)
    def test_radii_and_bound(self, t, S, A, n, delta, pi_min, gamma, max_xi):
        radii = concentration_radii(t, S, A, n, delta, pi_min)
        beta, alpha, rho = independent_radii(t, S, A, n, delta, pi_min)
        assert radii.beta == pytest.approx(beta, rel=1e-12)
        assert radii.alpha == pytest.approx(alpha, rel=1e-12)
        assert radii.rho == pytest.approx(rho, rel=1e-12)
        lead = 2 * math.sqrt(2) * gamma / (1 - gamma)
        q1 = min(max_xi / pi_min, 1 / (1 - gamma))
        want = lead * beta + (rho + lead * (alpha + beta)) * q1
        got = error_bound(t, S, A, n, delta, gamma, pi_min, max_xi)
        assert got.value == pytest.approx(want, rel=1e-12)

    def test_required_m_boundary(self):
        for epsilon, gamma in [(0.5, 0.1), (0.3, 0.2), (0.8, 0.05)]:
            m = required_m(epsilon, 0.1, 2, 2, 1, gamma, 0.3, 0.2)
            at_m = error_bound(m, 2, 2, 1, 0.1, gamma, 0.3, 0.2)
            assert at_m.valid and at_m.value <= epsilon
            if m > 1:
                below = error_bound(m - 1, 2, 2, 1, 0.1, gamma, 0.3, 0.2)
                threshold = max(validity_thresholds(2, 2, 1, 0.1, gamma, 0.3))
                assert below.value > epsilon or m - 1 < threshold


class TestLpCore:
    @staticmethod
    def brute_force_minimum(c, G, h):
        """Min of c . x over all feasible basic points, batched over subsets."""
        d = G.shape[1]
        idx = np.array(list(itertools.combinations(range(G.shape[0]), d)))
        best = np.inf
        for start in range(0, idx.shape[0], 100_000):
            block = idx[start:start + 100_000]
            subs = G[block]
            keep = np.abs(np.linalg.det(subs)) > 1e-12
            if not np.any(keep):
                continue
            points = np.linalg.solve(subs[keep], h[block][keep][..., None])[..., 0]
            finite = np.all(np.isfinite(points), axis=1)
            points = points[finite]
            feasible = np.all(points @ G.T <= h[None, :] + 1e-8, axis=1)
            if np.any(feasible):
                best = min(best, float(np.min(points[feasible] @ c)))
        return best

    def test_simplex_matches_vertex_oracle(self):
        rng = np.random.default_rng(99)
        for _ in range(200):
            d = int(rng.integers(1, 7))
            m = int(rng.integers(d, 2 * d + 1))
            interior = rng.uniform(-0.5, 0.5, size=d)
            G = rng.standard_normal((m, d))
            h = G @ interior + rng.uniform(0.1, 1.0, size=m)
            G = np.vstack([G, np.eye(d), -np.eye(d)])
            h = np.concatenate([h, np.full(d, 2.0), np.full(d, 2.0)])
            c = rng.standard_normal(d)
            res = lp_solve(LinearProgram(c, G, h))
            assert res.status == "optimal"
            assert res.value == pytest.approx(self.brute_force_minimum(c, G, h),
                                              abs=1e-7)

    def test_directed_distance_zero_on_members(self):
        rng = np.random.default_rng(100)
        for xi in (0.2, 0.5, 0.9):
            poly = polytope_h_rep(example_fig1(0.9, xi))
            vertices = enumerate_vertices(poly)
            points = list(vertices)
            for _ in range(50):
                weights = rng.dirichlet(np.ones(len(vertices)))
                points.append(weights @ vertices)
            for point in points:
                assert directed_distance(point, poly) == 0.0
