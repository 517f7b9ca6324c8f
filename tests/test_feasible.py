"""Feasible-set membership, canonical parametrization, caps, and polytopes."""
import numpy as np
import pytest

import irlse.feasible as feasible_module
import irlse.mdp as mdp_module

from irlse import (
    CanonicalParams,
    ConstraintMode,
    ExpertSpec,
    GenerativeModel,
    IrlSeProblem,
    MdpNoReward,
    Policy,
    RewardFunction,
    example_fig1,
    lb_chain,
    lb_subopt,
    lb_tree,
    mask_unsupported,
    membership_implicit,
    occupancy_matrix,
    params_from_reward,
    polytope_h_rep,
    random_problem,
    reward_from_params,
    us_irl_se,
    value_functions,
    volume_upper_bounds,
    zeta_caps,
)
from irlse.feasible import _irredundant_rows
from oracles import (
    check_zeta_constraints,
    expert_zeta_load,
    h_rep_loop,
    membership_q,
    near_one_discount_problems,
    without_expert,
    zeta_caps_loop,
)


@pytest.fixture
def fig1():
    return example_fig1(0.9, 0.5)


def deterministic_optimal_problems():
    """Problems whose optimal policy is deterministic: the benchmark truths
    (d = 6, 20, 64) with plug-in estimates at m = 10 ... 10^4, the d = 8
    lower-bound pairs and the other lb families, fig1, and random problems."""
    truths = [random_problem(3, 2, 1, 0.9, seed=0), random_problem(5, 4, 2, 0.9, seed=1),
              random_problem(8, 8, 2, 0.9, seed=1)]
    for truth in truths:
        yield truth
        for m in (10, 100, 1000, 10000):
            for seed in (0, 1):
                yield us_irl_se(GenerativeModel(truth, seed), m)[0]
    for g in (0.8, 0.9, 0.99):
        for e in (0.05, 0.1):
            for v in (None, (0, 0), (0, 1)):
                yield lb_chain(1, 2, g, e, v)
            for v in (None, (1, -1), (-1, 1)):
                yield lb_tree(2, 2, g, e, v)
        for state in (None, 0, 1):
            yield lb_subopt(2, g, 0.1, 0.25, 2.0, state)
    yield example_fig1(0.9, 0.5)
    for seed in range(10):
        yield random_problem(3, 2, 2, 0.9, seed=seed)
        yield random_problem(4, 3, 1, 0.6, seed=seed)


def member_reward(problem, rng, zeta_scale=None):
    """A guaranteed member: constant shaping 0.5 minus a small masked zeta.

    zeta <= min_xi * (1 - gamma) keeps every expert load below min_xi,
    because occupancy-weighted sums are bounded by the horizon times max zeta.
    """
    S, A = problem.num_states, problem.num_actions
    if zeta_scale is None:
        min_xi = min(ex.xi for ex in problem.experts) if problem.experts else 1.0
        zeta_scale = min(0.4, min_xi * (1.0 - problem.mdp.discount))
    zeta = mask_unsupported(problem.optimal_policy,
                            rng.uniform(0, zeta_scale, size=(S, A)))
    v = np.full(S, 0.5 / (1.0 - problem.mdp.discount))
    values, in_box = reward_from_params(problem, CanonicalParams(zeta, v))
    assert in_box
    return RewardFunction(np.clip(values, 0.0, 1.0))


class TestMembership:
    def test_fig1_member_and_reject(self, fig1):
        ok = RewardFunction(np.array([[0.6, 0.3], [0.2, 0.1]]))
        assert membership_implicit(fig1, ok)
        too_wide = RewardFunction(np.array([[0.9, 0.1], [0.2, 0.1]]))
        rep = membership_implicit(fig1, too_wide)
        assert not rep
        assert any(v.condition == "expert_gap" for v in rep.violations)
        wrong_order = RewardFunction(np.array([[0.1, 0.4], [0.2, 0.1]]))
        rep = membership_implicit(fig1, wrong_order)
        assert any(v.condition == "optimality_le" for v in rep.violations)

    def test_violation_details(self, fig1):
        bad = RewardFunction(np.array([[0.9, 0.1], [0.2, 0.1]]))
        v = membership_implicit(fig1, bad).violations[0]
        assert v.condition == "expert_gap" and v.state == 0 and v.expert == 0
        assert v.margin == pytest.approx(0.3, abs=1e-9)

    def test_q_level_agrees_with_implicit(self):
        rng = np.random.default_rng(5)
        for seed in range(8):
            problem = random_problem(3, 3, 2, 0.7, seed=seed)
            for _ in range(100):
                r = RewardFunction(rng.uniform(0, 1, size=(3, 3)))
                assert bool(membership_implicit(problem, r)) == bool(membership_q(problem, r))

    def test_violations_match_loop_oracle(self):
        # membership_q tests optimality pair by pair and, for LOWER/EXACT
        # experts, the gap state by state: the same violations in the same order
        rng = np.random.default_rng(6)
        for seed in range(6):
            base = random_problem(3, 3, 2, 0.8, seed=seed)
            probs = base.optimal_policy.probs.copy()
            probs[0] = 1.0 / 3.0  # stochastic at state 0: optimality_eq rows
            problem = IrlSeProblem(base.mdp, Policy(probs), tuple(
                ExpertSpec(ex.policy, ex.xi, mode) for ex, mode in
                zip(base.experts, (ConstraintMode.LOWER, ConstraintMode.EXACT))))
            for _ in range(50):
                r = RewardFunction(rng.uniform(0, 1, size=(3, 3)))
                assert membership_implicit(problem, r) == membership_q(problem, r)

    def test_saturated_xi_reduces_to_single_agent(self):
        # xi >= horizon makes the expert constraint vacuous
        loose = example_fig1(0.9, 10.0)
        single = IrlSeProblem(loose.mdp, loose.optimal_policy, ())
        rng = np.random.default_rng(0)
        for _ in range(200):
            r = RewardFunction(rng.uniform(0, 1, size=(2, 2)))
            assert bool(membership_implicit(loose, r)) == bool(membership_implicit(single, r))

    def test_identical_expert_constraint_vacuous(self, fig1):
        twin = IrlSeProblem(fig1.mdp, fig1.optimal_policy,
                            (ExpertSpec(fig1.optimal_policy, 0.01),))
        single = IrlSeProblem(fig1.mdp, fig1.optimal_policy, ())
        rng = np.random.default_rng(1)
        for _ in range(200):
            r = RewardFunction(rng.uniform(0, 1, size=(2, 2)))
            assert bool(membership_implicit(twin, r)) == bool(membership_implicit(single, r))

    def test_lower_and_exact_modes(self, fig1):
        lower = IrlSeProblem(fig1.mdp, fig1.optimal_policy,
                             (ExpertSpec(fig1.experts[0].policy, 0.3, ConstraintMode.LOWER),))
        exact = IrlSeProblem(fig1.mdp, fig1.optimal_policy,
                             (ExpertSpec(fig1.experts[0].policy, 0.3, ConstraintMode.EXACT),))
        # gap at S0 is r(0,0)-r(0,1); gap at S1 is 0, so LOWER/EXACT also
        # constrain state 1, where the gap cannot reach 0.3: no members there.
        wide = RewardFunction(np.array([[0.8, 0.1], [0.0, 0.0]]))
        narrow = RewardFunction(np.array([[0.4, 0.2], [0.0, 0.0]]))
        rep_lower = membership_implicit(lower, wide)
        assert [v.state for v in rep_lower.violations] == [1]
        assert not membership_implicit(exact, narrow)
        # LOWER: gap 0.2 < 0.3 violates at state 0 and state 1
        rep = membership_implicit(lower, narrow)
        assert {v.state for v in rep.violations} == {0, 1}


class TestCanonicalParams:
    def test_roundtrip_members(self):
        rng = np.random.default_rng(42)
        for seed in range(6):
            problem = random_problem(3, 3, 1, 0.8, seed=seed)
            for _ in range(20):
                r = member_reward(problem, rng)
                params = params_from_reward(problem, r)
                values, in_box = reward_from_params(problem, params)
                assert in_box
                assert np.max(np.abs(values - r.values)) < 1e-9

    def test_recovered_zeta_respects_constraints(self):
        rng = np.random.default_rng(43)
        problem = random_problem(3, 2, 2, 0.9, seed=9)
        for _ in range(20):
            r = member_reward(problem, rng)
            params = params_from_reward(problem, r)
            assert np.all(params.zeta >= 0)
            for verdict in check_zeta_constraints(problem, params.zeta):
                assert verdict.satisfied
                assert np.all(verdict.slack >= -1e-8)

    def test_non_member_rejected(self, fig1):
        bad = RewardFunction(np.array([[0.1, 0.6], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="not a member"):
            params_from_reward(fig1, bad)

    def test_negative_zeta_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            CanonicalParams(np.array([[-0.1]]), np.array([0.0]))

    def test_zeta_load_equals_value_gap(self):
        # V^{opt} - V^{expert} equals the occupancy-weighted masked zeta load
        rng = np.random.default_rng(44)
        problem = random_problem(4, 3, 2, 0.85, seed=17)
        for _ in range(10):
            r = member_reward(problem, rng)
            params = params_from_reward(problem, r)
            _, v1, _ = value_functions(problem.mdp, r, problem.optimal_policy)
            for ex in problem.experts:
                _, vi, _ = value_functions(problem.mdp, r, ex.policy)
                load = expert_zeta_load(problem, ex, params.zeta)
                assert np.allclose(load, v1 - vi, atol=1e-9)


class TestOccupancyTable:
    def test_one_solve_per_policy(self, monkeypatch):
        # the H-rep, 64 memberships and the caps of a d = 64 problem with two
        # experts read one table: one occupancy solve per policy
        calls = []

        def counted(m, pi):
            calls.append(pi)
            return occupancy_matrix(m, pi)

        monkeypatch.setattr(feasible_module, "occupancy_matrix", counted)
        monkeypatch.setattr(mdp_module, "occupancy_matrix", counted)
        problem = random_problem(8, 8, 2, 0.9, seed=1)
        rng = np.random.default_rng(48)
        rewards = [RewardFunction(rng.uniform(0, 1, size=(8, 8))) for _ in range(64)]
        polytope_h_rep(problem)
        for r in rewards:
            membership_implicit(problem, r)
        zeta_caps(problem)
        assert len(calls) == 3
        table = problem._occupancies
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0, 0] = 0.0
        # a problem made by dataclasses.replace solves its own table; reward 1
        # on the optimal actions opens a gap above xi to the remaining expert
        fresh = without_expert(random_problem(8, 8, 2, 0.9, seed=1), 0)
        greedy = RewardFunction(problem.optimal_policy.probs)
        report = membership_implicit(without_expert(problem, 0), greedy)
        assert report == membership_implicit(fresh, greedy)
        assert any(v.condition == "expert_gap" for v in report.violations)


class TestZetaCapsAndVolume:
    def test_fig1_caps(self, fig1):
        caps = zeta_caps(fig1)
        # expert occupancy d_{S0}(S0) = 1 and pi_i(a1|S0) = 1 -> k = xi
        assert caps.k[0, 1] == pytest.approx(0.5)
        assert caps.g[0, 1] == pytest.approx(0.5)
        assert np.isinf(caps.k[1, 1])
        assert caps.g[1, 1] == pytest.approx(10.0)
        assert caps.contributing_experts[0][1] == (0,)
        assert caps.contributing_experts[1][1] == ()

    def test_fig1_volume_bounds(self, fig1):
        single, multi = volume_upper_bounds(fig1)
        assert single == pytest.approx(100.0)
        assert multi == pytest.approx(5.0)

    def test_caps_scale_with_xi(self):
        tight = example_fig1(0.9, 0.05)
        assert zeta_caps(tight).g[0, 1] == pytest.approx(0.05)

    def test_matches_loop_oracle(self):
        # byte-identical g, k and contributing experts to the per-pair loop
        modes = tuple(ConstraintMode)
        problems = [random_problem(3, 3, n, g, seed=seed)
                    for n in (1, 2, 3) for g in (0.9, 0.999) for seed in range(4)]
        problems += [p for seed in range(8)
                     for p in near_one_discount_problems(seed, 0.999, modes)]
        problems += [lb_subopt(2, 0.9, 0.1, 0.25, 2.0, state) for state in (None, 0)]
        problems.append(example_fig1(0.9, 0.5))
        finite = 0
        for problem in problems:
            caps, want = zeta_caps(problem), zeta_caps_loop(problem)
            assert caps.g.tobytes() == want.g.tobytes()
            assert caps.k.tobytes() == want.k.tobytes()
            assert caps.contributing_experts == want.contributing_experts
            finite += np.count_nonzero(np.isfinite(caps.k))
        assert finite > 50

    def test_member_zeta_below_caps(self):
        rng = np.random.default_rng(45)
        problem = random_problem(3, 3, 2, 0.9, seed=2)
        caps = zeta_caps(problem)
        for _ in range(20):
            r = member_reward(problem, rng)
            params = params_from_reward(problem, r)
            assert np.all(params.zeta <= caps.g + 1e-8)


class TestPolytope:
    def test_agrees_with_membership(self):
        rng = np.random.default_rng(46)
        for seed in range(6):
            problem = random_problem(3, 2, 1, 0.6, seed=seed)
            poly = polytope_h_rep(problem)
            rewards = rng.uniform(0, 1, size=(300, problem.dim))
            flags = poly.contains_many(rewards)
            for vec, flag in zip(rewards, flags):
                r = RewardFunction(vec.reshape(3, 2))
                assert bool(membership_implicit(problem, r)) == bool(flag)

    def test_exact_mode_polytope(self, fig1):
        exact = IrlSeProblem(fig1.mdp, fig1.optimal_policy,
                             (ExpertSpec(fig1.experts[0].policy, 0.3, ConstraintMode.EXACT),))
        poly = polytope_h_rep(exact)
        rng = np.random.default_rng(3)
        rewards = rng.uniform(0, 1, size=(300, 4))
        flags = poly.contains_many(rewards)
        for vec, flag in zip(rewards, flags):
            r = RewardFunction(vec.reshape(2, 2))
            assert bool(membership_implicit(exact, r)) == bool(flag)

    def test_stochastic_optimal_policy_equality_rows(self):
        # a stochastic optimal expert forces equal Q on its support
        p = np.zeros((2, 2, 2))
        p[0, :, 1] = 1.0
        p[1, :, 1] = 1.0
        mdp = MdpNoReward(2, 2, p, 0.9)
        pi1 = Policy(np.array([[0.5, 0.5], [1.0, 0.0]]))
        problem = IrlSeProblem(mdp, pi1, ())
        poly = polytope_h_rep(problem)
        assert "equality" in poly.labels
        rng = np.random.default_rng(4)
        for _ in range(200):
            vec = rng.uniform(0, 1, size=4)
            r = RewardFunction(vec.reshape(2, 2))
            assert bool(membership_implicit(problem, r)) == poly.contains(vec)

    def test_redundancy_elimination_preserves_set(self, fig1):
        poly = polytope_h_rep(fig1)
        rng = np.random.default_rng(8)
        rewards = rng.uniform(0, 1, size=(2000, 4))
        flags = poly.contains_many(rewards)
        for vec, flag in zip(rewards, flags):
            r = RewardFunction(vec.reshape(2, 2))
            assert bool(membership_implicit(fig1, r)) == bool(flag)

    def test_labels_present(self, fig1):
        poly = polytope_h_rep(fig1)
        assert set(poly.labels) == {"box", "optimality", "expert:0"}

    def test_matches_loop_oracle_for_deterministic_optimal(self):
        # no equality rows and no tighter later row in a kept direction: the
        # array builder and the per-pair loop with its greedy dedupe agree
        # to the byte, so every benchmark LP stays the same
        for problem in deterministic_optimal_problems():
            assert np.all(problem.optimal_policy.support_mask().sum(axis=1) == 1)
            new, old = polytope_h_rep(problem), h_rep_loop(problem)
            assert new.G.shape == old.G.shape
            assert new.G.tobytes() == old.G.tobytes()
            assert new.h.tobytes() == old.h.tobytes()
            assert new.labels == old.labels

    def test_implied_equality_row_not_emitted(self):
        # pi*(.|0) plays all three actions: the row of the most likely one
        # (action 1) is implied by the other two, so the state gives
        # 2 (k - 1) = 4 equality rows, and the deterministic state 1 none
        rng = np.random.default_rng(9)
        mdp = MdpNoReward(2, 3, rng.dirichlet(np.ones(2), size=(2, 3)), 0.9)
        pi1 = Policy(np.array([[0.2, 0.5, 0.3], [0.0, 1.0, 0.0]]))
        problem = IrlSeProblem(mdp, pi1, ())
        poly = polytope_h_rep(problem)
        assert poly.labels.count("equality") == 4
        assert h_rep_loop(problem).labels.count("equality") == 6
        # the four rows are +-adv(0, 0) and +-adv(0, 2), in pair order
        _, _, adv = value_functions(mdp, RewardFunction(np.eye(6)[0].reshape(2, 3)), pi1)
        equality = poly.G[np.array(poly.labels) == "equality"]
        assert np.allclose(equality[:, 0], [adv[0, 0], -adv[0, 0], adv[0, 2], -adv[0, 2]])
        for _ in range(50):
            r = member_reward(problem, rng)
            assert poly.contains(r.values)

    def test_tighter_copy_of_an_expert_replaces_it(self):
        # the same expert with xi and xi / 2: each row of the first is a
        # looser copy of a row of the second, which is kept in its place
        base = random_problem(3, 2, 1, 0.9, seed=0)
        ex = base.experts[0]
        problem = IrlSeProblem(base.mdp, base.optimal_policy,
                               (ex, ExpertSpec(ex.policy, ex.xi / 2)))
        poly, old = polytope_h_rep(problem), h_rep_loop(problem)
        assert (len(old.labels), len(poly.labels)) == (21, 18)
        assert poly.labels.count("expert:1") == 3 and "expert:0" not in poly.labels
        assert np.all(poly.h[-3:] == ex.xi / 2)

    def test_proportional_gap_rows_collapse(self):
        # the expert differs from pi* only at state 1, so its gap rows at
        # states 0 and 1 are proportional; the tighter (the later) stays
        problem = lb_subopt(1, 0.9, 0.1, 0.25, 2.0, None)
        poly, old = polytope_h_rep(problem), h_rep_loop(problem)
        assert (len(old.labels), len(poly.labels)) == (17, 16)
        assert poly.labels.count("expert:0") == 1
        assert poly.G[-1].tobytes() == old.G[-1].tobytes() and poly.h[-1] == old.h[-1]

    def test_irredundant_rows(self):
        # box rows of [0, 1]^2, then 2 r_0 <= 1 (tighter than the box row
        # r_0 <= 1, which it replaces), r_0 + r_1 <= 2 (implied by the box),
        # -r_1 <= 0 again (a tie: the box row stays) and two empty rows
        G = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1],
                      [2, 0], [1, 1], [0, -3], [0, 0], [0, 0]])
        h = np.array([1.0, 0, 1, 0, 1, 2, 0, -2, -1])
        box = np.arange(9) < 4
        assert _irredundant_rows(G, h, box).tolist() == [1, 2, 3, 4, 7]


class TestShrinkage:
    def test_deleting_expert_keeps_members(self):
        rng = np.random.default_rng(47)
        problem = random_problem(3, 2, 2, 0.8, seed=5)
        for _ in range(30):
            r = member_reward(problem, rng)
            for i in range(problem.num_experts):
                assert membership_implicit(without_expert(problem, i), r)
