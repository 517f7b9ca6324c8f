"""Benchmark instance constructors."""
import numpy as np
import pytest

from irlse import (
    RewardFunction,
    example_fig1,
    hausdorff_distance,
    lb_chain,
    lb_subopt,
    lb_tree,
    membership_implicit,
    polytope_h_rep,
    random_problem,
)


def assert_valid_problem(problem):
    assert np.allclose(problem.mdp.transition.sum(axis=2), 1.0, atol=1e-12)
    assert np.allclose(problem.optimal_policy.probs.sum(axis=1), 1.0)
    for ex in problem.experts:
        assert np.allclose(ex.policy.probs.sum(axis=1), 1.0)


class TestFig1:
    def test_structure(self):
        problem = example_fig1(0.9, 0.5)
        assert_valid_problem(problem)
        assert problem.num_states == 2 and problem.num_actions == 2
        # both experts identical at state 1
        assert np.array_equal(problem.optimal_policy.probs[1],
                              problem.experts[0].policy.probs[1])
        # opposed at state 0
        assert problem.optimal_policy.probs[0, 0] == 1.0
        assert problem.experts[0].policy.probs[0, 1] == 1.0

    def test_rejects_nonpositive_xi(self):
        with pytest.raises(ValueError):
            example_fig1(0.9, 0.0)


class TestChain:
    def test_base_structure(self):
        problem = lb_chain(3, 2, 0.9, 0.05, None)
        assert_valid_problem(problem)
        assert problem.num_states == 6
        # root fans out uniformly over the middle states
        assert np.allclose(problem.mdp.transition[0, :, 1:4], 1.0 / 3.0)
        # sinks absorb
        assert problem.mdp.transition[4, 0, 4] == 1.0
        assert problem.mdp.transition[5, 1, 5] == 1.0

    def test_variant_tilts_one_pair(self):
        base = lb_chain(2, 3, 0.9, 0.1, None)
        alt = lb_chain(2, 3, 0.9, 0.1, (1, 2))
        diff = np.argwhere(base.mdp.transition != alt.mdp.transition)
        states, actions = set(diff[:, 0]), set(diff[:, 1])
        assert states == {2} and actions == {2}
        assert alt.mdp.transition[2, 2, 3] == pytest.approx(0.4)  # s_minus
        assert alt.mdp.transition[2, 2, 4] == pytest.approx(0.6)  # s_plus

    def test_zero_tilt_equals_base(self):
        base = lb_chain(2, 2, 0.9, 0.0, None)
        alt = lb_chain(2, 2, 0.9, 0.0, (0, 1))
        assert np.array_equal(base.mdp.transition, alt.mdp.transition)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            lb_chain(2, 2, 0.9, 0.7, None)
        with pytest.raises(ValueError):
            lb_chain(2, 2, 0.9, 0.1, (5, 0))


class TestTree:
    def test_rows_are_distributions(self):
        v = (1, -1, 1, -1)
        problem = lb_tree(4, 3, 0.9, 0.2, v)
        assert_valid_problem(problem)
        # action 0 stays uniform over the leaves
        assert np.allclose(problem.mdp.transition[1, 0, 5:9], 0.25)
        # tilted rows follow (1 + eps v) / s_bar
        assert np.allclose(problem.mdp.transition[1, 1, 5:9],
                           (1 + 0.2 * np.array(v)) / 4)

    def test_sign_flip_distinct_but_permutation_equivalent(self):
        a = lb_tree(2, 2, 0.9, 0.1, (1, -1))
        b = lb_tree(2, 2, 0.9, 0.1, (-1, 1))
        assert not np.array_equal(a.mdp.transition, b.mdp.transition)
        # swapping the two leaves maps one onto the other
        perm = [0, 1, 2, 4, 3]
        permuted = b.mdp.transition[perm][:, :, perm]
        assert np.allclose(a.mdp.transition, permuted)

    def test_distinct_tilts_separate_feasible_sets(self):
        a = lb_tree(2, 2, 0.9, 0.1, (1, -1))
        b = lb_tree(2, 2, 0.9, 0.1, (-1, 1))
        rep = hausdorff_distance(polytope_h_rep(a), polytope_h_rep(b))
        assert rep.value > 0.0

    def test_invalid_sign_vectors(self):
        with pytest.raises(ValueError):
            lb_tree(2, 2, 0.9, 0.1, (1, 1))  # not balanced
        with pytest.raises(ValueError):
            lb_tree(3, 2, 0.9, 0.1, None)  # odd s_bar
        with pytest.raises(ValueError):
            lb_tree(2, 2, 0.9, 0.1, (2, -2))  # not +-1


class TestSubopt:
    def test_structure_and_cross_section(self):
        problem = lb_subopt(1, 0.9, 0.1, 0.25, 2.0, None)
        assert_valid_problem(problem)
        sub = problem.experts[0].policy.probs
        assert sub[1, 1] == pytest.approx(0.25)
        # cross-section at the middle state: 0 <= gap <= xi / pi_min = 0.4
        for gap, member in [(0.0, True), (0.4, True), (0.41, False), (-0.05, False)]:
            r = np.zeros((3, 2))
            r[1, 0] = max(gap, 0.0)
            r[1, 1] = max(-gap, 0.0)
            got = bool(membership_implicit(problem, RewardFunction(r)))
            assert got == member, gap

    def test_variant_scales_mixture(self):
        alt = lb_subopt(2, 0.9, 0.1, 0.25, 2.0, 1)
        sub = alt.experts[0].policy.probs
        assert sub[1, 1] == pytest.approx(0.25)
        assert sub[2, 1] == pytest.approx(0.5)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            lb_subopt(1, 0.9, 0.1, 0.25, 1.0, None)  # alpha must exceed 1
        with pytest.raises(ValueError):
            lb_subopt(1, 0.9, 0.1, 0.6, 2.0, None)  # alpha pi_min >= 1
        with pytest.raises(ValueError):
            lb_subopt(1, 0.9, 0.1, 0.25, 2.0, 4)  # variant out of range

    def test_alpha_near_one_instances_converge(self):
        base = lb_subopt(1, 0.9, 0.1, 0.25, 1.0 + 1e-9, None)
        alt = lb_subopt(1, 0.9, 0.1, 0.25, 1.0 + 1e-9, 0)
        rep = hausdorff_distance(polytope_h_rep(base), polytope_h_rep(alt))
        assert rep.value < 1e-6


class TestRandom:
    def test_determinism(self):
        a = random_problem(3, 2, 2, 0.8, seed=4)
        b = random_problem(3, 2, 2, 0.8, seed=4)
        assert np.array_equal(a.mdp.transition, b.mdp.transition)
        assert np.array_equal(a.optimal_policy.probs, b.optimal_policy.probs)
        assert a.experts[0].xi == b.experts[0].xi

    def test_constant_reward_always_member(self):
        for seed in range(10):
            problem = random_problem(3, 3, 2, 0.7, seed=seed)
            assert_valid_problem(problem)
            r = RewardFunction(np.full((3, 3), 0.3))
            assert membership_implicit(problem, r)

    def test_xi_range(self):
        problem = random_problem(2, 2, 3, 0.5, seed=1, xi_range=(0.2, 0.3))
        for ex in problem.experts:
            assert 0.2 <= ex.xi <= 0.3
