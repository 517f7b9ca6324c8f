"""Core MDP types and operators."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irlse import (
    MdpNoReward,
    Policy,
    RewardFunction,
    apply_policy,
    apply_transition,
    mask_unsupported,
    occupancy_matrix,
    policy_transition_matrix,
    value_functions,
)
from oracles import value_iteration_values


def two_state_chain(gamma=0.9):
    # state 0: both actions -> state 1; state 1: self-loop
    p = np.zeros((2, 2, 2))
    p[0, :, 1] = 1.0
    p[1, :, 1] = 1.0
    return MdpNoReward(2, 2, p, gamma)


def random_mdp(rng, S, A, gamma):
    p = rng.dirichlet(np.ones(S), size=(S, A))
    return MdpNoReward(S, A, p, gamma)


def random_policy(rng, S, A):
    return Policy(rng.dirichlet(np.ones(A), size=S))


class TestValidation:
    def test_rejects_bad_row_sum(self):
        p = np.zeros((2, 2, 2))
        p[:, :, 0] = 0.6
        p[:, :, 1] = 0.6
        with pytest.raises(ValueError, match="sum to 1"):
            MdpNoReward(2, 2, p, 0.9)

    def test_rejects_negative_probability(self):
        p = np.zeros((2, 1, 2))
        p[:, :, 0] = -0.5
        p[:, :, 1] = 1.5
        with pytest.raises(ValueError, match="non-negative"):
            MdpNoReward(2, 1, p, 0.9)

    def test_rejects_discount_one(self):
        p = np.ones((1, 1, 1))
        with pytest.raises(ValueError, match="discount"):
            MdpNoReward(1, 1, p, 1.0)

    def test_rejects_bad_policy_rows(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Policy(np.array([[0.5, 0.4]]))

    def test_reward_box(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            RewardFunction(np.array([[1.2, 0.0]]))

    def test_arrays_frozen(self):
        m = two_state_chain()
        with pytest.raises(ValueError):
            m.transition[0, 0, 0] = 0.5


class TestOperators:
    def test_apply_transition_is_expectation(self):
        m = two_state_chain()
        f = np.array([2.0, 5.0])
        out = apply_transition(m, f)
        assert np.allclose(out, [[5.0, 5.0], [5.0, 5.0]])

    def test_apply_policy_weights_rows(self):
        pi = Policy(np.array([[0.25, 0.75], [1.0, 0.0]]))
        g = np.array([[4.0, 8.0], [3.0, 9.0]])
        assert np.allclose(apply_policy(pi, g), [7.0, 3.0])

    def test_masks_partition_table(self):
        pi = Policy(np.array([[0.25, 0.75], [1.0, 0.0]]))
        g = np.array([[4.0, 8.0], [3.0, 9.0]])
        supported = np.where(pi.support_mask(), g, 0.0)
        assert np.allclose(supported + mask_unsupported(pi, g), g)
        assert mask_unsupported(pi, g)[1, 1] == 9.0
        assert mask_unsupported(pi, g)[0, 0] == 0.0

    def test_support_mask_exact_zero(self):
        pi = Policy(np.array([[1e-300, 1.0 - 1e-300]]))
        assert pi.support_mask().tolist() == [[True, True]]

    def test_deterministic_constructor(self):
        pi = Policy.deterministic([1, 0], 3)
        assert np.array_equal(pi.probs, [[0, 1, 0], [1, 0, 0]])


class TestOccupancy:
    def test_two_state_chain_closed_form(self):
        # D = (I - gamma piP)^{-1}: start at 0 -> 1 visit of 0 then all mass at 1
        m = two_state_chain(0.9)
        pi = Policy.deterministic([0, 0], 2)
        d = occupancy_matrix(m, pi)
        assert np.allclose(d, [[1.0, 9.0], [0.0, 10.0]], atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 5), st.integers(2, 4),
           st.sampled_from([0.3, 0.5, 0.9]))
    def test_rows_sum_to_horizon(self, seed, S, A, gamma):
        rng = np.random.default_rng(seed)
        m = random_mdp(rng, S, A, gamma)
        pi = random_policy(rng, S, A)
        d = occupancy_matrix(m, pi)
        assert np.allclose(d.sum(axis=1), 1.0 / (1.0 - gamma), atol=1e-9)
        assert np.all(d >= -1e-12)

    def test_matches_power_series(self):
        rng = np.random.default_rng(7)
        m = random_mdp(rng, 4, 3, 0.8)
        pi = random_policy(rng, 4, 3)
        trans = policy_transition_matrix(m, pi)
        series = np.zeros((4, 4))
        term = np.eye(4)
        for _ in range(400):
            series += term
            term = 0.8 * term @ trans
        assert np.allclose(occupancy_matrix(m, pi), series, atol=1e-10)


class TestValues:
    def test_fig1_reward_values(self):
        # r(S0, a0) = 1, everything else 0: V(S0) = 1, V(S1) = 0
        m = two_state_chain(0.9)
        pi = Policy.deterministic([0, 0], 2)
        r = RewardFunction(np.array([[1.0, 0.0], [0.0, 0.0]]))
        _, v, _ = value_functions(m, r, pi)
        assert np.allclose(v, [1.0, 0.0], atol=1e-12)
        v_iter = value_iteration_values(m, r, pi, sweeps=500)
        assert np.allclose(v, v_iter, atol=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000), st.integers(2, 4), st.integers(2, 3),
           st.sampled_from([0.5, 0.9]))
    def test_bellman_consistency(self, seed, S, A, gamma):
        rng = np.random.default_rng(seed)
        m = random_mdp(rng, S, A, gamma)
        pi = random_policy(rng, S, A)
        r = RewardFunction(rng.uniform(0, 1, size=(S, A)))
        q, v, adv = value_functions(m, r, pi)
        # V = pi Q and Q = r + gamma P V
        assert np.allclose(apply_policy(pi, q), v, atol=1e-9)
        assert np.allclose(q, r.values + gamma * apply_transition(m, v), atol=1e-12)
        assert np.allclose(adv, q - v[:, None], atol=1e-12)
        # supported advantage averages to zero
        assert np.allclose(apply_policy(pi, adv), 0.0, atol=1e-9)

    def test_values_match_iteration_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            m = random_mdp(rng, 3, 2, 0.9)
            pi = random_policy(rng, 3, 2)
            r = RewardFunction(rng.uniform(0, 1, size=(3, 2)))
            _, v, _ = value_functions(m, r, pi)
            assert np.allclose(v, value_iteration_values(m, r, pi), atol=1e-10)
