"""Tabular MDP-without-reward core: types, operators, exact value computations.

All quantities are dense numpy arrays. Transition tables are indexed
``p[s, a, s']``, policies ``pi[s, a]``, rewards ``r[s, a]``. Everything here
is a pure function of immutable inputs; the dataclasses are frozen.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ROW_SUM_TOL = 1e-12


def _as_float_array(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class MdpNoReward:
    """A tabular MDP without a reward function: (S, A, p, gamma)."""

    num_states: int
    num_actions: int
    transition: np.ndarray  # (S, A, S)
    discount: float

    def __post_init__(self):
        p = _as_float_array(self.transition, "transition")
        if p.shape != (self.num_states, self.num_actions, self.num_states):
            raise ValueError(
                f"transition shape {p.shape} does not match "
                f"(S, A, S) = ({self.num_states}, {self.num_actions}, {self.num_states})"
            )
        if np.any(p < 0):
            raise ValueError("transition probabilities must be non-negative")
        row_sums = p.sum(axis=2)
        if np.max(np.abs(row_sums - 1.0)) > ROW_SUM_TOL:
            bad = np.unravel_index(np.argmax(np.abs(row_sums - 1.0)), row_sums.shape)
            raise ValueError(f"transition row (s={bad[0]}, a={bad[1]}) does not sum to 1")
        if not (0.0 <= self.discount < 1.0):
            raise ValueError(f"discount must be in [0, 1), got {self.discount}")
        object.__setattr__(self, "transition", p)
        p.setflags(write=False)


@dataclass(frozen=True)
class Policy:
    """A stationary Markov policy pi[s, a]; rows are distributions over actions."""

    probs: np.ndarray  # (S, A)

    def __post_init__(self):
        probs = _as_float_array(self.probs, "policy")
        if probs.ndim != 2:
            raise ValueError("policy table must be 2-dimensional (S, A)")
        if np.any(probs < 0):
            raise ValueError("policy probabilities must be non-negative")
        row_sums = probs.sum(axis=1)
        if np.max(np.abs(row_sums - 1.0)) > ROW_SUM_TOL:
            s = int(np.argmax(np.abs(row_sums - 1.0)))
            raise ValueError(f"policy row s={s} does not sum to 1")
        object.__setattr__(self, "probs", probs)
        probs.setflags(write=False)

    @property
    def num_states(self) -> int:
        return self.probs.shape[0]

    @property
    def num_actions(self) -> int:
        return self.probs.shape[1]

    def support_mask(self) -> np.ndarray:
        """Boolean (S, A) mask of actions played with positive probability.

        The zero test is exact on the stored values: policies are authored
        data (or empirical counts, which are exactly zero when unseen).
        """
        return self.probs > 0.0

    @staticmethod
    def deterministic(actions, num_actions: int) -> "Policy":
        actions = np.asarray(actions, dtype=int)
        probs = np.zeros((actions.shape[0], num_actions))
        probs[np.arange(actions.shape[0]), actions] = 1.0
        return Policy(probs)


@dataclass(frozen=True)
class RewardFunction:
    """A reward table r[s, a] with entries in [0, 1]."""

    values: np.ndarray  # (S, A)

    def __post_init__(self):
        values = _as_float_array(self.values, "reward")
        if values.ndim != 2:
            raise ValueError("reward table must be 2-dimensional (S, A)")
        if np.any(values < 0.0) or np.any(values > 1.0):
            raise ValueError("reward entries must lie in [0, 1]")
        object.__setattr__(self, "values", values)
        values.setflags(write=False)


def _check_state_table(m: MdpNoReward, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape != (m.num_states,):
        raise ValueError(f"state table has shape {f.shape}, expected ({m.num_states},)")
    return f


def _check_state_action_table(shape, g) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.shape != shape:
        raise ValueError(f"state-action table has shape {g.shape}, expected {shape}")
    return g


def apply_transition(m: MdpNoReward, f) -> np.ndarray:
    """The transition operator P: (Pf)(s, a) = sum_s' p(s'|s,a) f(s')."""
    f = _check_state_table(m, f)
    return m.transition @ f


def apply_policy(pi: Policy, g) -> np.ndarray:
    """The policy operator: (pi g)(s) = sum_a pi(a|s) g(s, a)."""
    g = _check_state_action_table(pi.probs.shape, g)
    return np.sum(pi.probs * g, axis=1)


def mask_unsupported(pi: Policy, g) -> np.ndarray:
    """Keep entries where pi(a|s) = 0, zero elsewhere (the B-bar operator)."""
    g = _check_state_action_table(pi.probs.shape, g)
    return np.where(pi.support_mask(), 0.0, g)


def policy_transition_matrix(m: MdpNoReward, pi: Policy) -> np.ndarray:
    """State-to-state transition matrix (pi P)[s, s'] = sum_a pi(a|s) p(s'|s,a)."""
    if pi.probs.shape != (m.num_states, m.num_actions):
        raise ValueError("policy shape does not match MDP")
    return np.einsum("sa,sat->st", pi.probs, m.transition)


def occupancy_matrix(m: MdpNoReward, pi: Policy) -> np.ndarray:
    """Discounted occupancy matrix D = (I - gamma * pi P)^{-1}.

    Row s' holds the discounted expected visit counts d_{s'}(s) when starting
    from s'. Rows sum to 1/(1-gamma). Solved by dense LU against identity
    columns; the system is always invertible for gamma < 1.
    """
    trans = policy_transition_matrix(m, pi)
    system = np.eye(m.num_states) - m.discount * trans
    try:
        return np.linalg.solve(system, np.eye(m.num_states))
    except np.linalg.LinAlgError as exc:  # unreachable for gamma < 1
        raise RuntimeError("occupancy system is singular") from exc


def value_functions(m: MdpNoReward, r: RewardFunction, pi: Policy):
    """Exact Q, V and advantage of policy pi under reward r.

    V = (I - gamma pi P)^{-1} (pi r),  Q = r + gamma P V,  Adv = Q - E V.
    """
    if pi.probs.shape != r.values.shape or pi.probs.shape != (m.num_states, m.num_actions):
        raise ValueError("shapes of MDP, reward and policy do not agree")
    v = occupancy_matrix(m, pi) @ apply_policy(pi, r.values)
    q = r.values + m.discount * apply_transition(m, v)
    adv = q - v[:, None]
    return q, v, adv
