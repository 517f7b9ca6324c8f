"""Independent oracles the tests check the package against: Q-level
membership and value iteration."""
import numpy as np

from irlse.feasible import (
    DEFAULT_TOL,
    ConstraintMode,
    IrlSeProblem,
    MembershipReport,
    Violation,
    _check_reward_box,
)
from irlse.mdp import (
    MdpNoReward,
    Policy,
    RewardFunction,
    apply_policy,
    policy_transition_matrix,
    value_functions,
)


def _expert_gap_violation(gap: float, xi: float, mode: ConstraintMode, tol: float) -> float:
    """Positive violation margin of the per-state gap constraint, 0 if satisfied."""
    if mode is ConstraintMode.UPPER:
        margin = gap - xi
    elif mode is ConstraintMode.LOWER:
        margin = xi - gap
    else:
        margin = abs(gap - xi)
    return margin if margin > tol else 0.0


def membership_q(problem: IrlSeProblem, r: RewardFunction,
                 tol: float = DEFAULT_TOL) -> MembershipReport:
    """Membership via the Q-level variant of the expert condition.

    For UPPER-mode experts the gap condition is tested as
    Q^{opt}(s, a) <= V^{expert}(s) + xi for every pair, which is equivalent
    to the value-level condition once optimality holds; serves as an
    independent oracle for membership_implicit. Other modes fall back to the
    value-level test.
    """
    _check_reward_box(problem, r, tol)
    pi1 = problem.optimal_policy
    q1, v1, _ = value_functions(problem.mdp, r, pi1)
    support = pi1.support_mask()
    violations = []
    for s in range(problem.num_states):
        for a in range(problem.num_actions):
            diff = q1[s, a] - v1[s]
            if support[s, a]:
                if abs(diff) > tol:
                    violations.append(Violation("optimality_eq", s, a, abs(diff)))
            elif diff > tol:
                violations.append(Violation("optimality_le", s, a, diff))
    for i, ex in enumerate(problem.experts):
        _, vi, _ = value_functions(problem.mdp, r, ex.policy)
        if ex.mode is ConstraintMode.UPPER:
            for s in range(problem.num_states):
                for a in range(problem.num_actions):
                    margin = q1[s, a] - vi[s] - ex.xi
                    if margin > tol:
                        violations.append(Violation("expert_gap", s, a, margin, expert=i))
        else:
            for s in range(problem.num_states):
                margin = _expert_gap_violation(v1[s] - vi[s], ex.xi, ex.mode, tol)
                if margin > 0.0:
                    violations.append(Violation("expert_gap", s, -1, margin, expert=i))
    return MembershipReport(not violations, tuple(violations))


def value_iteration_values(m: MdpNoReward, r: RewardFunction, pi: Policy,
                           sweeps: int = 500) -> np.ndarray:
    """Truncated power-series evaluation of V^pi; test oracle for value_functions."""
    trans = policy_transition_matrix(m, pi)
    rew = apply_policy(pi, r.values)
    v = np.zeros(m.num_states)
    for _ in range(sweeps):
        v = rew + m.discount * trans @ v
    return v
