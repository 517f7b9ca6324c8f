"""Constructors for small benchmark problems.

Four hand-built families probe specific geometric features of the feasible
reward set (gap widths, transition-tilt sensitivity, expert-mixture
sensitivity), plus a seeded random generator for smoke tests and sweeps.
State layouts are documented per constructor; action 0 is always the action
the optimal expert plays.
"""
from __future__ import annotations

import numpy as np

from .feasible import ConstraintMode, ExpertSpec, IrlSeProblem
from .mdp import MdpNoReward, Policy


def _uniform_fanout(p: np.ndarray, state: int, targets) -> None:
    p[state, :, :] = 0.0
    p[state, :, targets] = 1.0 / len(targets)


def _absorbing(p: np.ndarray, state: int) -> None:
    p[state, :, :] = 0.0
    p[state, :, state] = 1.0


def example_fig1(gamma: float = 0.9, xi: float = 0.5) -> IrlSeProblem:
    """Two-state, two-action instance with one sub-optimal expert.

    State 0 has two actions, both leading to the absorbing state 1; the
    optimal expert takes action 0 at state 0, the sub-optimal expert takes
    action 1, and both take action 0 at state 1. The feasible set's state-0
    cross-section is exactly {0 <= r(0, a0) - r(0, a1) <= xi}.
    """
    if xi <= 0:
        raise ValueError("xi must be positive")
    p = np.zeros((2, 2, 2))
    p[0, :, 1] = 1.0
    _absorbing(p, 1)
    mdp = MdpNoReward(2, 2, p, gamma)
    optimal = Policy.deterministic([0, 0], 2)
    sub = Policy.deterministic([1, 0], 2)
    return IrlSeProblem(mdp, optimal, (ExpertSpec(sub, xi, ConstraintMode.UPPER),))


def lb_chain(s_bar: int, num_actions: int, gamma: float, eps_prime: float,
             variant: tuple | None = None) -> IrlSeProblem:
    """Fan-out chain with two absorbing sinks.

    States: root (0), middle states 1..s_bar, then s_minus and s_plus
    (absorbing). The root fans out uniformly; every middle-state action
    splits 1/2-1/2 between the sinks, except the `variant` pair (j, k)
    (0-based middle-state index, action index), whose split is tilted to
    (1/2 - eps_prime, 1/2 + eps_prime) toward s_plus. All experts play
    action 0 deterministically; the lone sub-optimal expert is identical to
    the optimal one, so only the optimality constraints shape the set.
    """
    if not (0.0 <= eps_prime <= 0.5):
        raise ValueError("eps_prime must lie in [0, 1/2]")
    if s_bar < 1 or num_actions < 2:
        raise ValueError("need s_bar >= 1 and at least 2 actions")
    num_states = s_bar + 3
    s_minus, s_plus = s_bar + 1, s_bar + 2
    p = np.zeros((num_states, num_actions, num_states))
    _uniform_fanout(p, 0, list(range(1, s_bar + 1)))
    for j in range(1, s_bar + 1):
        p[j, :, s_minus] = 0.5
        p[j, :, s_plus] = 0.5
    _absorbing(p, s_minus)
    _absorbing(p, s_plus)
    if variant is not None:
        j, k = variant
        if not (0 <= j < s_bar and 0 <= k < num_actions):
            raise ValueError(f"variant {variant} out of range")
        p[1 + j, k, s_minus] = 0.5 - eps_prime
        p[1 + j, k, s_plus] = 0.5 + eps_prime
    mdp = MdpNoReward(num_states, num_actions, p, gamma)
    optimal = Policy.deterministic([0] * num_states, num_actions)
    sub = ExpertSpec(optimal, 1.0, ConstraintMode.UPPER)
    return IrlSeProblem(mdp, optimal, (sub,))


def lb_tree(s_bar: int, num_actions: int, gamma: float, eps_prime: float,
            v=None) -> IrlSeProblem:
    """Fan-out tree with s_bar absorbing leaves.

    States: root (0), middle states 1..s_bar, leaves s_bar+1..2*s_bar
    (absorbing). The root fans out uniformly; at every middle state action 0
    is uniform over the leaves, while actions k >= 1 send leaf i probability
    (1 + eps_prime * v[i]) / s_bar, where v is a balanced sign vector
    (entries +-1 summing to zero; the base instance is v = None, i.e. all
    rows uniform). Rows are normalized by s_bar so they are exact
    distributions. All experts play action 0 deterministically.
    """
    if not (0.0 <= eps_prime <= 0.5):
        raise ValueError("eps_prime must lie in [0, 1/2]")
    if s_bar < 2 or s_bar % 2 != 0:
        raise ValueError("s_bar must be even and >= 2")
    if num_actions < 2:
        raise ValueError("need at least 2 actions")
    if v is not None:
        v = np.asarray(v, dtype=float)
        if v.shape != (s_bar,) or not np.all(np.abs(v) == 1.0) or v.sum() != 0.0:
            raise ValueError("v must be a balanced +-1 vector of length s_bar")
    num_states = 1 + 2 * s_bar
    leaves = np.arange(s_bar + 1, 2 * s_bar + 1)
    p = np.zeros((num_states, num_actions, num_states))
    _uniform_fanout(p, 0, list(range(1, s_bar + 1)))
    for j in range(1, s_bar + 1):
        p[j, :, leaves] = 1.0 / s_bar
        if v is not None:
            for k in range(1, num_actions):
                p[j, k, leaves] = (1.0 + eps_prime * v) / s_bar
    for leaf in leaves:
        _absorbing(p, leaf)
    mdp = MdpNoReward(num_states, num_actions, p, gamma)
    optimal = Policy.deterministic([0] * num_states, num_actions)
    sub = ExpertSpec(optimal, 1.0, ConstraintMode.UPPER)
    return IrlSeProblem(mdp, optimal, (sub,))


def lb_subopt(s_bar: int, gamma: float, xi: float, pi_min: float,
              alpha: float = 2.0, variant_state: int | None = None) -> IrlSeProblem:
    """Fan-out instance whose geometry is driven by the sub-optimal expert.

    States: root (0), middle states 1..s_bar, sink (absorbing); two actions,
    all with identical transitions (root fans out, middle states feed the
    sink). The optimal expert always plays action 0; the sub-optimal expert
    plays action 1 with probability pi_min at every middle state, raised to
    alpha * pi_min at the variant state (0-based middle index) if given.
    The base set's middle cross-section is {0 <= r(s,a0) - r(s,a1) <= xi/pi_min};
    the variant shrinks the upper bound to xi/(alpha*pi_min) at one state.
    """
    if xi <= 0:
        raise ValueError("xi must be positive")
    if not (0.0 < pi_min < 1.0):
        raise ValueError("pi_min must lie in (0, 1)")
    if alpha <= 1.0:
        raise ValueError("alpha must exceed 1")
    if alpha * pi_min >= 1.0:
        raise ValueError("alpha * pi_min must stay below 1")
    if s_bar < 1:
        raise ValueError("need s_bar >= 1")
    num_states = s_bar + 2
    sink = s_bar + 1
    p = np.zeros((num_states, 2, num_states))
    _uniform_fanout(p, 0, list(range(1, s_bar + 1)))
    for j in range(1, s_bar + 1):
        p[j, :, sink] = 1.0
    _absorbing(p, sink)
    mdp = MdpNoReward(num_states, 2, p, gamma)
    optimal = Policy.deterministic([0] * num_states, 2)
    sub_probs = np.zeros((num_states, 2))
    sub_probs[0, 0] = 1.0
    sub_probs[sink, 0] = 1.0
    sub_probs[1:s_bar + 1, 0] = 1.0 - pi_min
    sub_probs[1:s_bar + 1, 1] = pi_min
    if variant_state is not None:
        if not (0 <= variant_state < s_bar):
            raise ValueError(f"variant_state {variant_state} out of range")
        sub_probs[1 + variant_state, 0] = 1.0 - alpha * pi_min
        sub_probs[1 + variant_state, 1] = alpha * pi_min
    sub = ExpertSpec(Policy(sub_probs), xi, ConstraintMode.UPPER)
    return IrlSeProblem(mdp, optimal, (sub,))


def random_problem(num_states: int, num_actions: int, num_experts: int,
                   gamma: float, seed: int = 0,
                   xi_range: tuple = (0.1, 0.5)) -> IrlSeProblem:
    """Seeded random problem: Dirichlet(1) transition and expert rows, a
    uniformly random deterministic optimal policy, xi drawn from xi_range.

    Constant rewards make every policy equal-valued, so the feasible set of
    any generated problem is nonempty.
    """
    if num_states < 2 or num_actions < 2:
        raise ValueError("need at least 2 states and 2 actions")
    if num_experts < 1:
        raise ValueError("need at least one sub-optimal expert")
    lo, hi = xi_range
    if not (0.0 < lo <= hi):
        raise ValueError("xi_range must be positive and ordered")
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(num_states), size=(num_states, num_actions))
    mdp = MdpNoReward(num_states, num_actions, p, gamma)
    optimal = Policy.deterministic(rng.integers(0, num_actions, size=num_states),
                                   num_actions)
    experts = []
    for _ in range(num_experts):
        probs = rng.dirichlet(np.ones(num_actions), size=num_states)
        xi = float(rng.uniform(lo, hi))
        experts.append(ExpertSpec(Policy(probs), xi, ConstraintMode.UPPER))
    return IrlSeProblem(mdp, optimal, tuple(experts))
