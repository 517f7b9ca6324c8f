"""Feasible reward sets: membership tests, canonical (zeta, V) parametrization,
zeta caps, volume upper bounds, and the H-representation polytope.

A problem bundles a tabular MDP without reward, the optimal expert's policy,
and any number of sub-optimal experts, each with a known performance-gap
budget xi and a constraint mode (gap <= xi, >= xi, or == xi).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mdp import (
    MdpNoReward,
    Policy,
    RewardFunction,
    mask_unsupported,
    occupancy_matrix,
    value_functions,
)

DEFAULT_TOL = 1e-8
COEF_CLEAN_TOL = 1e-12


class ConstraintMode(enum.Enum):
    """How an expert's performance gap V^{opt} - V^{expert} is constrained."""

    UPPER = "le"  # gap <= xi (the default, a known upper bound on sub-optimality)
    LOWER = "ge"  # gap >= xi
    EXACT = "eq"  # gap == xi


@dataclass(frozen=True)
class ExpertSpec:
    policy: Policy
    xi: float
    mode: ConstraintMode = ConstraintMode.UPPER

    def __post_init__(self):
        if not (0 < self.xi < np.inf):
            raise ValueError(f"xi must be finite and strictly positive, got {self.xi}")


@dataclass(frozen=True)
class IrlSeProblem:
    """An IRL problem with one optimal expert and n >= 0 sub-optimal experts."""

    mdp: MdpNoReward
    optimal_policy: Policy
    experts: tuple = ()

    def __post_init__(self):
        shape = (self.mdp.num_states, self.mdp.num_actions)
        if self.optimal_policy.probs.shape != shape:
            raise ValueError("optimal policy shape does not match MDP")
        experts = tuple(self.experts)
        for idx, ex in enumerate(experts):
            if ex.policy.probs.shape != shape:
                raise ValueError(f"expert {idx} policy shape does not match MDP")
        object.__setattr__(self, "experts", experts)

    @property
    def num_states(self) -> int:
        return self.mdp.num_states

    @property
    def num_actions(self) -> int:
        return self.mdp.num_actions

    @property
    def num_experts(self) -> int:
        return len(self.experts)

    @property
    def dim(self) -> int:
        return self.num_states * self.num_actions

    @property
    def _policies(self) -> tuple:
        return (self.optimal_policy, *(ex.policy for ex in self.experts))

    @cached_property
    def _occupancies(self) -> np.ndarray:
        """(n + 1, S, S) stack of the policies' occupancy matrices, the optimal
        policy's first; solved once, on first use, and shared read-only."""
        table = np.stack([occupancy_matrix(self.mdp, pi) for pi in self._policies])
        table.setflags(write=False)
        return table


@dataclass(frozen=True)
class Violation:
    condition: str  # "optimality_eq", "optimality_le", "expert_gap"
    state: int
    action: int  # -1 for state-level (expert gap) conditions
    margin: float  # positive amount by which the condition is violated
    expert: int = -1


@dataclass(frozen=True)
class MembershipReport:
    is_member: bool
    violations: tuple

    def __bool__(self) -> bool:
        return self.is_member


def _check_reward_box(problem: IrlSeProblem, r: RewardFunction, tol: float) -> np.ndarray:
    vals = np.asarray(r.values, dtype=float)
    if vals.shape != (problem.num_states, problem.num_actions):
        raise ValueError("reward shape does not match problem")
    if np.any(vals < -tol) or np.any(vals > 1.0 + tol):
        raise ValueError("reward lies outside [0, 1] beyond tolerance")
    return vals


def membership_implicit(problem: IrlSeProblem, r: RewardFunction,
                        tol: float = DEFAULT_TOL) -> MembershipReport:
    """Membership via the implicit conditions on Q/V of the optimal policy.

    (i) supported pairs have zero advantage, (ii) unsupported pairs have
    non-positive advantage, (iii) each expert's per-state value gap respects
    its xi constraint under its mode.
    """
    vals = _check_reward_box(problem, r, tol)
    pi1, occupancies = problem.optimal_policy, problem._occupancies
    # value_functions' arithmetic, so margins are bit for bit as evaluated
    v1 = occupancies[0] @ np.sum(pi1.probs * vals, axis=1)
    q1 = vals + problem.mdp.discount * (problem.mdp.transition @ v1)
    support = pi1.support_mask()
    diff = q1 - v1[:, None]
    margin = np.where(support, np.abs(diff), diff)
    bad = margin > tol
    violations = [
        Violation("optimality_eq" if eq else "optimality_le", s, a, m)
        for (s, a), eq, m in zip(np.argwhere(bad).tolist(), support[bad].tolist(),
                                 margin[bad].tolist())]
    for i, ex in enumerate(problem.experts):
        gap = v1 - occupancies[i + 1] @ np.sum(ex.policy.probs * vals, axis=1)
        if ex.mode is ConstraintMode.UPPER:
            margin = gap - ex.xi
        elif ex.mode is ConstraintMode.LOWER:
            margin = ex.xi - gap
        else:
            margin = np.abs(gap - ex.xi)
        bad = margin > max(tol, 0.0)
        violations += [Violation("expert_gap", s, -1, m, expert=i)
                       for s, m in zip(np.flatnonzero(bad).tolist(), margin[bad].tolist())]
    return MembershipReport(not violations, tuple(violations))


@dataclass(frozen=True)
class CanonicalParams:
    """The canonical decomposition r = -Bbar zeta + (E - gamma P) V."""

    zeta: np.ndarray  # (S, A), >= 0
    v: np.ndarray  # (S,)

    def __post_init__(self):
        zeta = np.asarray(self.zeta, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if np.any(zeta < 0):
            raise ValueError("zeta must be element-wise non-negative")
        object.__setattr__(self, "zeta", zeta)
        object.__setattr__(self, "v", v)


def reward_from_params(problem: IrlSeProblem, params: CanonicalParams):
    """Assemble r = -Bbar^{opt} zeta + (E - gamma P) V.

    Returns (values, in_box): the raw table and a flag telling whether it
    landed inside [0, 1]; out-of-box outputs are flagged, not rejected.
    """
    m, pi1 = problem.mdp, problem.optimal_policy
    zeta = np.asarray(params.zeta, dtype=float)
    v = np.asarray(params.v, dtype=float)
    if zeta.shape != pi1.probs.shape or v.shape != (m.num_states,):
        raise ValueError("parameter shapes do not match problem")
    shaping = v[:, None] - m.discount * (m.transition @ v)
    values = -mask_unsupported(pi1, zeta) + shaping
    in_box = bool(np.all(values >= -DEFAULT_TOL) and np.all(values <= 1.0 + DEFAULT_TOL))
    return values, in_box


def params_from_reward(problem: IrlSeProblem, r: RewardFunction,
                       tol: float = DEFAULT_TOL) -> CanonicalParams:
    """Canonical witness of a member reward: V = V^{opt}, zeta = -Adv masked.

    Raises ValueError when r is not a member; the canonical witness makes
    the round trip through reward_from_params exact.
    """
    report = membership_implicit(problem, r, tol)
    if not report:
        raise ValueError(f"reward is not a member ({len(report.violations)} violations)")
    _, v1, adv = value_functions(problem.mdp, r, problem.optimal_policy)
    zeta = np.clip(mask_unsupported(problem.optimal_policy, -adv), 0.0, None)
    return CanonicalParams(zeta, v1)


@dataclass(frozen=True)
class ZetaCaps:
    """Element-wise caps on zeta: g = min(k, 1/(1-gamma)) where k is finite."""

    g: np.ndarray  # (S, A)
    k: np.ndarray  # (S, A), +inf where no expert contributes
    contributing_experts: tuple  # tuple of tuples, expert indices per (s, a)


def zeta_caps(problem: IrlSeProblem) -> ZetaCaps:
    """Necessary caps on zeta from the experts' occupancy-weighted constraints.

    For each pair (s, a) unplayed by the optimal expert, k(s, a) minimizes
    xi_i / max_{s'} D_i[s', s] pi_i(a|s) over experts i (D_i pi_i is the
    expert's value functional); weights at most COEF_CLEAN_TOL impose nothing.
    The contributing experts of a pair are those that play it.
    """
    horizon = 1.0 / (1.0 - problem.mdp.discount)
    unplayed = ~problem.optimal_policy.support_mask()
    probs = np.stack([pi.probs for pi in problem._policies])[1:]
    # exactly max_{s'} of D_i[s', s] pi_i(a|s): rounding keeps order for pi >= 0
    top = problem._occupancies[1:].max(axis=1)[..., None] * probs
    xi = np.array([ex.xi for ex in problem.experts])[:, None, None]
    caps = np.divide(xi, top, out=np.full(top.shape, np.inf), where=top > COEF_CLEAN_TOL)
    k = np.where(unplayed, caps.min(axis=0, initial=np.inf), np.inf)
    g = np.where(np.isfinite(k), np.minimum(k, horizon), horizon)
    # flags[s][a][i]: expert i plays the unplayed pair (s, a)
    flags = np.moveaxis((probs > 0.0) & unplayed, 0, -1).tolist()
    return ZetaCaps(g, k, tuple(tuple(tuple(i for i, on in enumerate(pair) if on)
                                      for pair in row) for row in flags))


def volume_upper_bounds(problem: IrlSeProblem):
    """Upper bounds on the volume of feasible zeta values over unplayed pairs:
    the single-agent product of 1/(1-gamma) and the expert-capped product of g."""
    horizon = 1.0 / (1.0 - problem.mdp.discount)
    unplayed = ~problem.optimal_policy.support_mask()
    caps = zeta_caps(problem)
    single = float(horizon ** np.count_nonzero(unplayed))
    multi = float(np.prod(caps.g[unplayed])) if np.any(unplayed) else 1.0
    return single, multi


@dataclass(frozen=True)
class RewardPolytope:
    """H-representation {r : G vec(r) <= h} of a feasible reward set.

    vec(r) flattens the (S, A) table row-major. Labels record each row's
    provenance ("box", "optimality", "equality", "expert:i").
    """

    num_states: int
    num_actions: int
    G: np.ndarray
    h: np.ndarray
    labels: tuple

    @property
    def dim(self) -> int:
        return self.num_states * self.num_actions

    def contains(self, r, tol: float = DEFAULT_TOL) -> bool:
        vec = np.asarray(r.values if isinstance(r, RewardFunction) else r,
                         dtype=float).reshape(-1)
        return bool(np.all(self.G @ vec <= self.h + tol))

    def contains_many(self, rewards: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Vectorized membership for an (N, dim) array of flattened rewards."""
        return np.all(rewards @ self.G.T <= self.h[None, :] + tol, axis=1)


def polytope_h_rep(problem: IrlSeProblem) -> RewardPolytope:
    """Affine transcription of the membership conditions into G vec(r) <= h.

    Rows, in order: the box (r_j <= 1, then -r_j <= 0, per coordinate); per
    pair, adv(s, a) <= 0 (adv = Q - V of the optimal policy) if that policy
    does not play a, else the pair adv(s, a) <= 0, -adv(s, a) <= 0; then each
    expert's gap rows by state. Equality pairs come only from states with
    k >= 2 played actions, for all but the most likely (the first on a tie):
    as sum_a pi(a|s) adv(s, a) = 0 for every reward, its row is implied.
    Non-box rows the unit box implies are dropped, and of the rows that scale
    to the same direction only the tightest is kept (the first on a tie), so
    a tighter row in its direction replaces a box row.
    """
    S, A = problem.num_states, problem.num_actions
    d = S * A
    m, pi1 = problem.mdp, problem.optimal_policy
    probs = np.stack([pi.probs for pi in problem._policies])
    # value functionals, V = w[i] vec(r): w[i, s, (s', a)] = D_i[s, s'] pi_i(a|s')
    w = (problem._occupancies[..., None] * probs[:, None]).reshape(-1, S, d)
    adv = (np.eye(d) + m.discount * (m.transition.reshape(d, S) @ w[0])
           - np.repeat(w[0], A, axis=0))
    support = pi1.support_mask()
    equality = (support & (support.sum(axis=1, keepdims=True) >= 2)
                & (np.arange(A) != pi1.probs.argmax(axis=1)[:, None]))

    # candidate rows f <= b, -f <= b' for each functional f; `emit` picks rows
    funcs = [np.eye(d), adv]
    bounds = [np.tile([1.0, 0.0], (d, 1)), np.zeros((d, 2))]
    emit = [np.ones((d, 2), dtype=bool),
            np.stack([~support | equality, equality], axis=-1).reshape(d, 2)]
    labels = [np.full((d, 2), "box"),
              np.stack([np.where(support, "equality", "optimality"),
                        np.full((S, A), "equality")], axis=-1).reshape(d, 2)]
    for i, ex in enumerate(problem.experts):
        funcs.append(w[0] - w[i + 1])  # per-state gaps
        bounds.append(np.tile([ex.xi, -ex.xi], (S, 1)))
        emit.append(np.tile([ex.mode is not ConstraintMode.LOWER,
                             ex.mode is not ConstraintMode.UPPER], (S, 1)))
        labels.append(np.full((S, 2), f"expert:{i}"))
    emit = np.concatenate(emit).ravel()
    G = np.concatenate([np.stack([f, -f], axis=1) for f in funcs]).reshape(-1, d)[emit]
    h = np.concatenate(bounds).ravel()[emit]
    labels = np.concatenate(labels).ravel()[emit]
    G[np.abs(G) < COEF_CLEAN_TOL] = 0.0
    keep = _irredundant_rows(G, h, labels == "box")
    return RewardPolytope(S, A, G[keep], h[keep], tuple(labels[keep].tolist()))


def _irredundant_rows(G: np.ndarray, h: np.ndarray, box: np.ndarray) -> np.ndarray:
    """Sorted indices of the rows to keep: no non-box row that the unit box
    implies, and per direction (a row over its max |entry|, to 1e-10) the row
    with the tightest scaled bound, the first on a tie."""
    # a row the box implies has max over [0, 1]^d of row . r at most its bound
    rows = np.flatnonzero(box | (np.clip(G, 0.0, None).sum(axis=1) > h + COEF_CLEAN_TOL))
    scale = np.abs(G[rows]).max(axis=1)
    # a zero row that got past the box test reads 0 <= h with h < 0, so the
    # set is empty; scaled to 0 <= -1, one such row is kept
    scale = np.where(scale > COEF_CLEAN_TOL, scale, -h[rows])
    direction = np.round(G[rows] / scale[:, None], 10)
    # by direction, then bound; the sort is stable, so ties keep row order
    order = np.lexsort(np.vstack([np.round(h[rows] / scale, 10), direction.T]))
    first = np.r_[True, np.any(np.diff(direction[order], axis=0) != 0, axis=1)]
    return np.sort(rows[order[first]])
