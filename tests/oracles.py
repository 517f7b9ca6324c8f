"""Independent oracles the tests check the package against: Q-level
membership, the per-expert constraints on zeta and its per-pair caps, value iteration, the
per-pair H-representation builder with its greedy row dedupe, the
row-by-row simplex (lp_solve's one path: from the all-slack basis, the
dual simplex on zero costs as phase one where some bound is negative,
then the primal simplex), the pairwise vertex dedupe, the per-vertex double
description of a tangent cone (refine_loop), vertices from every row
subset, HiGHS point-to-polytope distances over those vertices, and the
directed supremum that solves one distance LP per point; plus the problem
builders several test modules share."""
import itertools
from dataclasses import dataclass, replace

import numpy as np

from irlse import hausdorff
from irlse.feasible import (
    COEF_CLEAN_TOL,
    DEFAULT_TOL,
    ConstraintMode,
    ExpertSpec,
    IrlSeProblem,
    MembershipReport,
    RewardPolytope,
    Violation,
    ZetaCaps,
    _check_reward_box,
)
from irlse.hausdorff import (
    DEDUPE_TOL,
    LP_TOL,
    LinearProgram,
    LpResult,
    directed_distance,
)
from irlse.mdp import (
    MdpNoReward,
    Policy,
    RewardFunction,
    apply_policy,
    mask_unsupported,
    occupancy_matrix,
    policy_transition_matrix,
    value_functions,
)


def without_expert(problem: IrlSeProblem, index: int) -> IrlSeProblem:
    """The same problem with sub-optimal expert `index` deleted."""
    return replace(
        problem, experts=tuple(ex for j, ex in enumerate(problem.experts) if j != index))


def near_one_discount_problems(seed, gamma, modes):
    """One problem per expert mode on a shared 3x2 MDP whose optimal policy
    is stochastic in state 0; each has a single expert of that mode."""
    rng = np.random.default_rng(seed)
    S, A = 3, 2
    mdp = MdpNoReward(S, A, rng.dirichlet(np.ones(S), size=(S, A)), gamma)
    probs = np.eye(A)[rng.integers(0, A, size=S)]
    probs[0] = rng.dirichlet(np.ones(A))
    problems = []
    for mode in modes:
        expert = ExpertSpec(Policy(rng.dirichlet(np.ones(A), size=S)),
                            float(rng.uniform(0.1, 0.5)), mode)
        problems.append(IrlSeProblem(mdp, Policy(probs), (expert,)))
    return problems


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


def expert_zeta_load(problem: IrlSeProblem, expert: ExpertSpec, zeta: np.ndarray) -> np.ndarray:
    """Per-state load y = D^{expert} (pi_expert applied to Bbar^{opt} zeta)."""
    masked = mask_unsupported(problem.optimal_policy, zeta)
    per_state = apply_policy(expert.policy, masked)
    d = occupancy_matrix(problem.mdp, expert.policy)
    return d @ per_state


@dataclass(frozen=True)
class ZetaConstraintVerdict:
    satisfied: bool
    slack: np.ndarray  # xi - y per state


def check_zeta_constraints(problem: IrlSeProblem, zeta, tol: float = DEFAULT_TOL):
    """Check the per-expert linear constraints on zeta; returns one verdict
    per expert with the slack vector xi - y."""
    zeta = np.asarray(zeta, dtype=float)
    if np.any(zeta < -tol):
        raise ValueError("zeta must be non-negative")
    verdicts = []
    for ex in problem.experts:
        y = expert_zeta_load(problem, ex, zeta)
        slack = ex.xi - y
        if ex.mode is ConstraintMode.UPPER:
            ok = bool(np.all(slack >= -tol))
        elif ex.mode is ConstraintMode.LOWER:
            ok = bool(np.all(slack <= tol))
        else:
            ok = bool(np.all(np.abs(slack) <= tol))
        verdicts.append(ZetaConstraintVerdict(ok, slack))
    return verdicts


def value_iteration_values(m: MdpNoReward, r: RewardFunction, pi: Policy,
                           sweeps: int = 500) -> np.ndarray:
    """Truncated power-series evaluation of V^pi; test oracle for value_functions."""
    trans = policy_transition_matrix(m, pi)
    rew = apply_policy(pi, r.values)
    v = np.zeros(m.num_states)
    for _ in range(sweeps):
        v = rew + m.discount * trans @ v
    return v


def value_functional(m: MdpNoReward, pi: Policy) -> np.ndarray:
    """Matrix W with V^{pi} = W vec(r): W = (I - gamma pi P)^{-1} diag-expand(pi)."""
    S, A = pi.probs.shape
    # (pi r)(s') = sum_a pi[s',a] r[s',a], so W[s, (s', a)] = D[s, s'] pi[s', a]
    return (occupancy_matrix(m, pi)[:, :, None] * pi.probs[None]).reshape(S, S * A)


def zeta_caps_loop(problem: IrlSeProblem) -> ZetaCaps:
    """Necessary caps on zeta from the experts' occupancy-weighted constraints.

    For each pair unplayed by the optimal expert, k(s,a) minimizes
    xi_i / (d^{expert_i}_{s'}(s) * pi_i(a|s)) over contributing experts i and
    start states s'; occupancy terms that are zero impose nothing and are
    skipped. The per-pair loop zeta_caps replaced; it must give
    byte-identical g, k and contributing experts.
    """
    S, A = problem.num_states, problem.num_actions
    horizon = 1.0 / (1.0 - problem.mdp.discount)
    support1 = problem.optimal_policy.support_mask()
    k = np.full((S, A), np.inf)
    contributing = [[() for _ in range(A)] for _ in range(S)]
    occupancies = [occupancy_matrix(problem.mdp, ex.policy) for ex in problem.experts]
    for s in range(S):
        for a in range(A):
            if support1[s, a]:
                continue
            contrib = tuple(i for i, ex in enumerate(problem.experts)
                            if ex.policy.probs[s, a] > 0.0)
            contributing[s][a] = contrib
            best = np.inf
            for i in contrib:
                ex = problem.experts[i]
                weights = occupancies[i][:, s] * ex.policy.probs[s, a]
                positive = weights[weights > COEF_CLEAN_TOL]
                if positive.size:
                    best = min(best, float(ex.xi / positive.max()))
            k[s, a] = best
    g = np.where(np.isfinite(k), np.minimum(k, horizon), horizon)
    return ZetaCaps(g, k, tuple(tuple(row) for row in contributing))


def h_rep_loop(problem: IrlSeProblem) -> RewardPolytope:
    """Affine transcription of the membership conditions into G vec(r) <= h.

    Emits box rows, optimality rows for pairs unplayed by the optimal expert,
    paired equality rows for supported pairs when the optimal policy is
    stochastic, and per-state expert-gap rows per mode. Best-effort redundancy
    elimination drops rows implied by the box or by a scaled duplicate.

    The per-pair builder polytope_h_rep replaced; for an optimal policy that
    is deterministic it must give byte-identical G, h and labels.
    """
    S, A = problem.num_states, problem.num_actions
    d = S * A
    m, pi1 = problem.mdp, problem.optimal_policy
    w_v1 = value_functional(m, pi1)
    p_flat = m.transition.reshape(d, S)
    w_q1 = np.eye(d) + m.discount * (p_flat @ w_v1)

    # box rows interleaved per coordinate: r_j <= 1, then -r_j <= 0
    rows = list(np.stack([np.eye(d), -np.eye(d)], axis=1).reshape(2 * d, d))
    bounds = [1.0, 0.0] * d
    labels = ["box"] * (2 * d)

    support = pi1.support_mask()
    deterministic = bool(np.all(support.sum(axis=1) == 1))
    for s in range(S):
        for a in range(A):
            row = w_q1[s * A + a] - w_v1[s]
            if not support[s, a]:
                rows.append(row)
                bounds.append(0.0)
                labels.append("optimality")
            elif not deterministic:
                rows.append(row)
                bounds.append(0.0)
                labels.append("equality")
                rows.append(-row)
                bounds.append(0.0)
                labels.append("equality")

    for i, ex in enumerate(problem.experts):
        w_vi = value_functional(m, ex.policy)
        gap_rows = w_v1 - w_vi  # per-state gap functionals
        for s in range(S):
            if ex.mode in (ConstraintMode.UPPER, ConstraintMode.EXACT):
                rows.append(gap_rows[s])
                bounds.append(ex.xi)
                labels.append(f"expert:{i}")
            if ex.mode in (ConstraintMode.LOWER, ConstraintMode.EXACT):
                rows.append(-gap_rows[s])
                bounds.append(-ex.xi)
                labels.append(f"expert:{i}")

    G = np.array(rows)
    h = np.array(bounds)
    G[np.abs(G) < COEF_CLEAN_TOL] = 0.0
    G, h, labels = _drop_redundant_rows_loop(G, h, labels)
    return RewardPolytope(S, A, G, h, tuple(labels))


def _drop_redundant_rows_loop(G: np.ndarray, h: np.ndarray, labels):
    """Drop rows implied by the unit box alone or by a scaled duplicate row.

    Box rows themselves are always kept; exact minimality is not attempted.
    """
    keep = []
    # normalized kept rows and bounds, filled up to len(keep)
    kept_rows = np.empty(G.shape)
    kept_bounds = np.empty(h.shape)
    for idx in range(G.shape[0]):
        row, bound, label = G[idx], h[idx], labels[idx]
        if label != "box":
            # implied by the box: max of row . r over [0,1]^d
            if np.sum(np.clip(row, 0.0, None)) <= bound + COEF_CLEAN_TOL:
                continue
        scale = np.max(np.abs(row))
        if scale <= COEF_CLEAN_TOL:
            # a zero row that got past the box test reads 0 <= h with h < 0,
            # so the set is empty; scaled to 0 <= -1, one such row is kept
            scale = -bound
        normed_row, normed_bound = row / scale, bound / scale
        k = len(keep)
        duplicate = ((np.max(np.abs(kept_rows[:k] - normed_row), axis=1) < 1e-10)
                     & (kept_bounds[:k] <= normed_bound + 1e-10))
        if np.any(duplicate):
            continue
        kept_rows[k], kept_bounds[k] = normed_row, normed_bound
        keep.append(idx)
    return G[keep], h[keep], [labels[i] for i in keep]


def _pivot_loop(tableau: np.ndarray, rhs: np.ndarray, basis: np.ndarray, row: int, col: int):
    piv = tableau[row, col]
    tableau[row] /= piv
    rhs[row] /= piv
    for i in range(tableau.shape[0]):
        if i != row and abs(tableau[i, col]) > 0.0:
            factor = tableau[i, col]
            tableau[i] -= factor * tableau[row]
            rhs[i] -= factor * rhs[row]
    basis[row] = col


def _simplex_phase_loop(tableau, rhs, basis, costs):
    """The simplex on a tableau already in basic feasible form: the most
    negative reduced cost enters (the first on a tie), and after
    hausdorff._BLAND_AFTER degenerate pivots in a row the first improving
    column does (Bland's rule) until a pivot makes progress.

    Returns ("optimal" | "unbounded", pivots made); mutates tableau/rhs/basis
    in place.
    """
    m = tableau.shape[0]
    pivots = streak = 0
    while True:
        cb = costs[basis]
        reduced = costs - cb @ tableau
        entering = -1
        for j in range(tableau.shape[1]):
            if reduced[j] < -LP_TOL:
                if streak >= hausdorff._BLAND_AFTER:
                    entering = j
                    break
                if entering < 0 or reduced[j] < reduced[entering]:
                    entering = j
        if entering < 0:
            return "optimal", pivots
        # a pivot needs LP_TOL relative to the column's largest entry above 1
        largest = 1.0
        for i in range(m):
            largest = max(largest, abs(tableau[i, entering]))
        best_ratio, leave = None, -1
        for i in range(m):
            if tableau[i, entering] > LP_TOL * largest:
                ratio = rhs[i] / tableau[i, entering]
                if (best_ratio is None or ratio < best_ratio - LP_TOL
                        or (abs(ratio - best_ratio) <= LP_TOL and basis[i] < basis[leave])):
                    best_ratio, leave = ratio, i
        if leave < 0:
            return "unbounded", pivots
        _pivot_loop(tableau, rhs, basis, leave, entering)
        pivots += 1
        streak = streak + 1 if best_ratio <= LP_TOL else 0


def _dual_phase_loop(tableau, rhs, basis, costs):
    """The dual simplex on a tableau whose reduced costs are feasible, one
    entry at a time: the row with the most negative basic value leaves (the
    first on a tie), and after hausdorff._BLAND_AFTER degenerate pivots in a
    row the row below -LP_TOL with the lowest basic index does. The entries
    below -LP_TOL relative to the row's largest entry above 1 are eligible;
    Harris' bound, the smallest (reduced cost + LP_TOL) / -entry over them,
    admits every column whose ratio reduced cost / -entry is within it, and
    of those the largest entry enters (the first on a tie; under Bland's
    rule, the first column). A pivot is degenerate when it returns to a set
    of basic columns the phase has already visited.

    Returns ("feasible" | "infeasible", pivots made); mutates
    tableau/rhs/basis in place.
    """
    m, n = tableau.shape
    pivots = streak = 0
    visited = [sorted(basis.tolist())]
    while True:
        bland = streak >= hausdorff._BLAND_AFTER
        row = -1
        for i in range(m):
            if bland:
                if rhs[i] < -LP_TOL and (row < 0 or basis[i] < basis[row]):
                    row = i
            elif rhs[i] < -LP_TOL and (row < 0 or rhs[i] < rhs[row]):
                row = i
        if row < 0:
            return "feasible", pivots
        largest = 1.0
        for j in range(n):
            largest = max(largest, abs(tableau[row, j]))
        eligible = [j for j in range(n) if tableau[row, j] < -LP_TOL * largest]
        if not eligible:
            return "infeasible", pivots
        reduced = costs - costs[basis] @ tableau
        bound = min((reduced[j] + LP_TOL) / -tableau[row, j] for j in eligible)
        entering = -1
        for j in eligible:
            if reduced[j] / -tableau[row, j] <= bound and (
                    entering < 0 or (not bland and tableau[row, j] < tableau[row, entering])):
                entering = j
        _pivot_loop(tableau, rhs, basis, row, entering)
        pivots += 1
        columns = sorted(basis.tolist())
        streak = streak + 1 if columns in visited else 0
        visited.append(columns)


def lp_solve_loop(lp: LinearProgram) -> LpResult:
    """irlse.lp_solve's steps on the row-by-row simplex kernels: the
    all-slack tableau built one entry at a time; when some bound is below
    -LP_TOL, the dual simplex on the costs if they are dual feasible (at
    the all-slack basis the reduced costs are the costs), else on zero
    costs as phase one; then the primal simplex, and an optimal basis'
    values take lp_solve's refinement step. Test oracle for the vectorised
    kernels, which must take the same pivots and return bit-identical
    results."""
    G, h, c = lp.G, lp.h, lp.c
    m, d = G.shape
    tableau = np.zeros((m, 2 * d + m))
    costs = np.zeros(2 * d + m)
    basis = np.empty(m, dtype=int)
    for i in range(m):
        for j in range(d):
            tableau[i, j] = G[i, j]
            tableau[i, d + j] = -G[i, j]
        tableau[i, 2 * d + i] = 1.0
        basis[i] = 2 * d + i
    for j in range(d):
        costs[j] = c[j]
        costs[d + j] = -c[j]
    columns = tableau.copy()
    rhs = h.copy()
    one = two = 0
    if any(bound < -LP_TOL for bound in h):
        if all(cost >= -LP_TOL for cost in costs):
            status, two = _dual_phase_loop(tableau, rhs, basis, costs)
        else:
            status, one = _dual_phase_loop(tableau, rhs, basis, np.zeros_like(costs))
        if status == "infeasible":
            return LpResult("infeasible", None, None, (one, two))
    status, primal = _simplex_phase_loop(tableau, rhs, basis, costs)
    pivots = (one, two + primal)
    if status == "unbounded":
        return LpResult("unbounded", None, None, pivots)
    residual = h - columns[:, basis] @ rhs
    rhs = rhs + tableau[:, 2 * d:] @ residual
    full = np.zeros(2 * d + m)
    for i in range(m):
        full[basis[i]] = rhs[i]
    x = full[:d] - full[d:2 * d]
    return LpResult("optimal", float(c @ x), x, pivots)


def drop_near_duplicates_loop(pool: np.ndarray) -> np.ndarray:
    """The tolerance dedupe of enumerate_vertices, one comparison per
    (point, kept vertex) pair; oracle for the vectorised pass, which must
    keep the same points in the same order."""
    d = pool.shape[1]
    vertices: list[np.ndarray] = []
    for point in pool:
        for known in vertices:
            if np.max(np.abs(known - point)) < DEDUPE_TOL:
                break
        else:
            vertices.append(point)
    return np.array(vertices).reshape(len(vertices), d)


def refine_loop(rays: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Extreme rays of {u : rows u <= 0}, where the first dim rows are a
    basis with the simplicial cone `rays` (max-norm 1), by double
    description (Fukuda & Prodon, 1996), one cone at a time: each further
    row removes the rays it is positive on, and each positive ray that is
    adjacent to a negative one (no third ray lies on every row both lie on)
    combines with it into a ray on that row. Oracle for the batched
    double description of _neighbours, which must return the same rays in
    the same order."""
    d = rays.shape[1]
    for k in range(d, len(rows)):
        s = rays @ rows[k]
        pos = s > LP_TOL
        if not pos.any():
            continue
        off = np.abs(rays @ rows[:k].T) > LP_TOL
        p, q = np.flatnonzero(pos), np.flatnonzero(s < -LP_TOL)
        common = ~(off[p][:, None, :] | off[q][None, :, :]).reshape(-1, k)
        # rays lying on every row of `common`: the pair itself, and any third
        holding = np.count_nonzero(off.astype(float) @ common.T == 0.0, axis=0)
        i, j = np.divmod(np.flatnonzero((holding == 2) & (common.sum(axis=1) >= d - 2)),
                         len(q))
        new = s[p[i], None] * rays[q[j]] - s[q[j], None] * rays[p[i]]
        rays = np.vstack([rays[~pos], new / np.max(np.abs(new), axis=1, keepdims=True)])
    return rays


# vertices are exact up to rounding; tight tolerances keep HiGHS from
# stopping at a point that is only 1e-7-feasible
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10}


def vertices_by_subsets(G: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Every vertex of {x : G x <= h}: solve every dim-subset of rows, keep
    the feasible solutions, and drop near-duplicates (a coarse pass by
    rounding, then the pairwise loop). Subsets go through batched
    determinant, solve and feasibility steps 50,000 at a time, so a
    C(23, 8) scan stays small in memory; oracle for enumerate_vertices."""
    d = G.shape[1]
    subsets = itertools.combinations(range(G.shape[0]), d)
    found = [np.empty((0, d))]
    while block := list(itertools.islice(subsets, 50_000)):
        block = np.array(block, dtype=int).reshape(len(block), d)
        subs = G[block]
        regular = np.abs(np.linalg.det(subs)) > 1e-12
        points = np.linalg.solve(subs[regular], h[block][regular][..., None])[..., 0]
        points = points[np.all(np.isfinite(points), axis=1)]
        found.append(points[np.all(points @ G.T <= h + 1e-8, axis=1)])
    pool = np.vstack(found)
    _, first = np.unique(np.round(pool, 8), axis=0, return_index=True)
    return drop_near_duplicates_loop(pool[np.sort(first)])


def highs_is_empty(G: np.ndarray, h: np.ndarray) -> bool:
    """Whether HiGHS finds {x : G x <= h} infeasible."""
    from scipy.optimize import linprog
    res = linprog(np.zeros(G.shape[1]), A_ub=G, b_ub=h, bounds=(None, None),
                  method="highs", options=HIGHS_OPTIONS)
    assert res.status in (0, 2), res.message
    return res.status == 2


def highs_support_points(directions: np.ndarray, G: np.ndarray, h: np.ndarray) -> np.ndarray:
    """argmax of direction . x over {x : G x <= h}, one row per direction."""
    from scipy.optimize import linprog
    points = []
    for direction in directions:
        res = linprog(-direction, A_ub=G, b_ub=h, bounds=(None, None),
                      method="highs", options=HIGHS_OPTIONS)
        assert res.status == 0, res.message
        points.append(res.x)
    return np.array(points).reshape(len(directions), G.shape[1])


def highs_distances(points: np.ndarray, G: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Infinity-norm distance from each of `points` to {x : G x <= h}: one
    HiGHS LP in (x, t) per point, solved together as a block-diagonal LP."""
    from scipy import sparse
    from scipy.optimize import linprog
    k, d = points.shape
    block = np.vstack([np.hstack([G, np.zeros((G.shape[0], 1))]),
                       np.hstack([np.eye(d), -np.ones((d, 1))]),
                       np.hstack([-np.eye(d), -np.ones((d, 1))])])
    rhs = np.concatenate([np.concatenate([h, p, -p]) for p in points])
    cost = np.tile(np.r_[np.zeros(d), 1.0], k)
    res = linprog(cost, A_ub=sparse.block_diag([block] * k, format="csr"), b_ub=rhs,
                  bounds=(None, None), method="highs", options=HIGHS_OPTIONS)
    assert res.status == 0, res.message
    return res.x.reshape(k, d + 1)[:, -1]


def highs_directed_sup(points: np.ndarray, G: np.ndarray, h: np.ndarray) -> float:
    """Largest infinity-norm distance from `points` to {x : G x <= h}."""
    return float(np.max(highs_distances(points, G, h)))


def directed_sup_loop(points: np.ndarray, target: RewardPolytope, anchors: np.ndarray) -> float:
    """Largest distance from `points` to `target`. Each LP starts from the
    anchor (a point of `target`) nearest to its query point, so T is the
    tightest upper bound at hand."""
    best = 0.0
    for point in points:
        nearest = anchors[np.argmin(np.max(np.abs(anchors - point), axis=1))]
        best = max(best, directed_distance(point, target, inside=nearest))
    return best


def distance_bounds_loop(points: np.ndarray, target: RewardPolytope, anchors: np.ndarray):
    """The bounds of hausdorff._distance_bounds, one point at a time; oracle
    for the blocked pass, which must give the same bytes."""
    norms = np.sum(np.abs(target.G), axis=1)
    live = norms > 0.0
    G, h, norms = target.G[live], target.h[live], norms[live]
    n = len(points)
    lower, upper = np.empty(n), np.empty(n)
    nearest = np.empty(n, dtype=int)
    for i, point in enumerate(points):
        gaps = np.max(np.abs(anchors - point), axis=1)
        nearest[i] = np.argmin(gaps)
        upper[i] = gaps[nearest[i]]
        lower[i] = np.max((G @ point - h) / norms, initial=0.0)
    return lower, upper, nearest
