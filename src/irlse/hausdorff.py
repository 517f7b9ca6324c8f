"""Small dense LP core and Hausdorff distances between reward polytopes.

The metric is the infinity norm throughout. Distances from a point to a
polytope are one LP, shifted to a known point of its feasible region so
that it needs no phase one; the supremum side of the Hausdorff distance is
taken over polytope vertices (the point-to-set distance is convex, so it is
attained at a vertex), enumerated for small dimensions by a walk over the
vertex graph or sampled via random LP objectives for a certified lower
bound. The walk leaves a vertex along the extreme rays of its tangent cone:
the rays of d independent tight rows, refined by double description with
the vertex's other tight rows, so a degenerate vertex costs its edges, not
every (d - 1)-subset of its tight rows. Each round of the walk works on its
whole frontier in array passes: one double description over all of its
degenerate vertices (_refine_cones), and one dedupe of the edge ends that
compares each only with the points in its window of a sort by a fixed
weighted sum (_unseen); neither loops over vertices or points in Python.

The supremum solves an LP only for a point that can still raise it. Each
point has an upper bound U, its distance to the nearest point of the other
side (which lies in the target polytope), and a lower bound
L = max over rows of (g . v - h)+ / ||g||_1, its distance to the farthest
half-space of the target. Points are visited by decreasing U; the search
stops at the first U at or below the best distance so far, a point that
violates no row adds 0, and a point with L >= U is at distance U. On the
d = 6 sweep pairs that leaves 4,069 of 8,709 LPs, with the same values.

The LP core is one dense tableau per matrix (_Simplex). Each solve starts
from a basis, the first from the all-slack one; a negative basic value (a
negative bound, in a first solve) runs the dual simplex, on zero costs as
phase one unless the basis is dual feasible, then the primal simplex.
Pricing enters the most negative reduced cost and turns to Bland's rule
after _BLAND_AFTER degenerate pivots in a row. LPs that share a matrix
share the tableau: the support LPs of one polytope differ only in their
costs, so each continues the primal simplex from the last optimum, and the
distance LPs to one target differ only in their right-hand side, so each
runs a dual simplex from the last optimal basis. On the d = 20
lower-bound pairs that is about 30 pivots per LP, against about 68 with
every LP cold under Bland's rule. A pivot needs LP_TOL relative to the
largest entry of its column (or row, in the dual), so rounding left by
earlier pivots is never divided by. Every optimum's basic values take one
step of iterative refinement and are checked, with the duals, against the
basis' original columns; every LP point is checked against its polytope
row-relative.
"""
from __future__ import annotations

import contextvars
import enum
from dataclasses import dataclass

import numpy as np

from .feasible import RewardPolytope

LP_TOL = 1e-9
FEAS_TOL = 1e-8
DEDUPE_TOL = 1e-7
DEFAULT_ENUM_CAP = 10
_BLOCK = 1 << 16  # elements of one block of an array pass over points or cones
_BLAND_AFTER = 50  # degenerate pivots in a row before pricing turns to Bland's rule
_PIVOT_CAP = 50_000  # pivots one simplex phase may make before it raises
# [LPs solved, pivots made] within the running hausdorff_distance call
_LP_TALLY: contextvars.ContextVar = contextvars.ContextVar("_LP_TALLY", default=None)


class EmptyPolytopeError(ValueError):
    """Raised when a distance query hits an empty polytope."""


class DimensionCapError(ValueError):
    """Raised when a polytope's dimension exceeds the vertex-enumeration cap."""


class SimplexError(RuntimeError):
    """Raised when the simplex gives up: a phase reaches _PIVOT_CAP pivots,
    the basis becomes singular, an optimum fails its check after the tableau
    is rebuilt, or a distance LP ends other than optimal."""


class InfeasiblePointError(ValueError):
    """Raised when an LP optimum or a given point of a polytope violates one
    of its rows by more than FEAS_TOL; no number is computed from it."""


@dataclass(frozen=True)
class LinearProgram:
    """min c . x  subject to  G x <= h, x free."""

    c: np.ndarray
    G: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        G = np.asarray(self.G, dtype=float)
        h = np.asarray(self.h, dtype=float)
        if G.ndim != 2 or c.shape != (G.shape[1],) or h.shape != (G.shape[0],):
            raise ValueError("inconsistent LP shapes")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(G)) and np.all(np.isfinite(h))):
            raise ValueError("LP data must be finite")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "h", h)


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: float | None
    x: np.ndarray | None
    # pivots in phase one (the dual simplex on zero costs) and phase two; a
    # feasibility LP (c = 0) is dual feasible, so all its pivots are phase two
    pivots: tuple[int, int] = (0, 0)


def _pivot(tableau: np.ndarray, rhs: np.ndarray, basis: np.ndarray, row: int, col: int):
    """Make `col` basic in `row`: scale the row, then eliminate the column
    from every other row with a nonzero entry in one rank-1 update."""
    piv = tableau[row, col]
    tableau[row] /= piv
    rhs[row] /= piv
    factors = tableau[:, col].copy()
    factors[row] = 0.0
    # rows with a zero factor stay untouched, like the pivot row: subtracting
    # 0 * x could turn a -0.0 entry into +0.0 and change the sign of a zero in x
    rows = factors.nonzero()[0]
    tableau[rows] -= factors[rows, None] * tableau[row]
    rhs[rows] -= factors[rows] * rhs[row]
    basis[row] = col


def _pivot_tol(line: np.ndarray) -> float:
    """The smallest magnitude a tableau entry needs to be a pivot: LP_TOL,
    relative to the largest entry of its column or row when that exceeds 1.
    A smaller entry is rounding left by earlier pivots, and dividing by it
    would blow the tableau up."""
    return LP_TOL * max(1.0, float(np.abs(line).max()))


def _leaving_row(column: np.ndarray, rhs: np.ndarray, basis: np.ndarray):
    """The primal ratio test: (row, ratio) of the smallest rhs / column over
    the rows with column > _pivot_tol(column), or (-1, None) when there is
    none. Within LP_TOL of the best so far, the smaller basis index wins
    (Bland), applied in row order."""
    eligible = (column > _pivot_tol(column)).nonzero()[0]
    if eligible.size == 0:
        return -1, None
    ratios = rhs[eligible] / column[eligible]
    best_ratio, leave = None, -1
    for i, ratio in zip(eligible.tolist(), ratios.tolist()):
        if (best_ratio is None or ratio < best_ratio - LP_TOL
                or (abs(ratio - best_ratio) <= LP_TOL and basis[i] < basis[leave])):
            best_ratio, leave = ratio, i
    return leave, best_ratio


class _Simplex:
    """A dense simplex tableau for the LPs min c . x, G x <= h, x free, that
    share one matrix G: columns x+ | x- | slacks, one row per row of G.

    Every solve restarts from a basis (_restart): the first from the
    all-slack one, whose basic values are h, each later one from the last.
    The slack columns hold B^-1, so a new h gives the basic values B^-1 h at
    once. A negative basic value runs a dual simplex, on the costs when the
    basis is dual feasible for them (a basis optimal for the old costs stays
    so under a new h), else on zero costs as a phase one; a primal simplex
    then takes the costs from the feasible basis.

    Pricing enters the most negative reduced cost (the lowest index on a
    tie); after _BLAND_AFTER degenerate pivots in a row it enters the first
    improving column (Bland's rule) until a pivot makes progress. A phase
    that reaches _PIVOT_CAP pivots raises SimplexError.

    Every optimum is checked against the basis' original columns: its basic
    values take one step of iterative refinement, then must solve B x = b
    and, with the refined duals, be feasible, all to LP_TOL. Rounding grown
    over many warm pivots fails that check; the tableau is then rebuilt
    from the basis (one solve) and the simplex goes on from there.
    """

    def __init__(self, G: np.ndarray):
        self.G = G
        self.tableau = None  # no basis until the first solve

    def _start(self, b: np.ndarray):
        """The all-slack basis, with basic values b (negative ones too)."""
        m, d = self.G.shape
        self.columns = np.hstack([self.G, -self.G, np.eye(m)])
        self.tableau = self.columns.copy()
        self.b = self.h = b
        self.rhs = b.copy()
        self.basis = np.arange(2 * d, 2 * d + m)

    def _costs(self, c: np.ndarray) -> np.ndarray:
        return np.concatenate([c, -c, np.zeros(self.G.shape[0])])

    def _primal(self, costs: np.ndarray):
        """Primal simplex from a primal feasible basis; returns
        ("optimal" | "unbounded", pivots made)."""
        tableau, rhs, basis = self.tableau, self.rhs, self.basis
        pivots = streak = 0
        while True:
            reduced = costs - costs[basis] @ tableau
            if streak < _BLAND_AFTER:
                entering = int(reduced.argmin())
                if reduced[entering] >= -LP_TOL:
                    return "optimal", pivots
            else:
                improving = (reduced < -LP_TOL).nonzero()[0]
                if improving.size == 0:
                    return "optimal", pivots
                entering = int(improving[0])
            leave, ratio = _leaving_row(tableau[:, entering], rhs, basis)
            if leave < 0:
                return "unbounded", pivots
            _check_cap(pivots)
            _pivot(tableau, rhs, basis, leave, entering)
            pivots += 1
            streak = streak + 1 if ratio <= LP_TOL else 0

    def _dual(self, costs: np.ndarray):
        """Dual simplex from a dual feasible basis; returns
        ("feasible" | "infeasible", pivots made).

        The row with the most negative basic value leaves (after
        _BLAND_AFTER degenerate pivots in a row, the one with the lowest
        basic index). The entering column passes Harris' ratio test over
        the row's entries below -_pivot_tol(row): of the columns whose ratio
        reduced cost / -entry is within the smallest step that keeps every
        reduced cost above -LP_TOL, the one with the largest entry (the
        lowest index under Bland's rule), so a rounding-level entry is not
        taken as a pivot while a sound one ties with it. A pivot is
        degenerate when it returns to a basis visited in the phase: on zero
        costs every dual step is 0, so only a cycle is a sign of stalling."""
        tableau, rhs, basis = self.tableau, self.rhs, self.basis
        pivots = streak = 0
        visited = {hash(np.sort(basis).tobytes())}
        while True:
            bland = streak >= _BLAND_AFTER
            if bland:
                short = (rhs < -LP_TOL).nonzero()[0]
                if short.size == 0:
                    return "feasible", pivots
                row = int(short[basis[short].argmin()])
            else:
                row = int(rhs.argmin())
                if rhs[row] >= -LP_TOL:
                    return "feasible", pivots
            line = tableau[row]
            eligible = (line < -_pivot_tol(line)).nonzero()[0]
            if eligible.size == 0:
                return "infeasible", pivots
            reduced = (costs - costs[basis] @ tableau)[eligible]
            size = -line[eligible]
            ratios = reduced / size
            fits = (ratios <= ((reduced + LP_TOL) / size).min()).nonzero()[0]
            pick = fits[0] if bland else fits[size[fits].argmax()]
            _check_cap(pivots)
            _pivot(tableau, rhs, basis, row, int(eligible[pick]))
            pivots += 1
            key = hash(np.sort(basis).tobytes())
            streak = streak + 1 if key in visited else 0
            visited.add(key)

    def _restart(self, costs: np.ndarray):
        """Dual, then primal simplex from the current basis; returns
        (status, phase-one pivots, phase-two pivots). The dual runs on the
        costs when the basis is dual feasible for them, else on zero costs
        as a phase one."""
        one = two = 0
        if self.rhs.min(initial=0.0) < -LP_TOL:
            reduced = costs - costs[self.basis] @ self.tableau
            if reduced.min() >= -LP_TOL:
                status, two = self._dual(costs)
            else:
                status, one = self._dual(np.zeros_like(costs))
            if status == "infeasible":
                return status, one, two
        status, primal = self._primal(costs)
        return status, one, two + primal

    def _settled(self, costs: np.ndarray) -> bool:
        """Refine the basic values once against the basis' original columns
        (B^-1 from the slack columns times the residual), and tell whether
        they then solve B x = b (a drifted B^-1 leaves a residual) and they
        and the once-refined duals are feasible, all to LP_TOL."""
        binv = self.tableau[:, -self.G.shape[0]:]
        basis_columns = self.columns[:, self.basis]
        residual = self.b - basis_columns @ self.rhs
        self.rhs = self.rhs + binv @ residual
        cb = costs[self.basis]
        duals = cb @ binv
        duals = duals + (cb - duals @ basis_columns) @ binv
        return bool(np.abs(self.b - basis_columns @ self.rhs).max(initial=0.0) <= LP_TOL
                    and self.rhs.min(initial=0.0) >= -LP_TOL
                    and (costs - duals @ self.columns).min() >= -LP_TOL)

    def _refactor(self):
        """Rebuild the tableau and the basic values from the basis' original
        columns."""
        basis_columns = self.columns[:, self.basis]
        try:
            self.tableau = np.linalg.solve(basis_columns, self.columns)
            self.rhs = np.linalg.solve(basis_columns, self.b)
        except np.linalg.LinAlgError as exc:
            raise SimplexError("the simplex basis became singular") from exc

    def solve(self, c: np.ndarray, h: np.ndarray) -> LpResult:
        """min c . x subject to G x <= h, x free, from the all-slack basis on
        the first call and from the last basis after it. Pivots are counted
        as (phase one, phase two); phase one is the dual simplex on zero
        costs in place of costs that are not dual feasible."""
        costs = self._costs(c)
        warm = self.tableau is not None
        if not warm:
            self._start(h)
        elif h is not self.h and not np.array_equal(h, self.h):
            self.b = self.h = h
            self.rhs = self.tableau[:, -self.G.shape[0]:] @ h
        status, one, two = self._restart(costs)
        if ((status == "optimal" and not self._settled(costs))
                or (warm and status != "optimal")):
            # rounding has built up in the tableau (or a warm phase ended
            # short of an optimum): rebuild it from the basis and go on
            self._refactor()
            status, more_one, more_two = self._restart(costs)
            one, two = one + more_one, two + more_two
            if status == "optimal" and not self._settled(costs):
                raise SimplexError("the simplex optimum fails its check after refactoring")
        result = self._result(status, c, (one, two))
        tally = _LP_TALLY.get()
        if tally is not None:
            tally[0] += 1
            tally[1] += one + two
        return result

    def _result(self, status: str, c: np.ndarray, pivots) -> LpResult:
        if status != "optimal":
            return LpResult(status, None, None, pivots)
        d = self.G.shape[1]
        full = np.zeros(self.tableau.shape[1])
        full[self.basis] = self.rhs
        x = full[:d] - full[d:2 * d]
        return LpResult("optimal", float(c @ x), x, pivots)


def _check_cap(pivots: int):
    if pivots >= _PIVOT_CAP:
        raise SimplexError(f"simplex phase reached {_PIVOT_CAP} pivots without an optimum")


def lp_solve(lp: LinearProgram) -> LpResult:
    """Dense simplex, cold: from the all-slack basis, whose basic values
    are h; where one is negative, the dual simplex runs first (_Simplex).
    The LP is infeasible when a row with a negative basic value has no
    entry below -_pivot_tol(row). Pivots are counted per phase.
    """
    return _Simplex(lp.G).solve(lp.c, lp.h)


def _slack(G: np.ndarray, h: np.ndarray, point: np.ndarray) -> np.ndarray:
    """h - G point for a point of {G x <= h}: rounding residues down to
    -FEAS_TOL read 0; a larger violation raises InfeasiblePointError."""
    slack = h - G @ point
    if np.any(slack < -FEAS_TOL):
        raise InfeasiblePointError(
            f"point violates a polytope row by {-float(np.min(slack)):.3g}")
    return np.maximum(slack, 0.0)


def _check_optimum(polytope: RewardPolytope, point: np.ndarray, what: str):
    """Raise InfeasiblePointError when an LP optimum violates a row of the
    polytope by more than FEAS_TOL times that row's largest entry (entries
    reach 1/(1 - gamma)). A zero row does not depend on the point."""
    G, h = polytope.G, polytope.h
    scale = np.max(np.abs(G), axis=1)
    excess = np.divide(G @ point - h, scale, out=np.zeros_like(h), where=scale > 0.0)
    if np.any(excess > FEAS_TOL):
        raise InfeasiblePointError(
            f"{what} violates a polytope row by {float(np.max(excess)):.3g}"
            " of its largest entry")


def _feasible_point(polytope: RewardPolytope) -> np.ndarray:
    """A point of the polytope from one zero-cost LP; EmptyPolytopeError
    when it has none."""
    res = lp_solve(LinearProgram(np.zeros(polytope.dim), polytope.G, polytope.h))
    if res.status == "infeasible":
        raise EmptyPolytopeError("polytope is empty")
    return res.x


def _distance_simplex(polytope: RewardPolytope) -> _Simplex:
    """The tableau of every distance LP to the polytope: rows
    [G 0; I -1; -I -1] in (r, t), each LP its own right-hand side."""
    d = polytope.dim
    eye, ones = np.eye(d), np.ones((d, 1))
    return _Simplex(np.vstack([
        np.hstack([polytope.G, np.zeros((polytope.G.shape[0], 1))]),
        np.hstack([eye, -ones]),
        np.hstack([-eye, -ones]),
    ]))


def _distance(simplex: _Simplex, polytope: RewardPolytope, vec: np.ndarray,
              anchor: np.ndarray) -> float:
    """The distance LP from vec to the polytope on `simplex` (the polytope's
    _distance_simplex), shifted to the point (anchor, max|vec - anchor|)."""
    offset = vec - anchor
    reach = float(np.max(np.abs(offset)))  # T
    big_h = np.concatenate([_slack(polytope.G, polytope.h, anchor),
                            reach + offset, reach - offset])
    c = np.zeros(polytope.dim + 1)
    c[-1] = 1.0
    res = simplex.solve(c, big_h)
    if res.status != "optimal":  # cannot happen: the origin is feasible and t >= 0
        raise SimplexError(f"unexpected LP status {res.status}")
    # a zero row does not depend on the point, and the anchor's check covers it
    _check_optimum(polytope, anchor + res.x[:-1], "distance LP optimum")
    value = reach + res.value
    return 0.0 if value < LP_TOL else float(value)


def directed_distance(r0, polytope: RewardPolytope, inside=None) -> float:
    """inf over the polytope of the infinity-norm distance to r0, as one
    cold LP in dim + 1 variables.

    The LP is written in (r - p, t - T) for a point p of the polytope and
    T = max|r0 - p|. Its origin (p, T) is feasible with every slack basic,
    so the simplex needs no phase one, and the distance is T plus the LP
    value. p is `inside` when given; otherwise a zero-cost LP finds one and
    raises EmptyPolytopeError on an empty polytope. A p outside the
    polytope by more than FEAS_TOL raises InfeasiblePointError, and so does
    an LP optimum p + y that violates a row by more than FEAS_TOL times
    that row's largest entry.
    """
    vec = np.asarray(getattr(r0, "values", r0), dtype=float).reshape(-1)
    d = polytope.dim
    if vec.shape != (d,):
        raise ValueError("point dimension does not match polytope")
    if inside is None:
        inside = _feasible_point(polytope)
    anchor = np.asarray(inside, dtype=float).reshape(-1)
    if anchor.shape != (d,):
        raise ValueError("inside point dimension does not match polytope")
    return _distance(_distance_simplex(polytope), polytope, vec, anchor)


def _vertex_from(G: np.ndarray, h: np.ndarray, point: np.ndarray) -> np.ndarray:
    """A vertex of {G x <= h} reached from one of its points by at most dim
    ray steps. Each step runs along a null vector of the rows tight so far
    to the first row it meets, which raises their rank by one; the vertex is
    then solved from its tight rows. ValueError when a line lies in the set."""
    d = G.shape[1]
    while True:
        slack = _slack(G, h, point)
        tight = slack <= FEAS_TOL
        _, sing, vt = np.linalg.svd(G[tight])
        if np.count_nonzero(sing > LP_TOL) == d:
            return np.linalg.lstsq(G[tight], h[tight], rcond=None)[0]
        for u in (vt[-1], -vt[-1]):
            rates = G @ u
            blocking = ~tight & (rates > LP_TOL)
            if np.any(blocking):
                point = point + np.min(slack[blocking] / rates[blocking]) * u
                break
        else:
            raise ValueError("the polyhedron contains a line, so it has no vertex")


def _independent_rows(unit: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per row of `rows` (indices into the unit-norm rows `unit`, -1 for
    none), dim indices of linearly independent rows, by pivoted
    Gram-Schmidt: each step takes the candidate with the most left once the
    rows taken are projected out. A place stays -1 when no candidate has
    more than LP_TOL left, so a row of `dim` indices is a basis."""
    n, d = rows.shape[0], unit.shape[1]
    left = np.where(rows[..., None] >= 0, unit[rows], 0.0)
    picked = np.full((n, d), -1)
    every = np.arange(n)
    for step in range(d):
        size = np.linalg.norm(left, axis=2)
        best = np.argmax(size, axis=1)
        top = size[every, best]
        taken = top > LP_TOL
        picked[taken, step] = rows[taken, best[taken]]
        axis = np.where(taken[:, None], left[every, best] / np.maximum(top, LP_TOL)[:, None], 0.0)
        left -= np.einsum("nk,nd->nkd", np.einsum("nkd,nd->nk", left, axis), axis)
    return picked


def _front(mask: np.ndarray) -> np.ndarray:
    """Per row of `mask`, the indices of its True entries first, in order,
    then the rest; cut to the largest True count."""
    width = int(np.max(np.count_nonzero(mask, axis=1), initial=0))
    return np.argsort(~mask, axis=1, kind="stable")[:, :width]


def _cut(rays: np.ndarray, live: np.ndarray, s: np.ndarray, rows: np.ndarray):
    """One double description step on a block of cones: `rays` (n, R, dim),
    padded, with `live` marking the real ones, `s` their products with the
    cutting row and `rows` (n, k, dim) the rows before it. Returns the new
    rays and, per ray, its cone and its place there: each cone keeps its
    rays the row does not cut, in order, then takes its new rays in
    (positive, negative) order."""
    n, d = live.shape[0], rays.shape[2]
    at = np.arange(n)[:, None]
    pos, neg = live & (s > LP_TOL), live & (s < -LP_TOL)
    off = np.abs(rays @ np.swapaxes(rows, 1, 2)) > LP_TOL
    p, q = _front(pos), _front(neg)
    common = ~(off[at, p][:, :, None, :] | off[at, q][:, None, :, :]).reshape(n, -1, rows.shape[1])
    # real rays lying on every row of `common`: the pair itself, and any third
    holding = np.count_nonzero((off.astype(float) @ np.swapaxes(common, 1, 2) == 0.0)
                               & live[:, :, None], axis=1)
    real = (pos[at, p][:, :, None] & neg[at, q][:, None, :]).reshape(n, -1)
    cone, pair = ((holding == 2) & (common.sum(axis=2) >= d - 2) & real).nonzero()
    i, j = np.divmod(pair, q.shape[1])
    pi, qj = p[cone, i], q[cone, j]
    new = s[cone, pi, None] * rays[cone, qj] - s[cone, qj, None] * rays[cone, pi]
    new /= np.max(np.abs(new), axis=1, keepdims=True)
    old_cone, old_ray = (live & ~pos).nonzero()
    owner = np.concatenate([old_cone, cone])
    order = np.argsort(owner, kind="stable")  # per cone: the old rays, then the new
    owner = owner[order]
    counts = np.bincount(owner, minlength=n)
    slot = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    return np.concatenate([rays[old_cone, old_ray], new])[order], owner, slot


def _refine_cones(rays: np.ndarray, rows: np.ndarray, size: np.ndarray):
    """Extreme rays of the cones {u : rows[v, :size[v]] u <= 0}, where the
    first dim rows of each are a basis with the simplicial cone rays[v]
    (max-norm 1), by double description (Fukuda & Prodon, 1996), batched
    over the cones: each further row removes the rays it is positive on,
    and each positive ray that is adjacent to a negative one (no third ray
    lies on every row both lie on) combines with it into a ray on that row.
    Step k runs once for every cone that has a row k and a ray it cuts, in
    blocks of at most _BLOCK elements of the (pair, ray) products. Returns
    the rays of every cone, cone by cone, and each cone's ray count. The
    rows are unit-norm, so the sign test at LP_TOL is row-relative."""
    n, d = rays.shape[0], rays.shape[2]
    live = np.ones((n, d), dtype=bool)
    for k in range(d, rows.shape[1]):
        s = (rays @ rows[:, k, :, None])[..., 0]
        pos = live & (s > LP_TOL)
        cut = np.flatnonzero((size > k) & pos.any(axis=1))
        if cut.size == 0:
            continue
        width = rays.shape[1]
        pairs = (int(pos[cut].sum(axis=1).max())
                 * int((live[cut] & (s[cut] < -LP_TOL)).sum(axis=1).max()))
        step = max(1, _BLOCK // max(1, pairs * (width + k)))
        blocks = [cut[lo:lo + step] for lo in range(0, cut.size, step)]
        steps = [_cut(rays[b], live[b], s[b], rows[b, :k]) for b in blocks]
        # a fresh row-major array, like the vstack of a one-cone loop: a
        # product over the transposed layout inv() leaves can differ in the
        # last bit, and so could every vertex after it
        grow = max(int(slot.max(initial=-1)) + 1 for _, _, slot in steps)
        kept, rays = (rays, live), np.zeros((n, max(width, grow), d))
        live = np.zeros(rays.shape[:2], dtype=bool)
        rays[:, :width], live[:, :width] = kept
        for block, (new, owner, slot) in zip(blocks, steps):
            rays[block] = 0.0
            live[block] = False
            rays[block[owner], slot] = new
            live[block[owner], slot] = True
    return rays[live], np.count_nonzero(live, axis=1)


def _neighbours(G: np.ndarray, h: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Far ends of the edges at `vertices`: one edge per extreme ray of a
    vertex's tangent cone {u : G_T u <= 0}, T its tight rows.

    Each vertex takes dim independent tight rows B (_independent_rows); the
    rays of that simplicial cone are the rows of -inv(G_B)^T, from one
    batched inverse. A vertex where no ray leaves another tight row (every
    vertex with dim tight rows) is done; the others' cones are cut by the
    rows some ray leaves, all in one batched double description
    (_refine_cones): each vertex's rows, its basis then those rows in
    order, are padded into one array. Each ray runs to the first non-tight
    row it meets (the ratio test; ValueError when none does, an unbounded
    edge). Ends outside a row by more than FEAS_TOL are dropped. Rows are
    scaled to unit norm, so the sign tests are row-relative."""
    d = G.shape[1]
    norms = np.linalg.norm(G, axis=1)
    norms[norms == 0.0] = 1.0
    unit = G / norms[:, None]
    slack = np.maximum(h[None, :] - vertices @ G.T, 0.0)
    tight = slack <= FEAS_TOL
    width = int(np.max(np.count_nonzero(tight, axis=1)))
    order = np.argsort(~tight, axis=1, kind="stable")[:, :width]
    tight_rows = np.where(np.take_along_axis(tight, order, axis=1), order, -1)
    basis = _independent_rows(unit, tight_rows)
    full = np.all(basis >= 0, axis=1)  # tight rows of rank below dim: not a vertex
    vertices, slack, tight = vertices[full], slack[full], tight[full]
    basis, tight_rows = basis[full], tight_rows[full]
    rays = -np.swapaxes(np.linalg.inv(unit[basis]), 1, 2)
    rays /= np.max(np.abs(rays), axis=2, keepdims=True)
    extra = np.where(np.any(tight_rows[:, :, None] == basis[:, None, :], axis=2),
                     -1, tight_rows)
    leaves = np.einsum("nrd,nkd->nrk", rays, np.where(extra[..., None] >= 0, unit[extra], 0.0))
    cutting = np.any(leaves > LP_TOL, axis=1)
    degenerate = np.flatnonzero(cutting.any(axis=1))
    simple = np.flatnonzero(~cutting.any(axis=1))
    # each degenerate vertex's rows: its basis, then the tight rows a ray leaves
    cut = cutting[degenerate]
    cuts = np.take_along_axis(np.where(cut, extra[degenerate], -1), _front(cut), axis=1)
    cone_rows = np.concatenate([basis[degenerate], cuts], axis=1)
    cones, counts = _refine_cones(rays[degenerate],
                                  np.where(cone_rows[..., None] >= 0, unit[cone_rows], 0.0),
                                  d + np.count_nonzero(cut, axis=1))
    owner = np.concatenate([np.repeat(simple, d), np.repeat(degenerate, counts)])
    directions = np.vstack([rays[simple].reshape(-1, d), cones])
    rates = directions @ unit.T
    closing = ~tight[owner] & (rates > LP_TOL)
    ratios = np.divide(slack[owner] / norms, rates, out=np.full(rates.shape, np.inf),
                       where=closing)
    step = np.min(ratios, axis=1)
    if np.any(np.isinf(step)):
        raise ValueError("the polyhedron is unbounded: an edge meets no row")
    points = vertices[owner] + step[:, None] * directions
    return points[np.all(points @ G.T <= h[None, :] + FEAS_TOL, axis=1)]


def _nearest(points: np.ndarray, anchors: np.ndarray):
    """Per point, the index of its nearest anchor in the infinity norm (the
    first on a tie) and its distance to it. The (points, anchors, dim)
    differences are taken in blocks of at most _BLOCK elements."""
    n = len(points)
    index, gap = np.empty(n, dtype=int), np.empty(n)
    step = max(1, _BLOCK // anchors.size)
    for lo in range(0, n, step):
        gaps = np.max(np.abs(anchors[None, :, :] - points[lo:lo + step, None, :]), axis=2)
        index[lo:lo + step] = np.argmin(gaps, axis=1)
        gap[lo:lo + step] = gaps[np.arange(len(gaps)), index[lo:lo + step]]
    return index, gap


def _unseen(points: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """The points, in order, that lie at least DEDUPE_TOL (infinity norm)
    from every vertex and from every point kept before them.

    A point within DEDUPE_TOL of another has a key w . x within DEDUPE_TOL
    of the other's for any w with ||w||_1 = 1; here w_j is proportional to
    sqrt(j), j = 1..dim, so that the many 0/1 ties of reward polytopes'
    vertices (distinct points with the same coordinate sum) get distinct
    keys. With the points and vertices sorted by key, each point is
    compared (infinity norm, exactly) only with those in the searchsorted
    window of its own key, widened by the rounding the keys can carry; the
    (point, window) differences are taken in blocks of at most _BLOCK
    elements. The "kept before it" rule then settles in rounds: a point
    with a kept earlier neighbour is dropped, a point whose earlier
    neighbours are all dropped is kept, and each round settles at least the
    first open point, so chains of near points come out as in one pass."""
    n, d = len(vertices), points.shape[1]
    pool = np.vstack([vertices, points])
    w = np.sqrt(np.arange(1, d + 1))
    key = pool @ (w / w.sum())
    reach = DEDUPE_TOL + (d + 1) * np.finfo(float).eps * (
        DEDUPE_TOL + np.abs(pool).max(initial=0.0))
    order = np.argsort(key, kind="stable")
    ranked = key[order]
    lo = np.searchsorted(ranked, key[n:] - reach, side="left")
    counts = np.searchsorted(ranked, key[n:] + reach, side="right") - lo
    step = max(1, _BLOCK // (d * int(counts.max(initial=1))))
    earlier, later = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)]
    for start in range(0, len(points), step):
        c = counts[start:start + step]
        late = np.repeat(np.arange(start, start + len(c)) + n, c)
        early = order[np.arange(c.sum()) - np.repeat(np.cumsum(c) - c - lo[start:start + step], c)]
        before = early < late
        early, late = early[before], late[before]
        gap = pool[early]
        gap -= pool[late]
        near = np.max(np.abs(gap, out=gap), axis=1) < DEDUPE_TOL
        earlier.append(early[near])
        later.append(late[near] - n)
    early, late = np.concatenate(earlier) - n, np.concatenate(later)
    kept = np.zeros(len(points), dtype=bool)
    settled = np.zeros(len(points), dtype=bool)
    settled[late[early < 0]] = True  # near a vertex
    early, late = early[early >= 0], late[early >= 0]
    while not settled.all():
        hit = np.zeros_like(kept)
        hit[late[kept[early]]] = True
        waiting = np.zeros_like(kept)
        waiting[late[~settled[early]]] = True
        keep = ~settled & ~hit & ~waiting
        kept |= keep
        settled |= keep | hit
    return points[kept]


def enumerate_vertices(polytope: RewardPolytope, inside=None) -> np.ndarray:
    """All vertices of a bounded polytope, by a breadth-first walk over its
    vertex graph (Avis & Fukuda's pivoting, without the reverse-search
    order), so the cost follows the number of vertices rather than C(m, d).

    The walk starts at a vertex reached by ray steps from `inside`, a point
    of the polytope (by default one zero-cost LP finds it, and raises
    EmptyPolytopeError on an empty polytope). Each round expands the whole
    frontier: the edges at a vertex are the extreme rays of its tangent cone
    (_neighbours), and each new vertex is where an edge meets its first row.
    Points within DEDUPE_TOL of a vertex already found are the same vertex.
    An unbounded polyhedron raises ValueError, and dim above
    DEFAULT_ENUM_CAP DimensionCapError.
    """
    d = polytope.dim
    if d > DEFAULT_ENUM_CAP:
        raise DimensionCapError(
            f"dimension {d} exceeds the enumeration cap {DEFAULT_ENUM_CAP}")
    G, h = polytope.G, polytope.h
    if inside is None:
        inside = _feasible_point(polytope)
    start = np.asarray(inside, dtype=float).reshape(-1)
    if start.shape != (d,):
        raise ValueError("inside point dimension does not match polytope")
    vertices = np.empty((0, d))
    found = _vertex_from(G, h, start)[None, :]
    while True:
        fresh = _unseen(found, vertices)
        if len(fresh) == 0:
            return vertices
        vertices = np.vstack([vertices, fresh])
        found = _neighbours(G, h, fresh)


def sample_support_points(polytope: RewardPolytope, budget: int,
                          rng: np.random.Generator) -> np.ndarray:
    """Basic feasible points found by maximizing `budget` random directions.

    Directions are drawn sequentially, so a larger budget extends (never
    replaces) the set found with a smaller one under the same generator seed.
    The LPs share (G, h), so one tableau serves them all: the first starts
    from the all-slack basis (after a phase one where some bound is
    negative), and each later one replaces the costs and continues from the
    last optimum, which is still feasible. An optimum that violates a row by
    more than FEAS_TOL times that row's largest entry raises
    InfeasiblePointError.
    """
    d = polytope.dim
    simplex = _Simplex(polytope.G)
    points = []
    for _ in range(budget):
        direction = rng.standard_normal(d)
        res = simplex.solve(-direction, polytope.h)
        if res.status == "infeasible":
            raise EmptyPolytopeError("polytope is empty")
        if res.status == "optimal":
            _check_optimum(polytope, res.x, "support point")
            points.append(res.x)
    return np.array(points).reshape(len(points), d)


class HausdorffMode(enum.Enum):
    EXACT = "exact"
    LOWER_BOUND = "lower"


@dataclass(frozen=True)
class HausdorffReport:
    value: float
    mode: HausdorffMode
    directed: tuple  # (sup over P1 side, sup over P2 side)
    lps: int = 0  # LPs solved: feasibility, support and distance
    pivots: int = 0  # their simplex pivots, cold and warm
    # vertices (exact) or support points (lower bound) of (P1, P2)
    points: tuple = (0, 0)


def _distance_bounds(points: np.ndarray, target: RewardPolytope, anchors: np.ndarray):
    """Per point, bounds on its infinity-norm distance to `target`, and the
    index of its nearest anchor (a point of `target`).

    The upper bound is the distance to that anchor. The lower bound is
    max over rows of (g . v - h)+ / ||g||_1, the distance to the farthest
    half-space {g . x <= h} of the rows (the l1 norm is the dual of the
    infinity norm); it is 0 exactly when v violates no row, with no
    tolerance. A row of zeros bounds no direction, so it is left out. Each
    g . v is one matrix-vector product, as for a single point."""
    norms = np.sum(np.abs(target.G), axis=1)
    live = norms > 0.0
    G, h, norms = target.G[live], target.h[live], norms[live]
    nearest, upper = _nearest(points, anchors)
    lower = np.max(((G @ points[:, :, None])[..., 0] - h) / norms, axis=1, initial=0.0)
    return lower, upper, nearest


def _directed_sup(points: np.ndarray, target: RewardPolytope, anchors: np.ndarray) -> float:
    """Largest distance from `points` to `target`, solving a distance LP
    only for a point that can still raise the maximum.

    Each point v has the bounds of _distance_bounds: U, its distance to the
    nearest anchor (anchors lie in `target`, so U is never below the
    distance), and L = max over rows of (g . v - h)+ / ||g||_1 (the
    distance to one half-space that holds `target`, so never above it).
    Points are visited by decreasing U (stable order). The first with
    U <= the best so far ends the search: no later point can raise it. A
    point with L = 0 violates no row, lies in `target` and adds 0; a point
    with L >= U is at distance U. Any other point gets one LP, shifted to
    its nearest anchor, so its T is U. The LPs share the target's
    _distance_simplex and its costs, so each after the first restarts from
    the last optimal basis by a dual simplex on its own right-hand side."""
    lower, upper, nearest = _distance_bounds(points, target, anchors)
    simplex = _distance_simplex(target)
    best = 0.0
    for i in np.argsort(-upper, kind="stable"):
        if upper[i] <= best:
            break
        if lower[i] == 0.0:
            continue
        if lower[i] >= upper[i]:
            best = float(upper[i])
        else:
            best = max(best, _distance(simplex, target, points[i], anchors[nearest[i]]))
    return best


def hausdorff_distance(p1: RewardPolytope, p2: RewardPolytope,
                       mode: HausdorffMode = HausdorffMode.EXACT,
                       budget: int = 64, seed: int = 0) -> HausdorffReport:
    """Infinity-norm Hausdorff distance between two reward polytopes.

    EXACT mode enumerates all vertices of both polytopes (DimensionCapError
    above the enumeration cap); it first checks each polytope for emptiness
    with one zero-cost LP, whose point starts that polytope's vertex walk,
    so enumeration solves no LP. LOWER_BOUND mode uses `budget` (at least 1,
    else ValueError) seeded random-objective support points per polytope
    and returns a certified lower bound that is non-decreasing in the
    budget. Every distance LP from one side's points to the other polytope
    is shifted to the nearest of that polytope's own vertices or support
    points, so none of them runs a phase one, and the LPs to one polytope
    share one tableau (_directed_sup). Both modes prune the LPs the
    same way: a point is skipped when its upper bound (distance to that
    nearest point) is at most the best distance found so far, adds 0 when it
    violates no row, and reads its upper bound when its lower bound
    max over rows of (g . v - h)+ / ||g||_1 reaches it. The report counts
    the LPs the call solved, their pivots, and the points of each side.
    """
    if p1.dim != p2.dim:
        raise ValueError("polytope dimensions differ")
    if mode is not HausdorffMode.EXACT and budget < 1:
        raise ValueError(f"budget must be at least 1, got {budget}")
    tally = [0, 0]
    token = _LP_TALLY.set(tally)
    try:
        if mode is HausdorffMode.EXACT:
            # one LP per polytope finds an empty set before either walk
            # starts, and its point is where that polytope's walk starts
            inside1, inside2 = _feasible_point(p1), _feasible_point(p2)
            pts1 = enumerate_vertices(p1, inside=inside1)
            pts2 = enumerate_vertices(p2, inside=inside2)
        else:
            pts1 = sample_support_points(p1, budget, np.random.default_rng(seed))
            pts2 = sample_support_points(p2, budget, np.random.default_rng(seed + 1))
        if pts1.shape[0] == 0 or pts2.shape[0] == 0:
            raise EmptyPolytopeError("polytope has no feasible points")
        d12 = _directed_sup(pts1, p2, pts2)
        d21 = _directed_sup(pts2, p1, pts1)
    finally:
        _LP_TALLY.reset(token)
    return HausdorffReport(float(max(d12, d21)), mode, (float(d12), float(d21)),
                           lps=tally[0], pivots=tally[1], points=(len(pts1), len(pts2)))
