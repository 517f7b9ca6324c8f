"""Independent Hausdorff computations with scipy's HiGHS LP solver.

Each function solves all of its LPs as one block-diagonal HiGHS program:
the blocks share no variable, so the optimum of the sum is the optimum of
every block. The checks use these values to validate the irlse outputs,
outside the timed region.
"""
from __future__ import annotations

import itertools

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

# vertex solutions from the simplex backend are exact up to rounding; the
# tight tolerances keep HiGHS from stopping at a 1e-7-feasible point
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10}


class OracleError(RuntimeError):
    """HiGHS did not report an optimal solution."""


def _solve(c, blocks, rhs):
    res = linprog(c, A_ub=sparse.block_diag(blocks, format="csr"), b_ub=rhs,
                  bounds=(None, None), method="highs", options=HIGHS_OPTIONS)
    if res.status != 0:
        raise OracleError(f"HiGHS status {res.status}: {res.message}")
    return res.x


def directed_distances(points: np.ndarray, G: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Infinity-norm distance from each row of ``points`` to {x : G x <= h}."""
    k, d = points.shape
    if k == 0:
        return np.empty(0)
    eye, ones = np.eye(d), np.ones((d, 1))
    block = np.vstack([np.hstack([G, np.zeros((G.shape[0], 1))]),
                       np.hstack([eye, -ones]),
                       np.hstack([-eye, -ones])])
    rhs = np.concatenate([np.concatenate([h, p, -p]) for p in points])
    c = np.tile(np.r_[np.zeros(d), 1.0], k)
    return _solve(c, [block] * k, rhs).reshape(k, d + 1)[:, -1]


def support_points(directions: np.ndarray, G: np.ndarray, h: np.ndarray) -> np.ndarray:
    """argmax of direction . x over {x : G x <= h}, one row per direction."""
    k, d = directions.shape
    return _solve(-directions.reshape(-1), [G] * k, np.tile(h, k)).reshape(k, d)


def vertices(G: np.ndarray, h: np.ndarray, chunk: int = 20_000) -> np.ndarray:
    """Vertices of {x : G x <= h}, by solving every dim-subset of the
    distinct rows; near-duplicates left by degenerate vertices are harmless
    to a supremum of distances."""
    rows = np.unique(np.hstack([G, h[:, None]]), axis=0)
    G, h = rows[:, :-1], rows[:, -1]
    d = G.shape[1]
    combos = itertools.combinations(range(G.shape[0]), d)
    found = []
    while block := list(itertools.islice(combos, chunk)):
        block = np.array(block)
        subs = G[block]
        ok = np.abs(np.linalg.det(subs)) > 1e-12
        points = np.linalg.solve(subs[ok], h[block][ok][..., None])[..., 0]
        found.append(points[np.all(points @ G.T <= h + 1e-8, axis=1)])
    pool = np.vstack(found)
    _, first = np.unique(np.round(pool, 9), axis=0, return_index=True)
    return pool[np.sort(first)]


def hausdorff(points_a, poly_a, points_b, poly_b) -> tuple[float, float, float]:
    """(value, sup over points_a, sup over points_b) of the point-to-set
    distances to the other polytope."""
    d_ab = float(np.max(directed_distances(points_a, poly_b.G, poly_b.h), initial=0.0))
    d_ba = float(np.max(directed_distances(points_b, poly_a.G, poly_a.h), initial=0.0))
    return max(d_ab, d_ba), d_ab, d_ba


def lower_bound(poly_a, poly_b, budget: int, seed: int) -> tuple[float, float, float]:
    """The seeded support-point lower bound, recomputed with HiGHS: the same
    random directions the package draws, maximised over each polytope."""
    dirs_a = np.random.default_rng(seed).standard_normal((budget, poly_a.dim))
    dirs_b = np.random.default_rng(seed + 1).standard_normal((budget, poly_b.dim))
    return hausdorff(support_points(dirs_a, poly_a.G, poly_a.h), poly_a,
                     support_points(dirs_b, poly_b.G, poly_b.h), poly_b)
