"""LP core, vertex enumeration, and Hausdorff distances."""
import itertools

import numpy as np
import pytest

from irlse import (
    DimensionCapError,
    EmptyPolytopeError,
    HausdorffMode,
    LinearProgram,
    RewardPolytope,
    directed_distance,
    enumerate_vertices,
    example_fig1,
    hausdorff_distance,
    lp_solve,
    polytope_h_rep,
    sample_support_points,
)

scipy_opt = pytest.importorskip("scipy.optimize")


def box_polytope(lo, hi):
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    d = lo.size
    G = np.vstack([np.eye(d), -np.eye(d)])
    h = np.concatenate([hi, -lo])
    return RewardPolytope(1, d, G, h, tuple(["box"] * 2 * d))


def random_bounded_lp(rng, d):
    """Feasible, bounded LP: random rows around an interior point, plus a box."""
    m = rng.integers(d, 3 * d + 1)
    interior = rng.uniform(-0.5, 0.5, size=d)
    G = rng.standard_normal((m, d))
    h = G @ interior + rng.uniform(0.1, 1.0, size=m)
    G = np.vstack([G, np.eye(d), -np.eye(d)])
    h = np.concatenate([h, np.ones(d) * 2.0, np.ones(d) * 2.0])
    c = rng.standard_normal(d)
    return LinearProgram(c, G, h)


def brute_force_lp_value(lp):
    """Minimum of c . x over all feasible basic points (d-subsets of rows)."""
    G, h, c, d = lp.G, lp.h, lp.c, lp.G.shape[1]
    best = np.inf
    for rows in itertools.combinations(range(G.shape[0]), d):
        sub = G[list(rows)]
        try:
            x = np.linalg.solve(sub, h[list(rows)])
        except np.linalg.LinAlgError:
            continue
        if np.all(np.isfinite(x)) and np.all(G @ x <= h + 1e-8):
            best = min(best, float(c @ x))
    return best


class TestLpSolve:
    def test_simple_box_minimum(self):
        lp = LinearProgram([1.0, 1.0],
                           [[1, 0], [-1, 0], [0, 1], [0, -1]],
                           [1, 1, 1, 1])
        res = lp_solve(lp)
        assert res.status == "optimal"
        assert res.value == pytest.approx(-2.0, abs=1e-9)
        assert np.allclose(res.x, [-1, -1], atol=1e-9)

    def test_infeasible(self):
        lp = LinearProgram([1.0], [[1.0], [-1.0]], [-2.0, 1.0])  # x <= -2, x >= -1
        assert lp_solve(lp).status == "infeasible"

    def test_unbounded(self):
        lp = LinearProgram([1.0], [[1.0]], [0.0])  # min x s.t. x <= 0
        assert lp_solve(lp).status == "unbounded"

    def test_negative_rhs_phase_one(self):
        # x >= 3 written as -x <= -3; min x = 3
        lp = LinearProgram([1.0], [[-1.0], [1.0]], [-3.0, 10.0])
        res = lp_solve(lp)
        assert res.status == "optimal"
        assert res.value == pytest.approx(3.0, abs=1e-9)

    def test_dimension_cap(self):
        d = 65
        with pytest.raises(ValueError, match="cap"):
            LinearProgram(np.zeros(d), np.eye(d), np.ones(d))

    def test_random_lps_match_scipy(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            d = int(rng.integers(1, 7))
            lp = random_bounded_lp(rng, d)
            res = lp_solve(lp)
            ref = scipy_opt.linprog(lp.c, A_ub=lp.G, b_ub=lp.h,
                                    bounds=[(None, None)] * d, method="highs")
            assert res.status == "optimal" and ref.status == 0
            assert res.value == pytest.approx(ref.fun, abs=1e-7)
            assert np.all(lp.G @ res.x <= lp.h + 1e-8)

    def test_random_lps_match_vertex_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            d = int(rng.integers(1, 5))
            lp = random_bounded_lp(rng, d)
            res = lp_solve(lp)
            assert res.status == "optimal"
            assert res.value == pytest.approx(brute_force_lp_value(lp), abs=1e-7)


class TestDirectedDistance:
    def test_zero_inside(self):
        box = box_polytope([0, 0], [1, 1])
        assert directed_distance(np.array([0.5, 0.25]), box) == 0.0
        assert directed_distance(np.array([1.0, 0.0]), box) == 0.0

    def test_outside_box(self):
        box = box_polytope([0, 0], [1, 1])
        assert directed_distance(np.array([1.5, 0.5]), box) == pytest.approx(0.5, abs=1e-9)
        assert directed_distance(np.array([2.0, -1.0]), box) == pytest.approx(1.0, abs=1e-9)
        assert directed_distance(np.array([3.0, 0.5]), box) == pytest.approx(2.0, abs=1e-9)

    def test_empty_polytope(self):
        empty = RewardPolytope(1, 1, np.array([[1.0], [-1.0]]),
                               np.array([-2.0, 1.0]), ("a", "b"))
        with pytest.raises(EmptyPolytopeError):
            directed_distance(np.array([0.0]), empty)

    def test_members_return_exact_zero(self):
        problem = example_fig1(0.9, 0.5)
        poly = polytope_h_rep(problem)
        for vertex in enumerate_vertices(poly):
            assert directed_distance(vertex, poly) == 0.0


class TestVertexEnumeration:
    def test_unit_square(self):
        verts = enumerate_vertices(box_polytope([0, 0], [1, 1]))
        assert verts.shape == (4, 2)
        expected = {(0, 0), (0, 1), (1, 0), (1, 1)}
        got = {tuple(np.round(v, 9)) for v in verts}
        assert got == expected

    def test_triangle(self):
        G = np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]])
        h = np.array([0.0, 0.0, 1.0])
        poly = RewardPolytope(1, 2, G, h, ("a", "b", "c"))
        verts = enumerate_vertices(poly)
        assert verts.shape == (3, 2)

    def test_cap_enforced(self):
        d = 12
        poly = RewardPolytope(3, 4, np.vstack([np.eye(d), -np.eye(d)]),
                              np.concatenate([np.ones(d), np.zeros(d)]),
                              tuple(["box"] * 2 * d))
        with pytest.raises(DimensionCapError):
            enumerate_vertices(poly)

    def test_vertices_feasible(self):
        poly = polytope_h_rep(example_fig1(0.9, 0.5))
        verts = enumerate_vertices(poly)
        assert len(verts) > 0
        for v in verts:
            assert np.all(poly.G @ v <= poly.h + 1e-8)


class TestHausdorff:
    def test_identical_sets_zero(self):
        poly = polytope_h_rep(example_fig1(0.9, 0.5))
        rep = hausdorff_distance(poly, poly)
        assert rep.value == 0.0

    def test_translated_boxes(self):
        a = box_polytope([0, 0], [1, 1])
        b = box_polytope([0.25, 0.25], [1.25, 1.25])
        rep = hausdorff_distance(a, b)
        assert rep.value == pytest.approx(0.25, abs=1e-9)
        assert rep.directed[0] == pytest.approx(0.25, abs=1e-9)
        assert rep.directed[1] == pytest.approx(0.25, abs=1e-9)

    def test_nested_boxes_asymmetric(self):
        outer = box_polytope([0, 0], [1, 1])
        inner = box_polytope([0.25, 0.25], [0.5, 0.5])
        rep = hausdorff_distance(outer, inner)
        # farthest outer corner (1,1) is 0.5 away from inner in max norm
        assert rep.value == pytest.approx(0.5, abs=1e-9)
        assert rep.directed[1] == 0.0

    def test_fig1_xi_pair(self):
        wide = polytope_h_rep(example_fig1(0.9, 0.5))
        narrow = polytope_h_rep(example_fig1(0.9, 0.2))
        rep = hausdorff_distance(wide, narrow)
        # the gap coordinate pair can split the move: (0.5 - 0.2) / 2
        assert rep.value == pytest.approx(0.15, abs=1e-9)

    def test_lower_bound_below_exact_and_monotone(self):
        a = polytope_h_rep(example_fig1(0.9, 0.5))
        b = polytope_h_rep(example_fig1(0.9, 0.2))
        exact = hausdorff_distance(a, b).value
        lowers = [hausdorff_distance(a, b, mode=HausdorffMode.LOWER_BOUND,
                                     budget=budget, seed=3).value
                  for budget in (1, 2, 4, 8, 16, 32)]
        assert all(low <= exact + 1e-9 for low in lowers)
        assert all(x <= y + 1e-12 for x, y in zip(lowers, lowers[1:]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            hausdorff_distance(box_polytope([0], [1]), box_polytope([0, 0], [1, 1]))

    def test_sampled_points_prefix_property(self):
        poly = polytope_h_rep(example_fig1(0.9, 0.5))
        small = sample_support_points(poly, 4, np.random.default_rng(5))
        large = sample_support_points(poly, 9, np.random.default_rng(5))
        assert np.allclose(large[:4], small)
