"""LP core, vertex enumeration, and Hausdorff distances."""
import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import irlse.hausdorff as hausdorff_module
from irlse import (
    ConstraintMode,
    DimensionCapError,
    EmptyPolytopeError,
    GenerativeModel,
    HausdorffMode,
    HausdorffReport,
    InfeasiblePointError,
    LinearProgram,
    LpResult,
    RewardPolytope,
    directed_distance,
    enumerate_vertices,
    example_fig1,
    hausdorff_distance,
    lb_chain,
    lb_subopt,
    lb_tree,
    lp_solve,
    polytope_h_rep,
    random_problem,
    read_problem,
    sample_support_points,
    us_irl_se,
)
from oracles import (
    _pivot_loop,
    directed_sup_loop,
    distance_bounds_loop,
    drop_near_duplicates_loop,
    h_rep_loop,
    highs_directed_sup,
    highs_distances,
    highs_is_empty,
    highs_support_points,
    lp_solve_loop,
    near_one_discount_problems,
    refine_loop,
    vertices_by_subsets,
)

scipy_opt = pytest.importorskip("scipy.optimize")

DATA = Path(__file__).resolve().parent / "data"


def box_polytope(lo, hi):
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    d = lo.size
    G = np.vstack([np.eye(d), -np.eye(d)])
    h = np.concatenate([hi, -lo])
    return RewardPolytope(1, d, G, h, tuple(["box"] * 2 * d))


def lb_d8_polytopes():
    """The 18 distinct polytopes of the d=8 lower-bound pairs."""
    polys = []
    for g in (0.8, 0.9):
        for e in (0.05, 0.1):
            polys += [polytope_h_rep(lb_chain(1, 2, g, e, v)) for v in (None, (0, 0), (0, 1))]
        polys += [polytope_h_rep(lb_subopt(2, g, 0.1, 0.25, 2.0, s)) for s in (None, 0, 1)]
    return polys


def cut_boxes(rng):
    """20 unit boxes of dimension 1 to 8, each cut by up to three random rows
    through it."""
    polys = []
    for _ in range(20):
        d = int(rng.integers(1, 9))
        cuts = rng.standard_normal((int(rng.integers(1, 4)), d))
        G = np.vstack([cuts, np.eye(d), -np.eye(d)])
        h = np.concatenate([cuts @ rng.uniform(0, 1, d), np.ones(d), np.zeros(d)])
        polys.append(RewardPolytope(1, d, G, h, tuple(["row"] * G.shape[0])))
    return polys


def assert_same_vertices(got, want):
    """The same number of vertices, each within DEDUPE_TOL of one of the
    other set."""
    assert got.shape == want.shape
    gap = np.max(np.abs(got[:, None, :] - want[None, :, :]), axis=2)
    assert np.all(gap.min(axis=1) < hausdorff_module.DEDUPE_TOL)
    assert np.all(gap.min(axis=0) < hausdorff_module.DEDUPE_TOL)


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


INFEASIBLE_LP = LinearProgram([1.0], [[1.0], [-1.0]], [-2.0, 1.0])  # x <= -2, x >= -1
UNBOUNDED_LP = LinearProgram([1.0], [[1.0]], [0.0])  # min x s.t. x <= 0
PHASE_ONE_LP = LinearProgram([1.0], [[-1.0], [1.0]], [-3.0, 10.0])  # x >= 3; min x = 3
# max x under x <= 1.6e-9, x <= 0.8e-9, x <= 0: the three ratios lie within
# LP_TOL of their neighbours but not all of one another. The row-order tie
# rule leaves at the last row (x = 0); "smallest ratio, then smallest basis
# index" would leave at the second (x = 0.8e-9)
NEAR_TIE_LP = LinearProgram([-1.0], [[1.0], [1.0], [1.0], [-1.0]],
                            [1.6e-9, 0.8e-9, 0.0, 1.0])
# a negative bound, so a phase one, and a degenerate optimum at x = (0, 1)
SIGNED_ZERO_LP = LinearProgram([-1.0, -1.0],
                               [[0, 1], [0, -1], [-1, -1], [-1, 0], [1, -1]],
                               [1.0, 0.0, 0.0, 0.0, -1.0])


class TestLpSolve:
    def test_simple_box_minimum(self):
        lp = LinearProgram([1.0, 1.0],
                           [[1, 0], [-1, 0], [0, 1], [0, -1]],
                           [1, 1, 1, 1])
        res = lp_solve(lp)
        assert res.status == "optimal"
        assert res.value == pytest.approx(-2.0, abs=1e-9)
        assert np.allclose(res.x, [-1, -1], atol=1e-9)
        # no negative bound, so no phase one; one pivot per coordinate
        assert res.pivots == (0, 2)

    def test_infeasible(self):
        assert lp_solve(INFEASIBLE_LP).status == "infeasible"

    def test_unbounded(self):
        assert lp_solve(UNBOUNDED_LP).status == "unbounded"

    def test_negative_rhs_phase_one(self):
        res = lp_solve(PHASE_ONE_LP)
        assert res.status == "optimal"
        assert res.value == pytest.approx(3.0, abs=1e-9)
        assert res.pivots[0] >= 1

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


def assert_same_solve(lp):
    """The vectorised simplex takes the loop oracle's pivots and returns its
    result bit for bit."""
    got, want = lp_solve(lp), lp_solve_loop(lp)
    assert (got.status, got.pivots, got.value) == (want.status, want.pivots, want.value)
    if want.x is None:
        assert got.x is None
    else:
        assert np.array_equal(got.x, want.x)
        assert got.x.tobytes() == want.x.tobytes()  # signed zeros too


def small_integer_lps():
    """2000 LPs with entries in {-1, 0, 1}: many zeros, ties, degenerate
    pivots, negative bounds, and infeasible and unbounded draws."""
    rng = np.random.default_rng(5)
    for _ in range(2000):
        d, m = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        yield LinearProgram(rng.integers(-1, 2, size=d), rng.integers(-1, 2, size=(m, d)),
                            rng.integers(-1, 2, size=m))


def near_one_discount_polytopes(seed, gamma, modes):
    """The feasible sets of near_one_discount_problems."""
    return [polytope_h_rep(p) for p in near_one_discount_problems(seed, gamma, modes)]


def lower_exact_polytopes(count):
    """`count` seeded feasible sets with LOWER and EXACT experts, whose rows
    -f <= -xi give negative bounds: S 2-5, A 2-3, one or two experts,
    gamma in {0.5, 0.9, 0.99, 0.999} and xi ~ U(0.001, 0.5)."""
    rng = np.random.default_rng(19)
    polys = []
    for seed in range(count):
        S, A, n = int(rng.integers(2, 6)), int(rng.integers(2, 4)), int(rng.integers(1, 3))
        base = random_problem(S, A, n, float(rng.choice([0.5, 0.9, 0.99, 0.999])), seed=seed,
                              xi_range=(0.001, 0.5))
        modes = rng.choice([ConstraintMode.LOWER, ConstraintMode.EXACT], size=n)
        experts = tuple(dataclasses.replace(ex, mode=mode)
                        for ex, mode in zip(base.experts, modes))
        polys.append(polytope_h_rep(dataclasses.replace(base, experts=experts)))
    return polys


def solved_lps(call, *args, **kwargs):
    """Every LP `call(*args, **kwargs)` solves, cold or warm, in call order,
    as (LinearProgram, the LpResult the tableau gave), and the call's
    result."""
    solves = []
    solve = hausdorff_module._Simplex.solve

    def recording(simplex, c, h):
        res = solve(simplex, c, h)
        solves.append((LinearProgram(c, simplex.G, h), res))
        return res

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hausdorff_module._Simplex, "solve", recording)
        result = call(*args, **kwargs)
    return solves, result


def distance_lps(p1, p2, mode, budget=4):
    """Every LP one Hausdorff call solves, in call order."""
    solves, _ = solved_lps(hausdorff_distance, p1, p2, mode=mode, budget=budget, seed=3)
    return [lp for lp, _ in solves]


def inject_optimum(patch, x):
    """Make every tableau solve return `x` as its optimum."""
    patch.setattr(hausdorff_module._Simplex, "solve",
                  lambda simplex, c, h: LpResult("optimal", 0.0, np.asarray(x, dtype=float)))


class TestVectorisedSimplex:
    def test_random_lps(self):
        rng = np.random.default_rng(11)
        for _ in range(80):
            assert_same_solve(random_bounded_lp(rng, int(rng.integers(1, 9))))

    def test_small_integer_lps(self):
        for lp in small_integer_lps():
            assert_same_solve(lp)

    def test_small_integer_lps_match_highs(self):
        # the loop oracle mirrors lp_solve's phases, so HiGHS checks them;
        # statuses are not compared, as HiGHS calls some unbounded draws
        # infeasible (c=[1,1,-1], G=[[-1,-1,-1],[1,1,1]], h=[1,0] is
        # feasible at 0)
        for lp in small_integer_lps():
            res = lp_solve(lp)
            assert (res.status == "infeasible") == highs_is_empty(lp.G, lp.h)
            if res.status == "optimal":
                assert np.all(lp.G @ res.x <= lp.h + 1e-9)
                ref = scipy_opt.linprog(lp.c, A_ub=lp.G, b_ub=lp.h,
                                        bounds=(None, None), method="highs")
                assert res.value == pytest.approx(ref.fun, abs=1e-9)

    def test_edge_cases(self):
        for lp in (INFEASIBLE_LP, UNBOUNDED_LP, PHASE_ONE_LP, NEAR_TIE_LP, SIGNED_ZERO_LP):
            assert_same_solve(lp)
        assert lp_solve(NEAR_TIE_LP).x.tolist() == [0.0]

    def test_pivot_keeps_signed_zeros(self):
        # row 1 has a zero factor in the pivot column and a -0.0 under the
        # pivot row's -4; subtracting 0 * -4 (= -0.0) would make it +0.0
        tableau = np.array([[2.0, -4.0, 1.0], [0.0, -0.0, 3.0], [1.0, 1.0, 0.0]])
        rhs = np.array([2.0, -0.0, 1.0])
        states = []
        for pivot in (hausdorff_module._pivot, _pivot_loop):
            t, r, b = tableau.copy(), rhs.copy(), np.array([3, 4, 5])
            pivot(t, r, b, 0, 0)
            states.append((t, r, b))
        assert [a.tobytes() for a in states[0]] == [a.tobytes() for a in states[1]]
        t0 = states[0][0]
        assert np.signbit(t0[1, 1])
        # an all-rows rank-1 update flips that zero
        t = tableau.copy()
        t[0] /= t[0, 0]
        factors = t[:, 0].copy()
        factors[0] = 0.0
        t -= np.outer(factors, t[0])
        assert not np.signbit(t[1, 1])
        assert t.tobytes() != t0.tobytes()

    @pytest.mark.parametrize("shape,seed,mode", [
        ((3, 2, 1), 0, HausdorffMode.EXACT),
        ((5, 4, 2), 1, HausdorffMode.LOWER_BOUND),
    ])
    def test_distance_and_support_lps(self, shape, seed, mode):
        # the truth and its plug-in estimate, in exact (d=6) or lower (d=20) mode
        truth = random_problem(*shape, 0.9, seed=seed)
        empirical, _ = us_irl_se(GenerativeModel(truth, seed), 100)
        lps = distance_lps(polytope_h_rep(truth), polytope_h_rep(empirical), mode)
        assert len(lps) > 10
        for lp in lps:
            assert_same_solve(lp)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), gamma=st.sampled_from([0.99, 0.999]),
           mode=st.sampled_from(list(ConstraintMode)))
    # with the implied equality row, these support LPs ended outside the set
    @example(seed=2969, gamma=0.999, mode=ConstraintMode.UPPER)
    @example(seed=4025, gamma=0.999, mode=ConstraintMode.UPPER)
    def test_near_one_discount_stochastic_optimal(self, seed, gamma, mode):
        # a stochastic optimal policy adds equality rows, so the sets are
        # lower-dimensional and the LPs degenerate; LOWER/EXACT experts can
        # make them empty
        (poly,) = near_one_discount_polytopes(seed, gamma, (mode,))
        feasibility = LinearProgram(np.zeros(poly.dim), poly.G, poly.h)
        assert_same_solve(feasibility)
        if lp_solve(feasibility).status == "infeasible":
            return
        # support LPs on both sets, then distance LPs both ways
        box = box_polytope(np.full(poly.dim, -0.5), np.full(poly.dim, 1.5))
        for lp in distance_lps(poly, box, HausdorffMode.LOWER_BOUND, budget=3):
            assert_same_solve(lp)

    @pytest.mark.parametrize("seed,mode,empty", [
        (1500, ConstraintMode.EXACT, True),
        (1919, ConstraintMode.EXACT, True),
        (2392, ConstraintMode.EXACT, True),
        (6980, ConstraintMode.EXACT, True),
        (2392, ConstraintMode.LOWER, False),
        (3829, ConstraintMode.LOWER, False),
        (4025, ConstraintMode.LOWER, False),
        (6980, ConstraintMode.LOWER, False),
    ])
    def test_near_one_discount_phase_one(self, seed, mode, empty):
        # gamma = 0.999 draws whose LOWER/EXACT rows have negative bounds, so
        # every support LP runs a phase one; HiGHS decides emptiness
        (poly,) = near_one_discount_polytopes(seed, 0.999, (mode,))
        assert highs_is_empty(poly.G, poly.h) == empty
        box = box_polytope(np.full(poly.dim, -0.5), np.full(poly.dim, 1.5))

        def call():
            return hausdorff_distance(poly, box, HausdorffMode.LOWER_BOUND, budget=3, seed=3)
        if empty:
            with pytest.raises(EmptyPolytopeError):
                call()
        else:
            assert np.isfinite(call().value)

    def test_lower_exact_emptiness_matches_highs(self):
        # the phase one decides emptiness: the feasibility LP of each set is
        # infeasible exactly when HiGHS finds the set empty, and an optimum
        # lies in the set
        polys = lower_exact_polytopes(600)
        empty = 0
        for poly in polys:
            res = lp_solve(LinearProgram(np.zeros(poly.dim), poly.G, poly.h))
            assert res.status in ("optimal", "infeasible")
            assert (res.status == "infeasible") == highs_is_empty(poly.G, poly.h)
            if res.status == "optimal":
                assert np.all(poly.G @ res.x <= poly.h + 1e-8)
            empty += res.status == "infeasible"
        # both verdicts occur, and most sets have a negative bound
        assert 0 < empty < len(polys)
        assert sum(bool(np.any(p.h < 0.0)) for p in polys) > len(polys) // 2

    def test_d64_exact_phase_one_is_short(self):
        # on zero costs every dual step is 0, so a phase one that counted
        # zero steps as degenerate pivots turned to Bland's rule for good and
        # reached the 50,000-pivot cap on three of these six sets; pricing
        # takes 49-88 pivots
        for seed in range(6):
            base = random_problem(8, 8, 2, 0.9, seed=seed)
            experts = tuple(dataclasses.replace(ex, mode=ConstraintMode.EXACT)
                            for ex in base.experts)
            poly = polytope_h_rep(dataclasses.replace(base, experts=experts))
            res = lp_solve(LinearProgram(np.zeros(poly.dim), poly.G, poly.h))
            assert (res.status == "infeasible") == highs_is_empty(poly.G, poly.h)
            assert sum(res.pivots) <= 200

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), gamma=st.sampled_from([0.99, 0.999]),
           modes=st.tuples(st.sampled_from(list(ConstraintMode)),
                           st.sampled_from(list(ConstraintMode))))
    # with the implied equality row, this read 0.57088 against HiGHS 0.49991
    @example(seed=2969, gamma=0.999, modes=(ConstraintMode.LOWER, ConstraintMode.UPPER))
    def test_near_one_discount_exact_distance_matches_highs(self, seed, gamma, modes):
        # the same draws with two experts, one per set: the exact distance
        # equals HiGHS over independently enumerated vertices, and an empty
        # set raises
        p1, p2 = near_one_discount_polytopes(seed, gamma, modes)
        if highs_is_empty(p1.G, p1.h) or highs_is_empty(p2.G, p2.h):
            with pytest.raises(EmptyPolytopeError):
                hausdorff_distance(p1, p2)
            return
        rep = hausdorff_distance(p1, p2)
        d12 = highs_directed_sup(vertices_by_subsets(p1.G, p1.h), p2.G, p2.h)
        d21 = highs_directed_sup(vertices_by_subsets(p2.G, p2.h), p1.G, p1.h)
        assert rep.directed[0] == pytest.approx(d12, abs=1e-7)
        assert rep.directed[1] == pytest.approx(d21, abs=1e-7)


    @pytest.mark.parametrize("gamma", [0.99, 0.999])
    def test_near_one_discount_same_set_as_loop_oracle(self, gamma):
        # without the implied equality row the set is the same: HiGHS support
        # points of each H-rep lie in the other. The rows differ: the loop
        # keeps the most likely action's pair and drops its partner as a
        # scaled duplicate (at seed 44, gamma 0.999, LOWER, the subset
        # oracle finds 82 vertices from those rows and 68 from these)
        directions = np.vstack([np.eye(6), -np.eye(6),
                                np.random.default_rng(0).normal(size=(20, 6))])
        for seed in (*range(6), 44):
            for problem in near_one_discount_problems(seed, gamma, list(ConstraintMode)):
                new, old = polytope_h_rep(problem), h_rep_loop(problem)
                assert new.labels.count("equality") == 2
                assert highs_is_empty(new.G, new.h) == highs_is_empty(old.G, old.h)
                if highs_is_empty(new.G, new.h):
                    continue
                for a, b in ((new, old), (old, new)):
                    points = highs_support_points(directions, a.G, a.h)
                    assert highs_directed_sup(points, b.G, b.h) <= 1e-9


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

    def test_any_inside_point_gives_the_distance(self):
        # the LP starts at (inside, max|r0 - inside|); where it starts does
        # not change the optimum
        poly = polytope_h_rep(random_problem(3, 2, 1, 0.9, seed=0))
        vertices = enumerate_vertices(poly)
        rng = np.random.default_rng(4)
        for point in rng.uniform(-0.2, 1.2, size=(10, poly.dim)):
            want = highs_directed_sup(point[None, :], poly.G, poly.h)
            assert directed_distance(point, poly) == pytest.approx(want, abs=1e-9)
            for anchor in vertices[::20]:
                got = directed_distance(point, poly, inside=anchor)
                assert got == pytest.approx(want, abs=1e-9)

    def test_inside_point_outside_raises(self):
        box = box_polytope([0, 0], [1, 1])
        with pytest.raises(InfeasiblePointError):
            directed_distance(np.array([2.0, 0.5]), box, inside=np.array([1.0 + 1e-6, 0.5]))
        with pytest.raises(ValueError, match="dimension"):
            directed_distance(np.array([2.0, 0.5]), box, inside=np.array([0.5]))

    def test_rounding_residue_of_inside_point_is_clipped(self):
        # a point outside by less than FEAS_TOL counts as a point of the set;
        # its negative slack is read as 0, so the LP needs no phase one
        box = box_polytope([0, 0], [1, 1])
        solves, dist = solved_lps(directed_distance, np.array([2.0, 0.5]), box,
                                  inside=np.array([1.0 + 1e-12, 0.5]))
        assert len(solves) == 1
        assert dist == pytest.approx(1.0, abs=1e-9)
        (lp, res), = solves
        assert np.all(lp.h >= 0.0) and res.pivots[0] == 0

    @pytest.mark.parametrize("step,raises", [(5e-9, False), (2e-8, True)])
    def test_optimum_outside_raises(self, monkeypatch, step, raises):
        # x <= 1 written as 1000 x <= 1000: the check is relative to the
        # row's largest entry, so an optimum 5e-9 outside passes and one
        # 2e-8 outside raises
        poly = RewardPolytope(1, 2, np.array([[1000.0, 0], [-1, 0], [0, 1], [0, -1]]),
                              np.array([1000.0, 0, 1, 0]), ("row",) * 4)
        inject_optimum(monkeypatch, [step, 0.0, 0.0])
        point, inside = np.array([2.0, 0.5]), np.array([1.0, 0.5])
        if raises:
            with pytest.raises(InfeasiblePointError):
                directed_distance(point, poly, inside=inside)
        else:
            assert directed_distance(point, poly, inside=inside) == pytest.approx(1.0)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), gamma=st.sampled_from([0.99, 0.999]),
           modes=st.tuples(st.sampled_from(list(ConstraintMode)),
                           st.sampled_from(list(ConstraintMode))))
    def test_distance_lp_points_lie_in_polytope(self, seed, gamma, modes):
        # rows reach 1/(1 - gamma): every distance-LP point anchor + y,
        # cold or warm, violates no row by more than FEAS_TOL of its largest
        # entry
        p1, p2 = near_one_discount_polytopes(seed, gamma, modes)
        if highs_is_empty(p1.G, p1.h) or highs_is_empty(p2.G, p2.h):
            return
        solves, _ = solved_lps(hausdorff_distance, p1, p2)
        d = p1.dim
        for lp, res in solves:
            if lp.G.shape[1] != d + 1:
                continue
            # the first rows are the polytope's, with h - G anchor as bounds
            m = lp.G.shape[0] - 2 * d
            rows, bounds = lp.G[:m, :d], lp.h[:m]
            y = res.x[:d]
            scale = np.max(np.abs(rows), axis=1)
            assert np.all(rows @ y - bounds <= hausdorff_module.FEAS_TOL * scale)

    @pytest.mark.parametrize("shape,seed,mode", [
        ((3, 2, 1), 0, HausdorffMode.EXACT),
        ((5, 4, 2), 1, HausdorffMode.LOWER_BOUND),
    ])
    def test_distance_lps_skip_phase_one(self, shape, seed, mode):
        truth = random_problem(*shape, 0.9, seed=seed)
        empirical, _ = us_irl_se(GenerativeModel(truth, seed), 100)
        solves, _ = solved_lps(hausdorff_distance, polytope_h_rep(truth),
                               polytope_h_rep(empirical), mode=mode, budget=4, seed=3)
        distance = [(lp, res) for lp, res in solves if lp.G.shape[1] == truth.dim + 1]
        assert len(distance) >= 8
        assert all(np.all(lp.h >= 0.0) for lp, _ in distance)
        # warm solves too: their dual pivots start from a dual feasible basis
        assert all(res.pivots[0] == 0 for _, res in distance)
        if mode is HausdorffMode.EXACT:
            # plus one feasibility LP per polytope
            assert len(solves) == len(distance) + 2


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

    def test_dedupe_matches_pairwise_loop(self):
        # the pools the walk dedupes, one per round, on the d=8 lower-bound
        # polytopes and on random d <= 8 polytopes
        pools = []
        unseen = hausdorff_module._unseen
        rng = np.random.default_rng(8)
        polys = lb_d8_polytopes() + cut_boxes(rng)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hausdorff_module, "_unseen",
                          lambda points, vertices: pools.append((points, vertices))
                          or unseen(points, vertices))
            for poly in polys:
                first = len(pools)
                vertices = enumerate_vertices(poly)
                # every vertex came out of these pools, in the order kept
                kept = np.vstack([unseen(*pool) for pool in pools[first:]])
                assert kept.tobytes() == vertices.tobytes()
        # a pool of points within, at and just beyond DEDUPE_TOL, so chains
        tol = hausdorff_module.DEDUPE_TOL
        base = rng.uniform(0, 1, size=(6, 4))
        shifts = tol * np.array([0.0, 0.5, 0.99, 1.0, 1.01, 2.0])
        near = (base[:, None, :] + shifts[None, :, None]
                * rng.choice([-1.0, 1.0], size=(6, 6, 4))).reshape(-1, 4)
        pools.append((near[rng.permutation(len(near))], np.empty((0, 4))))
        # the 126 permutations of four ones in nine places, each with a copy
        # shifted by tol / 2, half the 0/1 points being vertices already
        ones = np.array([np.isin(np.arange(9), c) for c in
                         itertools.combinations(range(9), 4)], dtype=float)
        ties = np.vstack([ones, ones + 0.5 * tol * rng.choice([-1.0, 1.0], size=ones.shape)])
        ties = ties[rng.permutation(len(ties))]
        # and 300 points within tol / 2 of one point among 200 within 2 tol:
        # for any w with |w|_1 = 1 the first 300 share one key window, and
        # near points chain through the pool
        centre = rng.uniform(0, 1, size=9)
        cloud = centre + tol * np.vstack([rng.uniform(-0.5, 0.5, size=(300, 9)),
                                          rng.uniform(-2.0, 2.0, size=(200, 9))])
        cloud = cloud[rng.permutation(len(cloud))]
        pools += [(ties, np.empty((0, 9))), (ties, ones[::2]),
                  (cloud, np.empty((0, 9))), (cloud[100:], cloud[:1])]
        assert len(pools) > len(polys)
        for points, vertices in pools:
            want = points
            if len(vertices):
                gaps = np.max(np.abs(points[:, None, :] - vertices[None, :, :]), axis=2)
                want = points[gaps.min(axis=1) >= tol]
            got, want = unseen(points, vertices), drop_near_duplicates_loop(want)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("family", ["lb_d8", "sweep_d6", "fig1", "cut_boxes", "near_one"])
    def test_walk_matches_subset_oracle(self, family):
        if family == "lb_d8":
            polys = lb_d8_polytopes()
        elif family == "sweep_d6":
            # the sweep truth and its plug-in estimates
            truth = random_problem(3, 2, 1, 0.9, seed=0)
            polys = [polytope_h_rep(truth)] + [
                polytope_h_rep(us_irl_se(GenerativeModel(truth, seed), t)[0])
                for t in (10, 100, 1000) for seed in range(3)]
        elif family == "fig1":
            polys = [polytope_h_rep(example_fig1(0.9, 0.5))]
        elif family == "near_one":
            # a stochastic optimal policy puts an equality pair in every
            # tangent cone, and rows reach 1/(1 - gamma)
            polys = [poly for seed in range(6) for gamma in (0.99, 0.999)
                     for poly in near_one_discount_polytopes(seed, gamma, list(ConstraintMode))]
        else:
            polys = cut_boxes(np.random.default_rng(8))
        walked = 0
        for poly in polys:
            want = vertices_by_subsets(poly.G, poly.h)
            if len(want) == 0:
                with pytest.raises(EmptyPolytopeError):
                    enumerate_vertices(poly)
                continue
            assert_same_vertices(enumerate_vertices(poly), want)
            walked += 1
        assert walked >= len(polys) / 2

    @pytest.mark.parametrize("family", ["lb_d8", "tree_d10", "sweep_d6", "cut_boxes",
                                        "near_one", "octahedron"])
    def test_batched_cones_match_loop_oracle(self, family):
        # every degenerate vertex's cone, as the batched double description
        # returns it and as the per-vertex loop does: the same rays, in order
        if family == "lb_d8":
            polys = lb_d8_polytopes()
        elif family == "tree_d10":
            polys = [polytope_h_rep(lb_tree(2, 2, 0.9, 0.1, v)) for v in ((1, -1), (-1, 1))]
        elif family == "sweep_d6":
            truth = random_problem(3, 2, 1, 0.9, seed=0)
            polys = [polytope_h_rep(us_irl_se(GenerativeModel(truth, seed), t)[0])
                     for t in (10, 100, 1000) for seed in range(3)]
        elif family == "cut_boxes":
            polys = cut_boxes(np.random.default_rng(8))
        elif family == "near_one":
            polys = [poly for seed in range(6) for gamma in (0.99, 0.999)
                     for poly in near_one_discount_polytopes(seed, gamma, list(ConstraintMode))]
        else:
            G = np.array(list(itertools.product([-1.0, 1.0], repeat=3)))
            polys = [RewardPolytope(1, 3, G, np.ones(len(G)), ("row",) * len(G))]
        calls = []
        refine = hausdorff_module._refine_cones
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hausdorff_module, "_refine_cones",
                          lambda *args: calls.append((args, refine(*args))) or calls[-1][1])
            for poly in polys:
                try:
                    enumerate_vertices(poly)
                except EmptyPolytopeError:
                    pass
        cones = 0
        for (rays, rows, size), (got, counts) in calls:
            assert len(counts) == len(rays) and counts.sum() == len(got)
            for ray, row, n, cone in zip(rays, rows, size, np.split(got, np.cumsum(counts)[:-1])):
                want = refine_loop(ray, row[:n])
                assert cone.shape == want.shape
                assert np.max(np.abs(cone - want), initial=0.0) <= 1e-12
                cones += 1
        assert cones > 0

    @staticmethod
    def assert_cone_edges(G, h, vertex, want):
        """The walk's far ends from `vertex` are the vertices `want`, and
        the tangent cone there was cut by double description."""
        cuts = []
        refine = hausdorff_module._refine_cones
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(hausdorff_module, "_refine_cones",
                          lambda rays, *args: cuts.append(len(rays)) or refine(rays, *args))
            ends = hausdorff_module._neighbours(G, h, vertex[None, :])
        assert cuts == [1]
        assert_same_vertices(ends, want)

    def test_octahedron_edges(self):
        # |x|_1 <= 1: each of the 6 vertices lies on 4 of the 8 rows in 3-D,
        # so 3 of them make the simplicial cone and the fourth cuts it into
        # a cone of 4 rays, one per edge
        G = np.array(list(itertools.product([-1.0, 1.0], repeat=3)))
        h = np.ones(len(G))
        vertices = enumerate_vertices(RewardPolytope(1, 3, G, h, ("row",) * len(G)))
        assert_same_vertices(vertices, np.vstack([np.eye(3), -np.eye(3)]))
        for vertex in vertices:
            assert np.count_nonzero(np.abs(G @ vertex - h) < 1e-12) == 4
            self.assert_cone_edges(G, h, vertex, vertices[np.abs(vertices @ vertex) < 0.5])

    def test_square_pyramid_apex(self):
        # the apex (0, 0, 1) over the base [-1, 1]^2 lies on the 4 side rows
        G = np.array([[0.0, 0, -1], [1, 0, 1], [-1, 0, 1], [0, 1, 1], [0, -1, 1]])
        h = np.array([0.0, 1, 1, 1, 1])
        base = np.array([[x, y, 0.0] for x in (-1, 1) for y in (-1, 1)])
        vertices = enumerate_vertices(RewardPolytope(1, 3, G, h, ("row",) * 5))
        assert_same_vertices(vertices, np.vstack([base, [0.0, 0, 1]]))
        self.assert_cone_edges(G, h, np.array([0.0, 0, 1]), base)

    def test_tree_d10_mirror_pair(self):
        # beyond the subset oracle's reach: C(25, 10) = 3.3M subsets
        ta = polytope_h_rep(lb_tree(2, 2, 0.9, 0.1, (1, -1)))
        tb = polytope_h_rep(lb_tree(2, 2, 0.9, 0.1, (-1, 1)))
        assert len(enumerate_vertices(ta)) == len(enumerate_vertices(tb)) == 339
        rep = hausdorff_distance(ta, tb)
        # mirror images, so the two directed distances agree
        assert rep.directed[0] == pytest.approx(rep.directed[1], abs=1e-9)
        assert rep.value == pytest.approx(0.310345, abs=1e-6)

    def test_walk_start_point(self):
        poly = polytope_h_rep(example_fig1(0.9, 0.5))
        vertices = enumerate_vertices(poly)
        # from a vertex or from inside, the same vertices
        for inside in (vertices[-1], vertices.mean(axis=0)):
            assert_same_vertices(enumerate_vertices(poly, inside=inside), vertices)
        with pytest.raises(InfeasiblePointError):
            enumerate_vertices(poly, inside=np.full(poly.dim, 2.0))
        with pytest.raises(ValueError, match="dimension"):
            enumerate_vertices(poly, inside=np.zeros(poly.dim + 1))

    def test_unbounded_raises(self):
        # the triangle of test_triangle without its third row: a quadrant,
        # whose two edges meet no row
        G = np.array([[-1.0, 0.0], [0.0, -1.0]])
        quadrant = RewardPolytope(1, 2, G, np.zeros(2), ("a", "b"))
        with pytest.raises(ValueError, match="unbounded"):
            enumerate_vertices(quadrant)
        # a strip contains a line, so it has no vertex to start from
        strip = RewardPolytope(1, 2, np.array([[1.0, 0.0], [-1.0, 0.0]]),
                               np.ones(2), ("a", "b"))
        with pytest.raises(ValueError, match="line"):
            enumerate_vertices(strip)

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

    @pytest.mark.parametrize("budget", [0, -1])
    def test_lower_mode_budget_below_one_raises(self, budget):
        poly = box_polytope([0, 0], [1, 1])
        with pytest.raises(ValueError, match="budget") as exc:
            hausdorff_distance(poly, poly, HausdorffMode.LOWER_BOUND, budget=budget)
        assert not isinstance(exc.value, EmptyPolytopeError)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            hausdorff_distance(box_polytope([0], [1]), box_polytope([0, 0], [1, 1]))

    def test_nonempty_pair_is_not_reported_empty(self):
        # phase one of the unshifted distance LP declared this non-empty
        # pair infeasible; HiGHS gives 0.10466604803247626. The plug-in
        # problem is pinned in a file: its metadata names how it was drawn.
        truth = random_problem(5, 4, 2, 0.9, seed=1)
        empirical, _ = read_problem(DATA / "nonempty_pair_empirical.json")
        rep = hausdorff_distance(polytope_h_rep(truth), polytope_h_rep(empirical),
                                 HausdorffMode.LOWER_BOUND, budget=16, seed=2000803381)
        assert rep.value == pytest.approx(0.104666048032476, abs=1e-9)

    def test_support_optimum_outside_raises(self, monkeypatch):
        poly = box_polytope([0, 0], [1, 1])
        inject_optimum(monkeypatch, [1.5, 0.5])
        with pytest.raises(InfeasiblePointError):
            sample_support_points(poly, 2, np.random.default_rng(0))

    @pytest.mark.parametrize("step,raises", [(5e-9, False), (2e-8, True)])
    def test_support_optimum_outside_is_row_relative(self, monkeypatch, step, raises):
        # x <= 1 written as 1000 x <= 1000, as for the distance LPs: a support
        # point 5e-9 outside passes and one 2e-8 outside raises
        poly = RewardPolytope(1, 2, np.array([[1000.0, 0], [-1, 0], [0, 1], [0, -1]]),
                              np.array([1000.0, 0, 1, 0]), ("row",) * 4)
        inject_optimum(monkeypatch, [1.0 + step, 0.5])
        if raises:
            with pytest.raises(InfeasiblePointError):
                sample_support_points(poly, 2, np.random.default_rng(0))
        else:
            assert sample_support_points(poly, 2, np.random.default_rng(0)).shape == (2, 2)

    def test_sampled_points_prefix_property(self):
        poly = polytope_h_rep(example_fig1(0.9, 0.5))
        small = sample_support_points(poly, 4, np.random.default_rng(5))
        large = sample_support_points(poly, 9, np.random.default_rng(5))
        assert np.allclose(large[:4], small)


def sweep_d6_pairs():
    """The sweep truth at d=6 and its plug-in estimates, seeds 0-8 at
    t = 10, 100, 1000: 27 pairs."""
    problem = random_problem(3, 2, 1, 0.9, seed=0)
    truth = polytope_h_rep(problem)
    return [(truth, polytope_h_rep(us_irl_se(GenerativeModel(problem, seed), t)[0]))
            for seed in range(9) for t in (10, 100, 1000)]


def lb_d8_pairs():
    """The 12 pairs of the d=8 lower-bound benchmark: each base polytope
    against its two variants."""
    polys = lb_d8_polytopes()
    return [(polys[i], polys[i + k]) for i in range(0, len(polys), 3) for k in (1, 2)]


def cut_box_pairs():
    """Each cut box against the unit box of its dimension shifted by 0.25,
    which holds part of it."""
    return [(poly, box_polytope(np.full(poly.dim, 0.25), np.full(poly.dim, 1.25)))
            for poly in cut_boxes(np.random.default_rng(8))]


class TestPrunedSupremum:
    @pytest.mark.parametrize("family", ["sweep_d6", "lb_d8", "cut_boxes"])
    def test_matches_loop_oracle_exact(self, family):
        pairs = {"sweep_d6": sweep_d6_pairs, "lb_d8": lb_d8_pairs,
                 "cut_boxes": cut_box_pairs}[family]()
        for p1, p2 in pairs:
            v1, v2 = enumerate_vertices(p1), enumerate_vertices(p2)
            for points, target, anchors in ((v1, p2, v2), (v2, p1, v1)):
                got = hausdorff_module._directed_sup(points, target, anchors)
                assert got == pytest.approx(directed_sup_loop(points, target, anchors),
                                            abs=1e-12)

    def test_matches_loop_oracle_lower(self):
        # support points of the d=20 truth and its m=100 estimate, budget 16
        truth = random_problem(5, 4, 2, 0.9, seed=1)
        empirical, _ = us_irl_se(GenerativeModel(truth, 1), 100)
        p1, p2 = polytope_h_rep(truth), polytope_h_rep(empirical)
        s1 = sample_support_points(p1, 16, np.random.default_rng(0))
        s2 = sample_support_points(p2, 16, np.random.default_rng(1))
        for points, target, anchors in ((s1, p2, s2), (s2, p1, s1)):
            got = hausdorff_module._directed_sup(points, target, anchors)
            assert got == pytest.approx(directed_sup_loop(points, target, anchors), abs=1e-12)

    def test_close_calls_get_their_lp(self):
        # the unit square, with one anchor at the origin
        square = box_polytope([0, 0], [1, 1])
        origin = np.zeros((1, 2))
        # (1.5, 1) reads 0.5 from its LP; (-0.5005, 0) has an upper bound
        # just above that, and it is also its distance
        points = np.array([[1.5, 1.0], [-0.5005, 0.0]])
        assert hausdorff_module._directed_sup(points, square, origin) == pytest.approx(
            0.5005, abs=1e-12)
        # outside by less than FEAS_TOL, but outside: the inside test is exact
        point = np.array([[1.0 + 5e-9, 0.5]])
        got = hausdorff_module._directed_sup(point, square, origin)
        assert got == pytest.approx(directed_sup_loop(point, square, origin), abs=1e-12)
        assert got == pytest.approx(5e-9, rel=1e-6)

    def test_zero_row_bounds_nothing(self):
        # 0 <= -1e-9 holds within FEAS_TOL, so the anchor counts as a point
        # of the set; the row must not give an infinite lower bound
        square = box_polytope([0, 0], [1, 1])
        padded = RewardPolytope(1, 2, np.vstack([square.G, np.zeros(2)]),
                                np.append(square.h, -1e-9), square.labels + ("zero",))
        origin = np.zeros((1, 2))
        points = np.array([[1.5, 1.0], [0.5, 0.5]])
        got = hausdorff_module._directed_sup(points, padded, origin)
        assert got == pytest.approx(directed_sup_loop(points, padded, origin), abs=1e-12)
        assert got == pytest.approx(0.5, abs=1e-12)

    def test_skips_most_lps(self):
        # the d=6 sweep truth against its m=100 estimate: at most 60 % of
        # the vertices of both sides get a distance LP
        truth = random_problem(3, 2, 1, 0.9, seed=0)
        p1 = polytope_h_rep(truth)
        p2 = polytope_h_rep(us_irl_se(GenerativeModel(truth, 0), 100)[0])
        solves, _ = solved_lps(hausdorff_distance, p1, p2)
        calls = [lp for lp, _ in solves if lp.G.shape[1] == p1.dim + 1]
        vertices = len(enumerate_vertices(p1)) + len(enumerate_vertices(p2))
        assert 0 < len(calls) <= 0.6 * vertices

    @staticmethod
    def assert_bounds_hold(poly, rng):
        # L <= HiGHS distance <= U at points inside (convex combinations of
        # vertices), on the boundary (vertices, HiGHS support points) and
        # outside (vertices pushed away from the centre, points of a wider
        # box)
        vertices = enumerate_vertices(poly)
        d = poly.dim
        inside = rng.dirichlet(np.ones(len(vertices)), size=10) @ vertices
        boundary = np.vstack([vertices[:10], highs_support_points(
            rng.standard_normal((10, d)), poly.G, poly.h)])
        lo, hi = vertices.min(axis=0), vertices.max(axis=0)
        pushed = vertices[:10] - vertices.mean(axis=0)
        outside = np.vstack([vertices[:10] + rng.uniform(0.05, 1.0, (len(pushed), 1)) * pushed,
                             rng.uniform(lo - 1.0, hi + 1.0, size=(10, d))])
        points = np.vstack([inside, boundary, outside])
        lower, upper, nearest = hausdorff_module._distance_bounds(points, poly, vertices)
        dist = highs_distances(points, poly.G, poly.h)
        # row-relative: the LP tolerances act on rows whose entries reach
        # 1/(1 - gamma)
        tol = 1e-9 * max(1.0, float(np.max(np.abs(poly.G))))
        assert np.all(lower <= dist + tol)
        assert np.all(dist <= upper + tol)
        assert np.array_equal(upper, np.max(np.abs(points - vertices[nearest]), axis=1))
        # an exact zero lower bound: the point violates no row
        violates_none = [np.all(poly.G @ point - poly.h <= 0.0) for point in points]
        assert np.array_equal(lower == 0.0, violates_none)
        assert np.any(lower > 0.0)

    def test_bounds_match_loop_oracle(self):
        # the same bytes as one point at a time: vertices of the d=10 tree
        # pair (339 x 339 x 10 differences span many blocks), the d=6 sweep
        # pairs, and d=20 support points
        ta = polytope_h_rep(lb_tree(2, 2, 0.9, 0.1, (1, -1)))
        tb = polytope_h_rep(lb_tree(2, 2, 0.9, 0.1, (-1, 1)))
        va, vb = enumerate_vertices(ta), enumerate_vertices(tb)
        assert va.size * len(vb) > hausdorff_module._BLOCK
        cases = [(va, tb, vb), (vb, ta, va)]
        for p1, p2 in sweep_d6_pairs()[::4]:
            v1, v2 = enumerate_vertices(p1), enumerate_vertices(p2)
            cases += [(v1, p2, v2), (v2, p1, v1)]
        truth = random_problem(5, 4, 2, 0.9, seed=1)
        p1 = polytope_h_rep(truth)
        p2 = polytope_h_rep(us_irl_se(GenerativeModel(truth, 1), 100)[0])
        s1 = sample_support_points(p1, 16, np.random.default_rng(0))
        s2 = sample_support_points(p2, 16, np.random.default_rng(1))
        cases += [(s1, p2, s2), (s2, p1, s1)]
        for points, target, anchors in cases:
            got = hausdorff_module._distance_bounds(points, target, anchors)
            want = distance_bounds_loop(points, target, anchors)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_bounds_hold(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 7))
        lp = random_bounded_lp(rng, d)
        poly = RewardPolytope(1, d, lp.G, lp.h, tuple(["row"] * lp.G.shape[0]))
        self.assert_bounds_hold(poly, rng)

    def test_bounds_hold_near_one_discount(self):
        # gamma = 0.999: row entries reach 1/(1 - gamma)
        (poly,) = near_one_discount_polytopes(2969, 0.999, (ConstraintMode.UPPER,))
        assert np.max(np.abs(poly.G)) > 100.0
        self.assert_bounds_hold(poly, np.random.default_rng(0))


def lower_d20_pairs():
    """The d=20 truth against its plug-in estimates at m = 100, 1000, 10000
    (model seed 1): the lower-bound benchmark pairs."""
    truth = random_problem(5, 4, 2, 0.9, seed=1)
    p1 = polytope_h_rep(truth)
    return [(p1, polytope_h_rep(us_irl_se(GenerativeModel(truth, 1), m)[0]))
            for m in (100, 1000, 10000)]


class TestWarmStarts:
    @pytest.mark.parametrize("after", [0, 1, 3])
    def test_bland_fallback_matches_loop_oracle(self, monkeypatch, after):
        # pricing turns to Bland's rule after `after` degenerate pivots in a
        # row; the loop oracle reads the same constant
        monkeypatch.setattr(hausdorff_module, "_BLAND_AFTER", after)
        rng = np.random.default_rng(12)
        lps = [random_bounded_lp(rng, int(rng.integers(1, 9))) for _ in range(40)]
        for lp in lps + list(itertools.islice(small_integer_lps(), 600)):
            assert_same_solve(lp)

    def test_fallback_changes_the_pivots(self, monkeypatch):
        # the d=20 support LPs are degenerate enough that Bland's rule from
        # the first degenerate pivot on takes other pivots, to the same optimum
        (p1, _), = lower_d20_pairs()[:1]
        directions = np.random.default_rng(0).standard_normal((4, p1.dim))
        lps = [LinearProgram(-u, p1.G, p1.h) for u in directions]
        default = [lp_solve(lp) for lp in lps]
        monkeypatch.setattr(hausdorff_module, "_BLAND_AFTER", 0)
        bland = [lp_solve(lp) for lp in lps]
        assert [r.pivots for r in default] != [r.pivots for r in bland]
        for a, b in zip(default, bland):
            assert a.value == pytest.approx(b.value, abs=1e-12)

    def test_resolves_match_cold_solves(self):
        # one tableau per small-integer matrix, re-solved under new costs,
        # new bounds or both: each LP gets its cold status and value, and
        # no phase reaches the pivot cap
        rng = np.random.default_rng(9)
        solves = 0
        for lp in itertools.islice(small_integer_lps(), 0, 2000, 40):
            simplex = hausdorff_module._Simplex(lp.G)
            c, h = lp.c, lp.h
            for step in range(6):
                if step % 3 != 1:
                    c = rng.integers(-1, 2, size=c.shape).astype(float)
                if step % 3 != 0:
                    h = rng.integers(-1, 2, size=h.shape).astype(float)
                got, want = simplex.solve(c, h), lp_solve(LinearProgram(c, lp.G, h))
                assert got.status == want.status
                if want.status == "optimal":
                    assert got.value == pytest.approx(want.value, abs=1e-9)
                    assert np.all(lp.G @ got.x <= h + 1e-9)
                assert sum(got.pivots) <= 20
                solves += 1
        assert solves >= 200

    def test_pivot_cap_raises(self, monkeypatch):
        # min x + y over [-1, 1]^2 takes two pivots cold; moving the box
        # takes dual pivots warm
        G = np.array([[1.0, 0], [-1, 0], [0, 1], [0, -1]])
        simplex = hausdorff_module._Simplex(G)
        assert simplex.solve(np.ones(2), np.ones(4)).pivots == (0, 2)
        monkeypatch.setattr(hausdorff_module, "_PIVOT_CAP", 1)
        with pytest.raises(RuntimeError, match="pivots"):
            lp_solve(LinearProgram(np.ones(2), G, np.ones(4)))
        monkeypatch.setattr(hausdorff_module, "_PIVOT_CAP", 0)
        with pytest.raises(RuntimeError, match="pivots"):
            simplex.solve(np.ones(2), np.array([3.0, -2.0, 1.0, 1.0]))

    def test_dual_turns_to_bland_on_a_revisited_basis(self, monkeypatch):
        # no LP at hand makes the dual cycle, so a pivot that only relabels
        # the basis stands in for a cycle: every pivot after the first
        # returns to the basis the first reached. Pricing enters column 1
        # (the largest entry of row 0), Bland's rule column 0; after
        # _BLAND_AFTER returns Bland's rule takes one pivot, to a new basis
        monkeypatch.setattr(hausdorff_module, "_BLAND_AFTER", 3)
        monkeypatch.setattr(hausdorff_module, "_PIVOT_CAP", 8)
        entered = []

        def relabel(tableau, rhs, basis, row, col):
            entered.append(col)
            basis[row] = col
        monkeypatch.setattr(hausdorff_module, "_pivot", relabel)
        simplex = hausdorff_module._Simplex(np.array([[-1.0, -3.0], [-1.0, 0.0]]))
        with pytest.raises(RuntimeError, match="pivots"):
            simplex.solve(np.zeros(2), np.array([-2.0, -1.0]))
        assert entered == [1, 1, 1, 1, 0, 1, 1, 1]

    @staticmethod
    def phase_one_polytopes():
        """Cut boxes moved off the origin, so some bound is negative, and
        gamma = 0.999 sets of LOWER experts with negative bounds."""
        shifted = [RewardPolytope(1, p.dim, p.G, p.h - p.G @ np.full(p.dim, -0.5), p.labels)
                   for p in cut_boxes(np.random.default_rng(3))]
        near_one = [near_one_discount_polytopes(seed, 0.999, (ConstraintMode.LOWER,))[0]
                    for seed in (2392, 3829, 4025, 6980)]
        return shifted, near_one

    def test_support_points_match_cold_solves(self):
        # each warm support point is the cold lp_solve optimum of its
        # direction; a polytope with a negative bound runs phase one for its
        # first LP only. At gamma = 0.999 rows reach 1/(1 - gamma), and the
        # two agree to 1e-12 of the largest entry
        shifted, near_one = self.phase_one_polytopes()
        cases = [(p, 1e-12) for pair in lower_d20_pairs() for p in pair[1:]]
        cases += [(lower_d20_pairs()[0][0], 1e-12)] + [(p, 1e-12) for p in shifted]
        cases += [(p, 1e-12 * np.max(np.abs(p.G))) for p in near_one]
        for poly, tol in cases:
            solves, points = solved_lps(sample_support_points, poly, 16,
                                        np.random.default_rng(4))
            directions = np.random.default_rng(4).standard_normal((16, poly.dim))
            cold = [lp_solve(LinearProgram(-u, poly.G, poly.h)) for u in directions]
            assert points.shape == (16, poly.dim)
            assert np.max(np.abs(points - np.array([r.x for r in cold]))) <= tol
            negative = bool(np.any(poly.h < 0.0))
            assert (solves[0][1].pivots[0] > 0) == negative
            assert all(res.pivots[0] == 0 for _, res in solves[1:])

    def test_lower_mode_matches_highs(self):
        # 30 seeds over the lower-bound benchmark pairs: the same directions
        # maximised by HiGHS, then HiGHS distances both ways
        pairs = lower_d20_pairs()
        for seed in range(30):
            p1, p2 = pairs[seed % 3]
            rep = hausdorff_distance(p1, p2, HausdorffMode.LOWER_BOUND, budget=16, seed=seed)
            s1 = highs_support_points(
                np.random.default_rng(seed).standard_normal((16, p1.dim)), p1.G, p1.h)
            s2 = highs_support_points(
                np.random.default_rng(seed + 1).standard_normal((16, p2.dim)), p2.G, p2.h)
            assert rep.directed[0] == pytest.approx(highs_directed_sup(s1, p2.G, p2.h), abs=1e-9)
            assert rep.directed[1] == pytest.approx(highs_directed_sup(s2, p1.G, p1.h), abs=1e-9)

    def test_report_counts_lps_and_pivots(self):
        # the report's counts are those of the tableau solves; on the
        # lower-bound benchmark pairs they average at most 40 pivots per LP
        lps = pivots = 0
        for seed, (p1, p2) in enumerate(lower_d20_pairs() * 2):
            solves, rep = solved_lps(hausdorff_distance, p1, p2,
                                     HausdorffMode.LOWER_BOUND, 16, seed)
            assert rep.lps == len(solves) >= 32
            assert rep.pivots == sum(sum(res.pivots) for _, res in solves)
            lps, pivots = lps + rep.lps, pivots + rep.pivots
        assert pivots <= 40 * lps
        # exact mode counts its two feasibility LPs too
        solves, rep = solved_lps(hausdorff_distance, *sweep_d6_pairs()[1])
        assert rep.lps == len(solves) > 2
        assert rep.pivots == sum(sum(res.pivots) for _, res in solves)
        # the fields default to 0 and are frozen
        bare = HausdorffReport(0.0, HausdorffMode.EXACT, (0.0, 0.0))
        assert (bare.lps, bare.pivots) == (0, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.pivots = 0

    def test_report_counts_points(self):
        # exact mode counts each side's vertices; lower mode its support
        # points, one per direction on a bounded polytope
        for p1, p2 in lb_d8_pairs():
            rep = hausdorff_distance(p1, p2)
            assert rep.points == (len(enumerate_vertices(p1)), len(enumerate_vertices(p2)))
            rep = hausdorff_distance(p1, p2, HausdorffMode.LOWER_BOUND, budget=7)
            assert rep.points == (7, 7)
        assert HausdorffReport(0.0, HausdorffMode.EXACT, (0.0, 0.0)).points == (0, 0)

    @pytest.mark.parametrize("model_seed,m,seed", [
        (1511362038, 1000, 1449468745),
        (1071172673, 10000, 1861049796),
    ])
    def test_dual_ratio_test_passes_over_rounding_entries(self, model_seed, m, seed):
        # benchmark draws whose dual simplex, breaking ratio ties by the
        # lowest index with no pivot tolerance and no optimum check, pivoted
        # on entries of 1e-9 (rounding left in the tableau) and returned a
        # point 0.0045 and 0.00027 outside its set
        truth = random_problem(5, 4, 2, 0.9, seed=1)
        p1 = polytope_h_rep(truth)
        p2 = polytope_h_rep(us_irl_se(GenerativeModel(truth, model_seed), m)[0])
        rep = hausdorff_distance(p1, p2, HausdorffMode.LOWER_BOUND, budget=16, seed=seed)
        s1 = highs_support_points(
            np.random.default_rng(seed).standard_normal((16, p1.dim)), p1.G, p1.h)
        s2 = highs_support_points(
            np.random.default_rng(seed + 1).standard_normal((16, p2.dim)), p2.G, p2.h)
        assert rep.directed[0] == pytest.approx(highs_directed_sup(s1, p2.G, p2.h), abs=1e-9)
        assert rep.directed[1] == pytest.approx(highs_directed_sup(s2, p1.G, p1.h), abs=1e-9)

    @pytest.mark.parametrize("problem_seed", [3, 5])
    def test_d64_exact_pairs_match_highs(self, problem_seed):
        # d = 64 EXACT sets against their plug-ins: at seed 3 a warm
        # distance LP failed its check after a refactor, and at seed 5 one
        # refinement step with a drifted B^-1 passed as settled and left a
        # distance LP 1.7e-8 outside a row its basis held tight
        base = random_problem(8, 8, 2, 0.9, seed=problem_seed)
        truth = dataclasses.replace(base, experts=tuple(
            dataclasses.replace(ex, mode=ConstraintMode.EXACT, xi=0.05) for ex in base.experts))
        p1 = polytope_h_rep(truth)
        p2 = polytope_h_rep(us_irl_se(GenerativeModel(truth, problem_seed), 1000)[0])
        rep = hausdorff_distance(p1, p2, HausdorffMode.LOWER_BOUND, budget=4, seed=7)
        s1 = highs_support_points(np.random.default_rng(7).standard_normal((4, 64)), p1.G, p1.h)
        s2 = highs_support_points(np.random.default_rng(8).standard_normal((4, 64)), p2.G, p2.h)
        assert rep.directed[0] == pytest.approx(highs_directed_sup(s1, p2.G, p2.h), abs=1e-9)
        assert rep.directed[1] == pytest.approx(highs_directed_sup(s2, p1.G, p1.h), abs=1e-9)

    def test_dual_takes_the_largest_tied_entry(self):
        # -1e-8 x0 - x1 <= h: moving h from 1 to -1 makes the slack leave,
        # and on zero costs both columns tie at ratio 0. Harris' test enters
        # x1 (entry -1), not x0 (entry -1e-8, which would put x0 at 1e8)
        simplex = hausdorff_module._Simplex(np.array([[-1e-8, -1.0]]))
        assert simplex.solve(np.zeros(2), np.ones(1)).x.tolist() == [0.0, 0.0]
        res = simplex.solve(np.zeros(2), -np.ones(1))
        assert res.pivots == (0, 1)
        assert res.x.tolist() == [0.0, 1.0]

    def test_lost_accuracy_rebuilds_the_tableau(self, monkeypatch):
        # a tableau whose B^-1 is off by 1e-3 fails the optimum check; it is
        # rebuilt from the basis, and the warm solve still gives the cold
        # optimum
        (p1, p2), = lower_d20_pairs()[:1]
        simplex = hausdorff_module._distance_simplex(p2)
        anchors = sample_support_points(p2, 4, np.random.default_rng(0))
        points = sample_support_points(p1, 4, np.random.default_rng(1))
        rebuilt = []
        refactor = hausdorff_module._Simplex._refactor
        monkeypatch.setattr(hausdorff_module._Simplex, "_refactor",
                            lambda s: rebuilt.append(1) or refactor(s))
        for k, (point, anchor) in enumerate(zip(points, anchors)):
            if k:
                simplex.tableau *= 1.0 + 1e-3 * np.random.default_rng(k).standard_normal(
                    simplex.tableau.shape)
            got = hausdorff_module._distance(simplex, p2, point, anchor)
            assert got == pytest.approx(directed_distance(point, p2, inside=anchor), abs=1e-12)
        assert len(rebuilt) == 3
