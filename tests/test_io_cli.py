"""Problem/reward file round-trips and the command-line interface."""
import csv
import json

import numpy as np
import pytest

import irlse.hausdorff as hausdorff_module
from irlse import (
    ConstraintMode,
    EmptyPolytopeError,
    ExpertSpec,
    HausdorffMode,
    IrlSeProblem,
    LpResult,
    ProblemFormatError,
    RewardFunction,
    example_fig1,
    hausdorff_distance,
    lb_chain,
    lb_subopt,
    membership_implicit,
    polytope_h_rep,
    problem_from_dict,
    problem_to_dict,
    random_problem,
    read_problem,
    read_reward,
    write_problem,
)
from irlse.cli import main
from oracles import highs_directed_sup, highs_support_points


def empty_lower_pair():
    """(base, empty): a LOWER-mode expert identical to the optimal one has
    gap 0 < xi everywhere, so no reward is feasible for `empty`."""
    base = lb_chain(1, 2, 0.9, 0.0)
    empty = IrlSeProblem(base.mdp, base.optimal_policy, (
        ExpertSpec(base.optimal_policy, 0.3, ConstraintMode.LOWER),))
    return base, empty


@pytest.fixture
def fig1_path(tmp_path):
    path = tmp_path / "fig1.json"
    write_problem(path, example_fig1(0.9, 0.5))
    return path


@pytest.fixture
def d64_path(tmp_path):
    path = tmp_path / "d64.json"
    write_problem(path, random_problem(8, 8, 2, 0.9, seed=1))
    return path


def write_reward(path, reward: RewardFunction) -> None:
    """A reward file as `read_reward` reads it: a JSON S x A nested list."""
    path.write_text(json.dumps(reward.values.tolist()) + "\n")


def write_r(tmp_path, values, name="r.json"):
    path = tmp_path / name
    write_reward(path, RewardFunction(np.asarray(values, dtype=float)))
    return path


class TestProblemIo:
    def test_roundtrip_bit_identical(self, tmp_path):
        problem = random_problem(3, 2, 2, 0.9, seed=11)
        path = tmp_path / "p.json"
        write_problem(path, problem, metadata={"note": "x"})
        loaded, meta = read_problem(path)
        assert np.array_equal(loaded.mdp.transition, problem.mdp.transition)
        assert loaded.mdp.discount == problem.mdp.discount
        assert np.array_equal(loaded.optimal_policy.probs, problem.optimal_policy.probs)
        for a, b in zip(loaded.experts, problem.experts):
            assert np.array_equal(a.policy.probs, b.policy.probs)
            assert a.xi == b.xi and a.mode == b.mode
        assert meta == {"note": "x"}

    def test_modes_roundtrip(self, tmp_path):
        base = example_fig1(0.9, 0.5)
        problem = IrlSeProblem(base.mdp, base.optimal_policy, (
            ExpertSpec(base.experts[0].policy, 0.3, ConstraintMode.LOWER),
            ExpertSpec(base.experts[0].policy, 0.2, ConstraintMode.EXACT),
        ))
        path = tmp_path / "m.json"
        write_problem(path, problem)
        loaded, _ = read_problem(path)
        assert [e.mode for e in loaded.experts] == [ConstraintMode.LOWER,
                                                    ConstraintMode.EXACT]

    def test_missing_field(self):
        with pytest.raises(ProblemFormatError, match="missing field 'gamma'"):
            problem_from_dict({"num_states": 1})

    def test_two_optimal_experts(self):
        doc = problem_to_dict(example_fig1(0.9, 0.5))
        doc["experts"][1].pop("xi")
        with pytest.raises(ProblemFormatError, match="exactly one"):
            problem_from_dict(doc)

    def test_no_optimal_expert(self):
        doc = problem_to_dict(example_fig1(0.9, 0.5))
        doc["experts"][0]["xi"] = 0.5
        with pytest.raises(ProblemFormatError, match="omit"):
            problem_from_dict(doc)

    def test_bad_transition_reported(self):
        doc = problem_to_dict(example_fig1(0.9, 0.5))
        doc["transitions"][0][0][0] = 0.7
        with pytest.raises(ProblemFormatError, match=r"s=0, a=0"):
            problem_from_dict(doc)

    def test_unknown_mode(self):
        doc = problem_to_dict(example_fig1(0.9, 0.5))
        doc["experts"][1]["mode"] = "lt"
        with pytest.raises(ProblemFormatError, match="unknown mode"):
            problem_from_dict(doc)

    @pytest.mark.parametrize("xi", [float("inf"), float("nan"), -float("inf")])
    def test_non_finite_xi(self, xi):
        doc = problem_to_dict(example_fig1(0.9, 0.5))
        doc["experts"][1]["xi"] = xi
        with pytest.raises(ProblemFormatError, match="expert 1: xi must be finite"):
            problem_from_dict(doc)

    # the counts must be JSON integers and gamma and xi JSON numbers; none
    # is coerced, and a bool (JSON true/false) is not a number
    NOT_JSON_NUMBERS = [
        ("num_states", 2.9), ("num_states", 2.0), ("num_states", True),
        ("num_actions", "2"), ("gamma", "0.9"), ("gamma", False),
        ("xi", True), ("xi", "0.5"), ("xi", None),
    ]

    @pytest.mark.parametrize("field,value", NOT_JSON_NUMBERS,
                             ids=[f"{f}={v!r}" for f, v in NOT_JSON_NUMBERS])
    def test_not_json_number_exit_three(self, field, value, tmp_path, capsys):
        doc = problem_to_dict(example_fig1(0.9, 0.5))
        (doc["experts"][1] if field == "xi" else doc)[field] = value
        name = "expert 1: 'xi'" if field == "xi" else f"'{field}'"
        with pytest.raises(ProblemFormatError, match=f"^{name} must be"):
            problem_from_dict(doc)
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        r = write_r(tmp_path, [[0.6, 0.3], [0.2, 0.1]])
        assert main(["check", str(path), str(r)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {name} must be") and len(err.splitlines()) == 1

    # every leaf of the transitions, the policies and a reward table must be
    # a JSON number; each entry replaces a 0 or 1 with a string, bool or null
    # of the same value, which a coercing reader would load without error
    NOT_JSON_ARRAYS = [
        ("transitions", (0, 0, 1), "1.0"), ("transitions", (1, 0, 1), True),
        ("transitions", (0, 1, 0), None), ("policy", (0, 0), True),
        ("policy", (1, 1), False), ("policy", (0, 1), "0"),
        ("reward", None, [["0.5", True], [0.2, False]]),
        ("reward", None, [[0.5, True], [0.2, 0.1]]),
    ]

    @pytest.mark.parametrize("field,at,value", NOT_JSON_ARRAYS,
                             ids=[f"{f}{a or ''}={v!r}" for f, a, v in NOT_JSON_ARRAYS])
    def test_array_leaf_not_json_number_exit_three(self, field, at, value, tmp_path, capsys):
        doc = problem_to_dict(example_fig1(0.9, 0.5))
        r = write_r(tmp_path, [[0.6, 0.3], [0.2, 0.1]])
        if field == "transitions":
            doc["transitions"][at[0]][at[1]][at[2]] = value
            name = "'transitions'"
        elif field == "policy":
            doc["experts"][0]["policy"][at[0]][at[1]] = value
            name = "expert 0: 'policy'"
        else:
            r.write_text(json.dumps(value))
            name = "reward table"
        path = tmp_path / "p.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ProblemFormatError, match=f"^{name} must hold only numbers"):
            read_reward(r) if field == "reward" else problem_from_dict(doc)
        assert main(["check", str(path), str(r)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path if field != 'reward' else r}: {name} must hold")
        assert len(err.splitlines()) == 1

    def test_reward_roundtrip(self, tmp_path):
        values = np.array([[0.123456789012345678, 1.0], [0.0, 1e-17]])
        path = write_r(tmp_path, values)
        assert np.array_equal(read_reward(path).values, values)

    def test_bad_json_location(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ProblemFormatError, match="line 1"):
            read_problem(path)


class TestCliCheck:
    def test_member_exit_zero(self, fig1_path, tmp_path, capsys):
        r = write_r(tmp_path, [[0.6, 0.3], [0.2, 0.1]])
        assert main(["check", str(fig1_path), str(r)]) == 0
        assert "member" in capsys.readouterr().out

    def test_non_member_exit_one(self, fig1_path, tmp_path, capsys):
        r = write_r(tmp_path, [[0.9, 0.1], [0.2, 0.1]])
        assert main(["check", str(fig1_path), str(r)]) == 1
        out = capsys.readouterr().out
        assert "expert_gap" in out and "state 0" in out

    def test_missing_file_exit_three(self, fig1_path, tmp_path):
        assert main(["check", str(fig1_path), str(tmp_path / "nope.json")]) == 3

    def test_shape_mismatch_exit_three(self, fig1_path, tmp_path):
        r = write_r(tmp_path, [[0.5, 0.5, 0.5]])
        assert main(["check", str(fig1_path), str(r)]) == 3

    def test_usage_error_exit_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check"])
        assert exc.value.code == 2


class TestCliBadInput:
    OUT_OF_RANGE = [
        ["check", "{p}", "{out}", "--tol", "nan"],
        ["check", "{p}", "{out}", "--tol", "inf"],
        ["check", "{p}", "{out}", "--tol", "-1"],
        ["hausdorff", "{p}", "{p}", "--mode", "lower", "--budget", "0"],
        ["hausdorff", "{p}", "{p}", "--mode", "lower", "--budget", "-2"],
        ["hausdorff", "{p}", "{p}", "--mode", "lower", "--seed", "-1"],
        ["sweep", "{p}", "{out}", "--t-grid", "10", "--seeds", "-1"],
        ["sweep", "{p}", "{out}", "--t-grid", "0"],
        ["sweep", "{p}", "{out}", "--t-grid", "10", "--delta", "2"],
        ["estimate", "{p}", "{out}", "--m", "-1"],
        ["estimate", "{p}", "{out}", "--m", "5", "--seed", "-1"],
        ["estimate", "{p}", "{out}", "--epsilon", "2", "--delta", "0.5"],
    ]

    @pytest.mark.parametrize("argv", OUT_OF_RANGE,
                             ids=lambda argv: " ".join(a for a in argv if "{" not in a))
    def test_out_of_range_flag_exit_two(self, argv, fig1_path, tmp_path, capsys):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([a.format(p=fig1_path, out=out) for a in argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert "Traceback" not in err
        assert not out.exists()

    # two problems with S*A = 6 but shapes 2x3 and 3x2
    MISMATCHED_SHAPES = [
        ["hausdorff", "{a}", "{b}"],
        ["hausdorff", "{b}", "{a}", "--mode", "lower", "--budget", "3"],
    ]

    @pytest.mark.parametrize("argv", MISMATCHED_SHAPES,
                             ids=lambda argv: " ".join(a for a in argv if "{" not in a))
    def test_mismatched_shapes_exit_three(self, argv, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_problem(a, random_problem(2, 3, 1, 0.9, seed=0))
        write_problem(b, random_problem(3, 2, 1, 0.9, seed=0))
        assert main([arg.format(a=a, b=b) for arg in argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: problems have different numbers of states or actions\n"

    # Python's json reads and writes the non-standard literal Infinity
    INFINITE_XI = [
        ("ge", ["hausdorff", "{p}", "{p}"]),
        ("ge", ["hausdorff", "{p}", "{p}", "--mode", "lower"]),
        ("le", ["estimate", "{p}", "{out}", "--m", "5"]),
        ("le", ["check", "{p}", "{out}"]),
    ]

    @pytest.mark.parametrize("mode,argv", INFINITE_XI,
                             ids=["ge hausdorff", "ge hausdorff lower", "le estimate",
                                  "le check"])
    def test_infinite_xi_exit_three(self, mode, argv, tmp_path, capsys):
        doc = problem_to_dict(example_fig1(0.9, 0.5))
        doc["experts"][1].update(xi=float("inf"), mode=mode)
        path, out = tmp_path / "p.json", tmp_path / "out"
        path.write_text(json.dumps(doc))
        assert "Infinity" in path.read_text()
        assert main([a.format(p=path, out=out) for a in argv]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "xi must be finite" in err
        assert not out.exists()

    # A*m action counts per state must fit in int64; fig1 has A = 2 and the
    # d = 64 problem A = 8, where --epsilon 5e-6 asks for m ~ 2.0e18 < 2^62
    OVERSIZED = [
        (["estimate", "{fig1}", "{out}", "--m", str(2 ** 62)], 2),
        (["estimate", "{fig1}", "{out}", "--m", str(10 ** 23)], 2),
        (["sweep", "{fig1}", "{out}", "--t-grid", f"10,{2 ** 62}"], 2),
        (["estimate", "{d64}", "{out}", "--epsilon", "5e-6", "--delta", "0.05"], 4),
    ]

    @pytest.mark.parametrize("argv,code", OVERSIZED,
                             ids=["m 2^62", "m 10^23", "t-grid 2^62", "epsilon 5e-6"])
    def test_oversized_sample_size(self, argv, code, fig1_path, d64_path,
                                   tmp_path, capsys):
        out = tmp_path / "out"
        argv = [a.format(fig1=fig1_path, d64=d64_path, out=out) for a in argv]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1
        assert "64-bit" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["estimate", "{p}", "{out}", "--m", "5"],
                                      ["sweep", "{p}", "{out}", "--t-grid", "10"]],
                             ids=["estimate", "sweep"])
    def test_unwritable_output_exit_three(self, argv, fig1_path, tmp_path, capsys):
        out = tmp_path / "missing" / "out"
        assert main([a.format(p=fig1_path, out=out) for a in argv]) == 3
        assert capsys.readouterr().err.startswith("error: ")


class TestCliEstimate:
    def test_m_flag(self, tmp_path, capsys):
        src = tmp_path / "p.json"
        write_problem(src, random_problem(2, 2, 1, 0.5, seed=3))
        out = tmp_path / "emp.json"
        assert main(["estimate", str(src), str(out), "--m", "25", "--seed", "2"]) == 0
        emp, meta = read_problem(out)
        assert meta["m"] == 25 and meta["seed"] == 2
        assert meta["total_queries"] == 100
        assert "pi_min_support" in meta and "q1" in meta

    def test_determinism(self, tmp_path):
        src = tmp_path / "p.json"
        write_problem(src, random_problem(2, 2, 1, 0.5, seed=3))
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        main(["estimate", str(src), str(out1), "--m", "40", "--seed", "5"])
        main(["estimate", str(src), str(out2), "--m", "40", "--seed", "5"])
        assert out1.read_text() == out2.read_text()

    def test_epsilon_delta_path(self, tmp_path):
        src = tmp_path / "p.json"
        write_problem(src, random_problem(2, 2, 1, 0.5, seed=3))
        out = tmp_path / "emp.json"
        assert main(["estimate", str(src), str(out),
                     "--epsilon", "0.9", "--delta", "0.2"]) == 0
        _, meta = read_problem(out)
        assert meta["epsilon"] == 0.9 and meta["m"] >= 1

    def test_flag_exclusivity(self, tmp_path):
        src = tmp_path / "p.json"
        write_problem(src, random_problem(2, 2, 1, 0.5, seed=3))
        for extra in (["--m", "5", "--epsilon", "0.5", "--delta", "0.1"],
                      ["--epsilon", "0.5"], []):
            with pytest.raises(SystemExit) as exc:
                main(["estimate", str(src), str(tmp_path / "x.json")] + extra)
            assert exc.value.code == 2


class TestCliHausdorff:
    def test_identical_files_zero(self, fig1_path, capsys):
        assert main(["hausdorff", str(fig1_path), str(fig1_path)]) == 0
        # the whole output, byte for byte: the report's LP counts stay out of it
        assert capsys.readouterr().out == (
            "hausdorff exact distance: 0\n  directed a->b: 0\n  directed b->a: 0\n"
            "RESULT 0.0 exact\n")

    def test_subopt_pair(self, tmp_path, capsys):
        base, alt = tmp_path / "b.json", tmp_path / "a.json"
        write_problem(base, lb_subopt(1, 0.9, 0.1, 0.25, 2.0, None))
        write_problem(alt, lb_subopt(1, 0.9, 0.1, 0.25, 2.0, 0))
        assert main(["hausdorff", str(base), str(alt)]) == 0
        value = float(capsys.readouterr().out.splitlines()[-1].split()[1])
        assert value >= 0.1 - 1e-6

    def test_lower_mode_below_exact(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        write_problem(a, example_fig1(0.9, 0.5))
        write_problem(b, example_fig1(0.9, 0.2))
        main(["hausdorff", str(a), str(b), "--mode", "exact"])
        exact = float(capsys.readouterr().out.splitlines()[-1].split()[1])
        main(["hausdorff", str(a), str(b), "--mode", "lower", "--budget", "8"])
        lower = float(capsys.readouterr().out.splitlines()[-1].split()[1])
        assert lower <= exact + 1e-9

    def test_dimension_mismatch_exit_three(self, fig1_path, tmp_path):
        other = tmp_path / "o.json"
        write_problem(other, random_problem(3, 2, 1, 0.5, seed=0))
        assert main(["hausdorff", str(fig1_path), str(other)]) == 3

    def test_enum_cap_exit_four(self, tmp_path):
        big = tmp_path / "big.json"
        write_problem(big, random_problem(4, 3, 1, 0.5, seed=0))
        assert main(["hausdorff", str(big), str(big), "--mode", "exact"]) == 4

    def test_d64_lower_mode_matches_highs(self, d64_path, tmp_path, capsys):
        # no LP variable cap: the d = 64 lower bound equals the one HiGHS
        # computes from the same seeded directions
        pytest.importorskip("scipy.optimize")
        emp_path = tmp_path / "emp.json"
        assert main(["estimate", str(d64_path), str(emp_path), "--m", "10",
                     "--seed", "0"]) == 0
        capsys.readouterr()
        assert main(["hausdorff", str(d64_path), str(emp_path), "--mode", "lower",
                     "--budget", "2", "--seed", "5"]) == 0
        value = float(capsys.readouterr().out.splitlines()[-1].split()[1])
        a = polytope_h_rep(read_problem(d64_path)[0])
        b = polytope_h_rep(read_problem(emp_path)[0])
        points_a = highs_support_points(
            np.random.default_rng(5).standard_normal((2, 64)), a.G, a.h)
        points_b = highs_support_points(
            np.random.default_rng(6).standard_normal((2, 64)), b.G, b.h)
        want = max(highs_directed_sup(points_a, b.G, b.h),
                   highs_directed_sup(points_b, a.G, a.h))
        assert want > 0.0
        assert value == pytest.approx(want, abs=1e-9)

    def test_lp_optimum_outside_exit_four(self, fig1_path, monkeypatch, capsys):
        # an LP point that violates its polytope is an error, not a number
        monkeypatch.setattr(hausdorff_module._Simplex, "solve",
                            lambda simplex, c, h: LpResult("optimal", 0.0, np.full(len(c), 5.0)))
        assert main(["hausdorff", str(fig1_path), str(fig1_path), "--mode", "lower",
                     "--budget", "2"]) == 4
        assert "violates" in capsys.readouterr().err

    def test_simplex_failure_exit_four(self, fig1_path, monkeypatch, capsys):
        # a simplex that gives up is a numeric error with one line, not a traceback
        monkeypatch.setattr(hausdorff_module, "_PIVOT_CAP", 1)
        assert main(["hausdorff", str(fig1_path), str(fig1_path), "--mode", "lower",
                     "--budget", "2"]) == 4
        err = capsys.readouterr().err
        assert err.startswith("error: simplex phase reached 1 pivots")
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_empty_feasible_set_exit_four(self, tmp_path):
        base, empty = empty_lower_pair()
        flat = RewardFunction(np.full((4, 2), 0.5))
        assert not membership_implicit(empty, flat)
        assert not polytope_h_rep(empty).contains(flat)
        with pytest.raises(EmptyPolytopeError):
            hausdorff_distance(polytope_h_rep(empty), polytope_h_rep(base))
        a, b = tmp_path / "empty.json", tmp_path / "base.json"
        write_problem(a, empty)
        write_problem(b, base)
        assert main(["hausdorff", str(a), str(b), "--mode", "lower",
                     "--budget", "4"]) == 4

    def test_empty_set_exact_mode_skips_enumeration(self, tmp_path, monkeypatch):
        # a feasibility LP finds the empty set before any row subset is scanned
        base, empty = empty_lower_pair()
        enumerated = []
        monkeypatch.setattr(hausdorff_module, "enumerate_vertices",
                            lambda poly: enumerated.append(poly))
        p_empty, p_base = polytope_h_rep(empty), polytope_h_rep(base)
        for pair in ((p_empty, p_base), (p_base, p_empty)):
            with pytest.raises(EmptyPolytopeError):
                hausdorff_distance(*pair, mode=HausdorffMode.EXACT)
        a, b = tmp_path / "empty.json", tmp_path / "base.json"
        write_problem(a, empty)
        write_problem(b, base)
        assert main(["hausdorff", str(a), str(b), "--mode", "exact"]) == 4
        assert enumerated == []


class TestCliSweep:
    def test_schema_and_sorting(self, tmp_path):
        src = tmp_path / "p.json"
        write_problem(src, random_problem(2, 2, 1, 0.5, seed=3))
        out = tmp_path / "sweep.csv"
        assert main(["sweep", str(src), str(out), "--t-grid", "20,10",
                     "--seeds", "1,0", "--delta", "0.1"]) == 0
        with open(out) as handle:
            rows = list(csv.DictReader(handle))
        assert list(rows[0].keys()) == ["seed", "t", "total_queries",
                                        "hausdorff_estimate", "hausdorff_mode",
                                        "error_bound", "bound_valid", "wall_ms"]
        keys = [(int(r["seed"]), int(r["t"])) for r in rows]
        assert keys == [(0, 10), (0, 20), (1, 10), (1, 20)]
        for row in rows:
            assert int(row["total_queries"]) == int(row["t"]) * 4
            assert float(row["hausdorff_estimate"]) >= 0.0


class TestCliLbVolume:
    def test_paired_family_outputs(self, tmp_path):
        base, alt = tmp_path / "b.json", tmp_path / "a.json"
        assert main(["lb", "--family", "subopt", "--s-bar", "1", "--xi", "0.1",
                     "--pi-min", "0.25", "--alpha", "2",
                     "--variant-state", "0", str(base), str(alt)]) == 0
        pb, mb = read_problem(base)
        pa, ma = read_problem(alt)
        assert mb["family"] == "subopt" and ma["variant_state"] == 0
        assert pb.experts[0].policy.probs[1, 1] == 0.25
        assert pa.experts[0].policy.probs[1, 1] == 0.5

    def test_wrong_output_count(self, tmp_path):
        assert main(["lb", "--family", "fig1", str(tmp_path / "a.json"),
                     str(tmp_path / "b.json")]) == 2

    def test_bad_family_params_exit_two(self, tmp_path):
        assert main(["lb", "--family", "subopt", "--pi-min", "0.6",
                     "--alpha", "2", str(tmp_path / "x.json")]) == 2

    def test_tree_metadata_records_normalization(self, tmp_path):
        base, alt = tmp_path / "tb.json", tmp_path / "ta.json"
        assert main(["lb", "--family", "tree", "--s-bar", "2", "--eps-prime",
                     "0.1", "--v", "1,-1", str(base), str(alt)]) == 0
        _, meta = read_problem(alt)
        assert meta["v"] == [1, -1]
        assert "normalization" in " ".join(meta.keys()) or "row_normalization" in meta

    def test_volume_report(self, fig1_path, capsys):
        assert main(["volume", str(fig1_path)]) == 0
        out = capsys.readouterr().out
        assert "horizon-only: 100" in out
        assert "expert-aware: 5" in out
        assert "k=0.5" in out
