"""Command-line front end.

Subcommands: check (reward membership), estimate (uniform sampling of a
problem), hausdorff (distance between two problems' feasible sets), sweep
(accuracy-vs-samples CSV), lb (benchmark instance generation), volume
(zeta caps and volume bounds).

Exit codes: 0 success / member, 1 non-member (check only), 2 usage error
(including out-of-range flag values), 3 data error (unreadable, invalid or
unwritable files), 4 numeric error (enumeration dimension cap, empty
polytope, an LP point outside its polytope, a simplex that gives up,
search overflow, a required sample size too large for 64-bit counts).
"""
from __future__ import annotations

import argparse
import csv
import sys
import time

import numpy as np

from . import estimation, feasible, hausdorff, instances, problem_io

EXIT_OK = 0
EXIT_NON_MEMBER = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_problem(path):
    try:
        return problem_io.read_problem(path)
    except problem_io.ProblemFormatError as exc:
        raise _CliError(EXIT_DATA, f"{path}: {exc}") from exc


def _load_reward(path):
    try:
        return problem_io.read_reward(path)
    except problem_io.ProblemFormatError as exc:
        raise _CliError(EXIT_DATA, f"{path}: {exc}") from exc


def cmd_check(args) -> int:
    problem, _ = _load_problem(args.problem)
    reward = _load_reward(args.reward)
    if reward.values.shape != (problem.num_states, problem.num_actions):
        raise _CliError(EXIT_DATA, "reward shape does not match problem")
    report = feasible.membership_implicit(problem, reward, tol=args.tol)
    if report.is_member:
        print("member")
        return EXIT_OK
    print(f"not a member ({len(report.violations)} violated conditions):")
    for v in report.violations:
        where = f"state {v.state}" + (f", action {v.action}" if v.action >= 0 else "")
        who = f", expert {v.expert}" if v.expert >= 0 else ""
        print(f"  {v.condition} at {where}{who}: margin {v.margin:.3e}")
    return EXIT_NON_MEMBER


def cmd_estimate(args) -> int:
    problem, _ = _load_problem(args.problem)
    if problem.num_experts == 0:
        raise _CliError(EXIT_DATA, "estimation needs at least one sub-optimal expert")
    consts = estimation.complexity_constants(problem)
    if args.m is not None:
        m = args.m
    else:
        try:
            m = estimation.required_m(
                args.epsilon, args.delta, problem.num_states,
                problem.num_actions, problem.num_experts,
                problem.mdp.discount, consts.pi_min_support,
                max(ex.xi for ex in problem.experts))
        except RuntimeError as exc:  # the search for m overflowed
            raise _CliError(EXIT_NUMERIC, str(exc)) from exc
    model = estimation.GenerativeModel(problem, args.seed)
    try:
        empirical, _ = estimation.us_irl_se(model, m)
    except ValueError as exc:  # m too large for 64-bit counts
        if args.m is not None:
            raise _CliError(EXIT_USAGE, f"--m: {exc}") from exc
        raise _CliError(EXIT_NUMERIC, f"--epsilon/--delta: {exc}") from exc
    metadata = {
        "m": m,
        "seed": args.seed,
        "total_queries": m * problem.num_states * problem.num_actions,
        "pi_min_support": consts.pi_min_support,
        "pi_min_minmax": consts.pi_min_minmax,
        "q0": consts.q0,
        "q1": consts.q1,
        "q2": consts.q2,
    }
    if args.m is None:
        metadata["epsilon"] = args.epsilon
        metadata["delta"] = args.delta
    problem_io.write_problem(args.out, empirical, metadata)
    print(f"wrote {args.out} (m={m}, {metadata['total_queries']} queries)")
    return EXIT_OK


def cmd_hausdorff(args) -> int:
    problem_a, _ = _load_problem(args.problem_a)
    problem_b, _ = _load_problem(args.problem_b)
    if problem_a.optimal_policy.probs.shape != problem_b.optimal_policy.probs.shape:
        raise _CliError(EXIT_DATA, "problems have different numbers of states or actions")
    poly_a, poly_b = feasible.polytope_h_rep(problem_a), feasible.polytope_h_rep(problem_b)
    mode = (hausdorff.HausdorffMode.EXACT if args.mode == "exact"
            else hausdorff.HausdorffMode.LOWER_BOUND)
    report = hausdorff.hausdorff_distance(poly_a, poly_b, mode=mode,
                                          budget=args.budget, seed=args.seed)
    kind = "exact distance" if mode is hausdorff.HausdorffMode.EXACT else "lower bound"
    print(f"hausdorff {kind}: {report.value:.12g}")
    print(f"  directed a->b: {report.directed[0]:.12g}")
    print(f"  directed b->a: {report.directed[1]:.12g}")
    print(f"RESULT {report.value!r} {report.mode.value}")
    return EXIT_OK


def _sweep_one(problem, truth_poly, seed: int, t: int, delta: float,
               exact_ok: bool):
    start = time.perf_counter()
    model = estimation.GenerativeModel(problem, seed)
    try:
        empirical, _ = estimation.us_irl_se(model, t)
    except ValueError as exc:  # t too large for 64-bit counts
        raise _CliError(EXIT_USAGE, f"--t-grid: {exc}") from exc
    emp_poly = feasible.polytope_h_rep(empirical)
    mode = (hausdorff.HausdorffMode.EXACT if exact_ok
            else hausdorff.HausdorffMode.LOWER_BOUND)
    report = hausdorff.hausdorff_distance(truth_poly, emp_poly, mode=mode,
                                          seed=seed)
    bound = estimation.error_bound_for(problem, t, delta)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return {
        "seed": seed,
        "t": t,
        "total_queries": t * problem.num_states * problem.num_actions,
        "hausdorff_estimate": report.value,
        "hausdorff_mode": report.mode.value,
        "error_bound": bound.value,
        "bound_valid": bound.valid,
        "wall_ms": wall_ms,
    }


SWEEP_COLUMNS = ["seed", "t", "total_queries", "hausdorff_estimate",
                 "hausdorff_mode", "error_bound", "bound_valid", "wall_ms"]


def cmd_sweep(args) -> int:
    problem, _ = _load_problem(args.problem)
    if problem.num_experts == 0:
        raise _CliError(EXIT_DATA, "sweep needs at least one sub-optimal expert")
    truth_poly = feasible.polytope_h_rep(problem)
    exact_ok = problem.dim <= hausdorff.DEFAULT_ENUM_CAP
    rows = [_sweep_one(problem, truth_poly, s, t, args.delta, exact_ok)
            for s in args.seeds for t in args.t_grid]
    rows.sort(key=lambda row: (row["seed"], row["t"]))
    with open(args.out, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


def _parse_sign_vector(text: str) -> tuple:
    return tuple(int(part) for part in text.split(","))


def cmd_lb(args) -> int:
    outs = args.out
    try:
        if args.family == "fig1":
            pairs = [(instances.example_fig1(args.gamma, args.xi), {})]
        elif args.family == "chain":
            base = instances.lb_chain(args.s_bar, args.actions, args.gamma,
                                      args.eps_prime, None)
            pairs = [(base, {"variant": None})]
            if args.variant is not None:
                j, k = (int(x) for x in args.variant.split(","))
                alt = instances.lb_chain(args.s_bar, args.actions, args.gamma,
                                         args.eps_prime, (j, k))
                pairs.append((alt, {"variant": [j, k]}))
        elif args.family == "tree":
            base = instances.lb_tree(args.s_bar, args.actions, args.gamma,
                                     args.eps_prime, None)
            pairs = [(base, {"v": None})]
            if args.v is not None:
                v = _parse_sign_vector(args.v)
                alt = instances.lb_tree(args.s_bar, args.actions, args.gamma,
                                        args.eps_prime, v)
                pairs.append((alt, {"v": list(v),
                                    "row_normalization": "divide by s_bar"}))
        elif args.family == "subopt":
            base = instances.lb_subopt(args.s_bar, args.gamma, args.xi,
                                       args.pi_min, args.alpha, None)
            pairs = [(base, {"variant_state": None})]
            if args.variant_state is not None:
                alt = instances.lb_subopt(args.s_bar, args.gamma, args.xi,
                                          args.pi_min, args.alpha,
                                          args.variant_state)
                pairs.append((alt, {"variant_state": args.variant_state,
                                    "alpha": args.alpha}))
        else:  # random
            lo, hi = (float(x) for x in args.xi_range.split(","))
            pairs = [(instances.random_problem(args.states, args.actions,
                                               args.experts, args.gamma,
                                               args.seed, (lo, hi)),
                      {"seed": args.seed})]
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc)) from exc
    if len(outs) != len(pairs):
        raise _CliError(
            EXIT_USAGE,
            f"family '{args.family}' with these flags produces {len(pairs)} "
            f"file(s); {len(outs)} output path(s) given")
    for path, (problem, meta) in zip(outs, pairs):
        meta = {"family": args.family, **meta}
        problem_io.write_problem(path, problem, meta)
        print(f"wrote {path}")
    return EXIT_OK


def cmd_volume(args) -> int:
    problem, _ = _load_problem(args.problem)
    caps = feasible.zeta_caps(problem)
    single, multi = feasible.volume_upper_bounds(problem)
    unplayed = ~problem.optimal_policy.support_mask()
    print("pair (state, action) | k cap | g cap | contributing experts")
    for s in range(problem.num_states):
        for a in range(problem.num_actions):
            if not unplayed[s, a]:
                continue
            who = caps.contributing_experts[s][a]
            k = caps.k[s, a]
            k_text = "inf" if np.isinf(k) else f"{k:.6g}"
            print(f"  ({s}, {a})  k={k_text}  g={caps.g[s, a]:.6g}  experts={list(who)}")
    print(f"volume bound, horizon-only: {single:.12g}")
    print(f"volume bound, expert-aware: {multi:.12g}")
    return EXIT_OK


def _checked(cast, ok, name: str):
    """argparse type: `cast(text)` when it satisfies `ok`; otherwise argparse
    prints "invalid <name> value" and exits 2."""
    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise ValueError(text)
        return value
    parse.__name__ = name
    return parse


def _int_list(text: str) -> list:
    return [int(part) for part in text.split(",")]


_NON_NEGATIVE_INT = _checked(int, lambda v: v >= 0, "non-negative integer")
_POSITIVE_INT = _checked(int, lambda v: v >= 1, "positive integer")
_OPEN_UNIT = _checked(float, lambda v: 0.0 < v < 1.0, "number in (0, 1)")
_TOLERANCE = _checked(float, lambda v: 0.0 <= v < np.inf, "finite and >= 0")
_SEED_LIST = _checked(_int_list, lambda v: min(v) >= 0, "non-negative integer list")
_T_GRID = _checked(_int_list, lambda v: min(v) >= 1, "positive integer list")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irlse",
        description="Feasible reward sets for tabular IRL with sub-optimal experts.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="test a reward for feasible-set membership")
    p.add_argument("problem")
    p.add_argument("reward")
    p.add_argument("--tol", type=_TOLERANCE, default=feasible.DEFAULT_TOL)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("estimate", help="sample a problem with the uniform sampler")
    p.add_argument("problem")
    p.add_argument("out")
    p.add_argument("--m", type=_NON_NEGATIVE_INT, default=None,
                   help="samples per state-action pair")
    p.add_argument("--epsilon", type=_OPEN_UNIT, default=None)
    p.add_argument("--delta", type=_OPEN_UNIT, default=None)
    p.add_argument("--seed", type=_NON_NEGATIVE_INT, default=0)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("hausdorff", help="distance between two feasible sets")
    p.add_argument("problem_a")
    p.add_argument("problem_b")
    p.add_argument("--mode", choices=["exact", "lower"], default="exact")
    p.add_argument("--budget", type=_POSITIVE_INT, default=64)
    p.add_argument("--seed", type=_NON_NEGATIVE_INT, default=0)
    p.set_defaults(func=cmd_hausdorff)

    p = sub.add_parser("sweep", help="accuracy-vs-samples CSV over seeds and t")
    p.add_argument("problem")
    p.add_argument("out")
    p.add_argument("--t-grid", type=_T_GRID, required=True)
    p.add_argument("--seeds", type=_SEED_LIST, default=[0])
    p.add_argument("--delta", type=_OPEN_UNIT, default=0.05)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("lb", help="generate benchmark instances")
    p.add_argument("--family", choices=["fig1", "chain", "tree", "subopt", "random"],
                   required=True)
    p.add_argument("out", nargs="+")
    p.add_argument("--gamma", type=float, default=0.9)
    p.add_argument("--xi", type=float, default=0.5)
    p.add_argument("--s-bar", type=int, default=2)
    p.add_argument("--actions", type=int, default=2)
    p.add_argument("--eps-prime", type=float, default=0.05)
    p.add_argument("--pi-min", type=float, default=0.25)
    p.add_argument("--alpha", type=float, default=2.0)
    p.add_argument("--variant", default=None, help="chain variant 'j,k'")
    p.add_argument("--variant-state", type=int, default=None)
    p.add_argument("--v", default=None, help="tree sign vector '1,-1,...'")
    p.add_argument("--states", type=int, default=3)
    p.add_argument("--experts", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--xi-range", default="0.1,0.5")
    p.set_defaults(func=cmd_lb)

    p = sub.add_parser("volume", help="zeta caps and feasible-set volume bounds")
    p.add_argument("problem")
    p.set_defaults(func=cmd_volume)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "estimate":
        has_m = args.m is not None
        has_eps = args.epsilon is not None or args.delta is not None
        if has_m == has_eps or (has_eps and (args.epsilon is None or args.delta is None)):
            parser.error("provide exactly one of --m or both --epsilon and --delta")
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (hausdorff.DimensionCapError, hausdorff.EmptyPolytopeError,
            hausdorff.InfeasiblePointError, hausdorff.SimplexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:  # an output file that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
