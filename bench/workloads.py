"""The four benchmark workloads.

Each workload writes its problem files at set-up, yields an endless,
seed-determined stream of op inputs, runs one op (the timed part), turns the
op's raw output into a comparable record, and checks that record after the
timed loop has ended. The program sees only the generated files and its argv,
through ``irlse.cli.main`` in-process or the public ``irlse`` API.

Every op also asserts that it ran the path its workload names (exact or
lower-bound Hausdorff, the query count of an estimate), so that a later
change cannot quietly move a workload onto another path.
"""
from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import math
from pathlib import Path

import numpy as np

from irlse import cli, estimation, feasible, instances, mdp, problem_io

TOL = 1e-7  # agreement required between the program and the HiGHS oracle

# the checks import ``oracle`` (and with it scipy) only after the timed loop,
# so that scipy adds neither to set-up time nor to peak_rss_mb


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``irlse.cli.main`` in-process; (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue(), err.getvalue()


def _seed_stream(seed: int, tag: int):
    rng = np.random.default_rng([seed, tag])
    while True:
        yield int(rng.integers(0, 2**31 - 2))


def _parse_hausdorff(raw) -> dict:
    code, out, err = raw
    if code != 0:
        raise RuntimeError(f"exit code {code}: {err.strip()[-200:]}")
    lines = out.splitlines()
    _, value, mode = lines[-1].split()
    directed = tuple(float(line.split(":")[1]) for line in lines[1:3])
    return {"value": float(value), "mode": mode, "directed": directed}


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


class SweepExactD6:
    """One ``irlse sweep TRUTH OUT --t-grid T --seeds s`` row on the d=6
    random problem, T cycling through 10, 100, 1000."""

    name = "sweep_exact_d6"
    t_cycle = (10, 100, 1000)
    mix = {t: 1 / 3 for t in t_cycle}

    def setup(self, work: Path, seed: int) -> dict:
        truth = instances.random_problem(3, 2, 1, 0.9, seed=0)
        path = work / "truth.json"
        problem_io.write_problem(path, truth)
        truth, _ = problem_io.read_problem(path)
        return {"truth_path": str(path), "truth": truth, "out": str(work / "row.csv"),
                "truth_poly": feasible.polytope_h_rep(truth)}

    def inputs(self, state: dict, seed: int):
        seeds = _seed_stream(seed, 1)
        for t in itertools.cycle(self.t_cycle):
            yield {"t": t, "s": next(seeds)}

    def stratum(self, inp: dict) -> int:
        return inp["t"]

    def run(self, state: dict, inp: dict):
        return run_cli(["sweep", state["truth_path"], state["out"],
                        "--t-grid", str(inp["t"]), "--seeds", str(inp["s"])])

    def collect(self, state: dict, inp: dict, raw) -> dict:
        code, _, err = raw
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.strip()[-200:]}")
        with open(state["out"], newline="") as handle:
            (row,) = list(csv.DictReader(handle))
        row.pop("wall_ms")
        return row

    def prepare_checks(self, state: dict) -> None:
        import oracle
        poly = state["truth_poly"]
        state["truth_vertices"] = oracle.vertices(poly.G, poly.h)

    def check(self, state: dict, inp: dict, row: dict) -> list[str]:
        import oracle
        problems = []
        if row["hausdorff_mode"] != "exact":
            problems.append(f"path: hausdorff_mode={row['hausdorff_mode']}, not exact")
        truth = state["truth"]
        queries = inp["t"] * truth.num_states * truth.num_actions
        if (int(row["seed"]), int(row["t"]), int(row["total_queries"])) != (
                inp["s"], inp["t"], queries):
            problems.append(f"row seed/t/queries {row} do not match the op")
        empirical, dataset = estimation.us_irl_se(
            estimation.GenerativeModel(truth, inp["s"]), inp["t"])
        if not np.all(dataset.pair_counts() == inp["t"]):
            problems.append("plug-in pair counts differ from t")
        emp_poly = feasible.polytope_h_rep(empirical)
        value, _, _ = oracle.hausdorff(state["truth_vertices"], state["truth_poly"],
                                       oracle.vertices(emp_poly.G, emp_poly.h), emp_poly)
        got = float(row["hausdorff_estimate"])
        if not _close(got, value):
            problems.append(f"exact distance {got!r} != HiGHS {value!r}")
        return problems

    def trace_guard(self, counters: dict) -> list[str]:
        enum = counters.get("hausdorff.enumerate_vertices", [])
        if len(enum) != 2 or counters.get("hausdorff.sample_support_points", []):
            return ["path: the sweep row did not enumerate both polytopes' vertices"]
        return []


class ExactLbD8:
    """One ``irlse hausdorff A B --mode exact`` on the d=8 lower-bound
    pairs: lb_chain(1,2,g,e) base against variants (0,0) and (0,1), and
    lb_subopt(2,g,0.1,0.25,2.0) base against variant states 0 and 1."""

    name = "exact_lb_d8"
    mix = {"chain": 2 / 3, "subopt": 1 / 3}
    gammas = (0.8, 0.9)
    eps_primes = (0.05, 0.1)
    reference = Path(__file__).with_name("reference_exact_lb_d8.json")
    # row subsets the exact path scans per polytope: C(distinct rows, 8)
    subsets = {"chain": math.comb(20, 8), "subopt": math.comb(23, 8)}

    @classmethod
    def pairs(cls):
        """(key, base problem, variant problem) for every pair."""
        for g in cls.gammas:
            for e in cls.eps_primes:
                base = instances.lb_chain(1, 2, g, e, None)
                for variant in ((0, 0), (0, 1)):
                    yield (f"chain_g{g}_e{e}_v{variant[0]}{variant[1]}", base,
                           instances.lb_chain(1, 2, g, e, variant))
            base = instances.lb_subopt(2, g, 0.1, 0.25, 2.0, None)
            for state in (0, 1):
                yield (f"subopt_g{g}_s{state}", base,
                       instances.lb_subopt(2, g, 0.1, 0.25, 2.0, state))

    def setup(self, work: Path, seed: int) -> dict:
        pairs = {}
        for key, base, variant in self.pairs():
            paths = []
            for tag, problem in (("a", base), ("b", variant)):
                path = work / f"{key}_{tag}.json"
                problem_io.write_problem(path, problem)
                paths.append(str(path))
            # subsets the exact path scans: C(distinct rows, dim) per polytope
            subsets = []
            for path in paths:
                poly = feasible.polytope_h_rep(problem_io.read_problem(path)[0])
                rows = np.unique(np.hstack([poly.G, poly.h[:, None]]), axis=0)
                subsets.append(math.comb(rows.shape[0], poly.dim))
            pairs[key] = {"paths": paths, "subsets": subsets}
        return {"pairs": pairs}

    def inputs(self, state: dict, seed: int):
        # the pairs are fixed, so the seed changes nothing here; a fixed order
        # keeps the allocation pattern, and so peak_rss_mb, the same per run.
        # Two chain pairs per subopt pair (a subopt op costs about three chain
        # ops) keeps every prefix of the stream near the mix the metrics weigh
        keys = list(state["pairs"])
        chain = [k for k in keys if k.startswith("chain")]
        subopt = [k for k in keys if k.startswith("subopt")]
        order = [k for i in range(len(subopt))
                 for k in (chain[2 * i], chain[2 * i + 1], subopt[i])]
        for key in itertools.cycle(order):
            yield {"pair": key}

    def stratum(self, inp: dict) -> str:
        return inp["pair"].split("_")[0]

    def run(self, state: dict, inp: dict):
        a, b = state["pairs"][inp["pair"]]["paths"]
        return run_cli(["hausdorff", a, b, "--mode", "exact"])

    def collect(self, state: dict, inp: dict, raw) -> dict:
        return _parse_hausdorff(raw)

    def prepare_checks(self, state: dict) -> None:
        state["reference"] = json.loads(self.reference.read_text())

    def check(self, state: dict, inp: dict, out: dict) -> list[str]:
        problems = []
        key = inp["pair"]
        if out["mode"] != "exact":
            problems.append(f"path: mode {out['mode']}, not exact")
        expected = [self.subsets[key.split("_")[0]]] * 2
        if state["pairs"][key]["subsets"] != expected:
            problems.append(f"path: subsets {state['pairs'][key]['subsets']}, "
                            f"not {expected}")
        ref = state["reference"][key]
        if not (_close(out["value"], ref["value"])
                and all(map(_close, out["directed"], ref["directed"]))):
            problems.append(f"{key}: {out['value']!r} {out['directed']} != "
                            f"reference {ref['value']!r} {ref['directed']}")
        if key == "chain_g0.9_e0.05_v01":
            delta = 0.05 * 0.9 / 0.1
            if abs(out["value"] - delta / (1 + 2 * delta)) > 1e-9:
                problems.append(f"{key}: {out['value']!r} != delta/(1+2 delta)")
        return problems

    def trace_guard(self, counters: dict) -> list[str]:
        scanned = [c["subsets"] for c in
                   counters.get("hausdorff.enumerate_vertices", [])]
        if scanned not in ([n, n] for n in self.subsets.values()):
            return [f"path: enumerate_vertices scanned {scanned} subsets, "
                    f"not C(20,8) or C(23,8) per polytope"]
        return []


class PluginD64:
    """``irlse estimate TRUTH EMP --m 10000 --seed s`` on the d=64 random
    problem, then read_problem(EMP), polytope_h_rep and membership_implicit
    on 64 rewards (32 members of the truth, 32 uniform draws)."""

    name = "plugin_d64"
    mix = {None: 1.0}
    m = 10_000
    members = 32

    def setup(self, work: Path, seed: int) -> dict:
        truth = instances.random_problem(8, 8, 2, 0.9, seed=1)
        path = work / "truth.json"
        problem_io.write_problem(path, truth)
        truth, _ = problem_io.read_problem(path)
        truth_poly = feasible.polytope_h_rep(truth)
        rng = np.random.default_rng([seed, 3])
        horizon = 1.0 / (1.0 - truth.mdp.discount)
        unplayed = ~truth.optimal_policy.support_mask()
        rewards = []
        for _ in range(100 * self.members):
            if len(rewards) == self.members:
                break
            v = horizon * (0.5 + rng.uniform(-0.03, 0.03, truth.num_states))
            zeta = rng.uniform(0.0, 0.02, unplayed.shape) * unplayed
            values, in_box = feasible.reward_from_params(
                truth, feasible.CanonicalParams(zeta, v))
            values = np.clip(values, 0.0, 1.0)
            if in_box and truth_poly.contains(values) and feasible.membership_implicit(
                    truth, mdp.RewardFunction(values)):
                rewards.append(values)
        else:
            raise RuntimeError("could not draw the member rewards")
        rewards += list(rng.uniform(0.0, 1.0, (self.members,) + unplayed.shape))
        return {"truth_path": str(path), "truth": truth, "truth_poly": truth_poly,
                "emp_path": str(work / "emp.json"), "rewards": np.array(rewards)}

    def inputs(self, state: dict, seed: int):
        for s in _seed_stream(seed, 4):
            yield {"s": s}

    def stratum(self, inp: dict) -> None:
        return None

    def run(self, state: dict, inp: dict):
        code = run_cli(["estimate", state["truth_path"], state["emp_path"],
                        "--m", str(self.m), "--seed", str(inp["s"])])
        empirical, metadata = problem_io.read_problem(state["emp_path"])
        poly = feasible.polytope_h_rep(empirical)
        verdicts = [feasible.membership_implicit(empirical, mdp.RewardFunction(r)).is_member
                    for r in state["rewards"]]
        return code, empirical, metadata, poly, verdicts

    def collect(self, state: dict, inp: dict, raw) -> dict:
        (code, _, err), empirical, metadata, poly, verdicts = raw
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.strip()[-200:]}")
        # the op's H-rep goes to disk until the checks: held in memory it
        # would add to peak_rss_mb, and checking it here would start BLAS
        # threads that keep spinning through the next timed op
        path = Path(state["emp_path"]).with_name(f"hrep_{inp['s']}.npz")
        np.savez(path, G=poly.G, h=poly.h)
        return {"transition": empirical.mdp.transition, "metadata": metadata,
                "hrep": str(path), "verdicts": verdicts}

    def prepare_checks(self, state: dict) -> None:
        pass

    def check(self, state: dict, inp: dict, out: dict) -> list[str]:
        problems = []
        truth = state["truth"]
        queries = self.m * truth.num_states * truth.num_actions
        meta = out["metadata"]
        if (meta.get("m"), meta.get("total_queries"), meta.get("seed")) != (
                self.m, queries, inp["s"]):
            problems.append(f"path: metadata {meta} does not record "
                            f"m={self.m}, {queries} queries, seed {inp['s']}")
        # p_hat = counts / m, so p_hat * m must be whole counts summing to m
        counts = out["transition"] * self.m
        if not (np.allclose(counts, np.round(counts), atol=1e-6)
                and np.all(np.round(counts).sum(axis=2) == self.m)):
            problems.append("plug-in pair counts differ from m")
        with np.load(out["hrep"]) as hrep:
            poly = feasible.RewardPolytope(truth.num_states, truth.num_actions,
                                           hrep["G"], hrep["h"], ())
        flat = state["rewards"].reshape(len(state["rewards"]), -1)
        if poly.contains_many(flat).tolist() != out["verdicts"]:
            problems.append("membership_implicit disagrees with contains_many")
        return problems

    def trace_guard(self, counters: dict) -> list[str]:
        queries = [c["queries"] for c in counters.get("estimation.us_irl_se", [])]
        if queries != [640_000]:
            return [f"path: us_irl_se made {queries} queries, not 640000"]
        return []


class LowerD20:
    """One ``irlse hausdorff TRUTH EMP --mode lower --budget 16 --seed s``
    on the d=20 random problem; EMP is its plug-in estimate at m = 100,
    1000 or 10000, written at set-up."""

    name = "lower_d20"
    m_cycle = (100, 1000, 10_000)
    mix = {m: 1 / 3 for m in m_cycle}
    budget = 16

    def setup(self, work: Path, seed: int) -> dict:
        truth = instances.random_problem(5, 4, 2, 0.9, seed=1)
        path = work / "truth.json"
        problem_io.write_problem(path, truth)
        truth, _ = problem_io.read_problem(path)
        seeds = _seed_stream(seed, 5)
        emp_paths = {}
        for m in self.m_cycle:
            emp_paths[m] = str(work / f"emp_{m}.json")
            code, _, err = run_cli(["estimate", str(path), emp_paths[m], "--m", str(m),
                                    "--seed", str(next(seeds))])
            if code != 0:
                raise RuntimeError(f"set-up estimate failed: {err}")
        return {"truth_path": str(path), "emp_paths": emp_paths,
                "truth_poly": feasible.polytope_h_rep(truth)}

    def inputs(self, state: dict, seed: int):
        seeds = _seed_stream(seed, 6)
        for m in itertools.cycle(self.m_cycle):
            yield {"m": m, "s": next(seeds)}

    def stratum(self, inp: dict) -> int:
        return inp["m"]

    def run(self, state: dict, inp: dict):
        return run_cli(["hausdorff", state["truth_path"], state["emp_paths"][inp["m"]],
                        "--mode", "lower", "--budget", str(self.budget),
                        "--seed", str(inp["s"])])

    def collect(self, state: dict, inp: dict, raw) -> dict:
        return _parse_hausdorff(raw)

    def prepare_checks(self, state: dict) -> None:
        state["emp_polys"] = {
            m: feasible.polytope_h_rep(problem_io.read_problem(p)[0])
            for m, p in state["emp_paths"].items()}

    def check(self, state: dict, inp: dict, out: dict) -> list[str]:
        import oracle
        problems = []
        if out["mode"] != "lower":
            problems.append(f"path: mode {out['mode']}, not lower")
        if not 0.0 <= out["value"] <= 1.0:
            problems.append(f"lower bound {out['value']!r} outside [0, 1]")
        value, d_ab, d_ba = oracle.lower_bound(state["truth_poly"],
                                               state["emp_polys"][inp["m"]],
                                               self.budget, inp["s"])
        if not (_close(out["value"], value) and _close(out["directed"][0], d_ab)
                and _close(out["directed"][1], d_ba)):
            problems.append(f"lower bound {out['value']!r} {out['directed']} != "
                            f"HiGHS {value!r} ({d_ab!r}, {d_ba!r}) for seed {inp['s']}")
        return problems

    def trace_guard(self, counters: dict) -> list[str]:
        budgets = [c["budget"] for c in
                   counters.get("hausdorff.sample_support_points", [])]
        if budgets != [self.budget] * 2 or counters.get("hausdorff.enumerate_vertices"):
            return [f"path: support-point budgets {budgets}, not lower mode "
                    f"with budget {self.budget}"]
        return []


WORKLOADS = {w.name: w for w in (SweepExactD6(), ExactLbD8(), PluginD64(), LowerD20())}
