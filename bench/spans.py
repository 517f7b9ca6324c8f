"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of the irlse modules on the module
attribute each caller looks up at call time (for example
``irlse.feasible.occupancy_matrix`` as well as ``irlse.mdp.occupancy_matrix``,
and ``irlse.hausdorff.lp_solve`` so that calls from ``directed_distance`` and
``sample_support_points`` are caught). Each call records one span: name,
start, end, parent span and the op it belongs to, plus counters taken from
the call's arguments and result. Spans stay in memory until the run ends.
Nothing under ``src/`` is changed; the wrappers exist only inside
``Tracer.installed()``.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import json
import math
import os
import time

import numpy as np

# span fields
NAME, START, END, PARENT, OP, COUNTERS = range(6)


def _lp_shape(result, lp):
    return {"rows": lp.G.shape[0], "cols": lp.G.shape[1]}


def _enumeration(result, polytope, *args, **kwargs):
    # enumerate_vertices solves every dim-subset of the distinct (G, h) rows
    distinct = np.unique(np.hstack([polytope.G, polytope.h[:, None]]), axis=0)
    return {"subsets": math.comb(distinct.shape[0], polytope.dim),
            "vertices": int(result.shape[0])}


def _support_points(result, polytope, budget, rng):
    distinct = np.unique(np.round(result, 9), axis=0).shape[0] if len(result) else 0
    return {"budget": int(budget), "points": int(result.shape[0]),
            "distinct": int(distinct)}


def _queries(result, model, m):
    truth = model.truth
    return {"queries": int(m) * truth.num_states * truth.num_actions}


def _rows_out(result, *args, **kwargs):
    return {"rows_out": int(result.G.shape[0])}


def _bytes(result, path, *args, **kwargs):
    return {"bytes": os.path.getsize(path)}


# (module, attribute, span name, counter); a function imported into another
# module is wrapped there too, under its home module's span name
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("problem_io", "read_problem", "problem_io.read_problem", _bytes),
    ("problem_io", "write_problem", "problem_io.write_problem", _bytes),
    ("estimation", "us_irl_se", "estimation.us_irl_se", _queries),
    ("feasible", "polytope_h_rep", "feasible.polytope_h_rep", _rows_out),
    ("feasible", "membership_implicit", "feasible.membership_implicit", None),
    ("feasible", "occupancy_matrix", "mdp.occupancy_matrix", None),
    ("feasible", "value_functions", "mdp.value_functions", None),
    ("mdp", "occupancy_matrix", "mdp.occupancy_matrix", None),
    ("mdp", "value_functions", "mdp.value_functions", None),
    ("hausdorff", "hausdorff_distance", "hausdorff.hausdorff_distance", None),
    ("hausdorff", "directed_distance", "hausdorff.directed_distance", None),
    ("hausdorff", "enumerate_vertices", "hausdorff.enumerate_vertices", _enumeration),
    ("hausdorff", "sample_support_points", "hausdorff.sample_support_points",
     _support_points),
    ("hausdorff", "lp_solve", "hausdorff.lp_solve", _lp_shape),
)


class Tracer:
    """In-memory span recorder; ``op`` tags the spans of the current op."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter_ns()
                stack.pop()
            if counter is not None:
                span[COUNTERS] = counter(result, *args, **kwargs)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Install the wrappers for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, counter in TARGETS:
                module = importlib.import_module(f"irlse.{module_name}")
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def op_counters(self, op: int) -> dict[str, list[dict]]:
        """The counters of one op's spans, by span name."""
        found: dict[str, list[dict]] = {}
        for span in self.spans:
            if span[OP] == op and span[COUNTERS] is not None:
                found.setdefault(span[NAME], []).append(span[COUNTERS])
        return found


def self_times_ns(spans: list[list]) -> list[int]:
    """Span duration minus the time covered by its direct child spans."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


LAYERS = tuple(dict.fromkeys(name for _, _, name, _ in TARGETS))


def layer_metrics(tracer: Tracer, ops: int, traced_s: float,
                  untraced_s: float) -> dict:
    """Per-layer metrics, as {name: (value, unit)}, normalised per traced op."""
    spans = tracer.spans
    own = self_times_ns(spans)
    calls = dict.fromkeys(LAYERS, 0)
    incl = dict.fromkeys(LAYERS, 0)
    excl = dict.fromkeys(LAYERS, 0)
    sums: dict[str, dict[str, float]] = {name: {} for name in LAYERS}
    for span, self_ns in zip(spans, own):
        name = span[NAME]
        calls[name] += 1
        incl[name] += span[END] - span[START]
        excl[name] += self_ns
        for key, value in (span[COUNTERS] or {}).items():
            sums[name][key] = sums[name].get(key, 0) + value

    def per_op(x):
        return x / ops

    def ms(ns):
        return ns / 1e6 / ops

    def ratio(num, den):
        return num / den if den else 0.0

    lp, ev = "hausdorff.lp_solve", "hausdorff.enumerate_vertices"
    sp, est = "hausdorff.sample_support_points", "estimation.us_irl_se"
    m = {
        f"{lp}.calls": (per_op(calls[lp]), "count/op"),
        f"{lp}.self_ms": (ms(excl[lp]), "ms/op"),
        f"{lp}.ms_per_call": (ratio(incl[lp] / 1e6, calls[lp]), "ms"),
        f"{lp}.rows_mean": (ratio(sums[lp].get("rows", 0), calls[lp]), "count"),
        f"{lp}.cols_mean": (ratio(sums[lp].get("cols", 0), calls[lp]), "count"),
    }
    for name in ("hausdorff.directed_distance", "hausdorff.hausdorff_distance",
                 "feasible.polytope_h_rep", "feasible.membership_implicit",
                 "cli.main"):
        m[f"{name}.calls"] = (per_op(calls[name]), "count/op")
        m[f"{name}.self_ms"] = (ms(excl[name]), "ms/op")
    for name in (ev, sp, "mdp.occupancy_matrix", "mdp.value_functions", est,
                 "problem_io.read_problem", "problem_io.write_problem"):
        m[f"{name}.calls"] = (per_op(calls[name]), "count/op")
        m[f"{name}.ms"] = (ms(incl[name]), "ms/op")
    m[f"{ev}.subsets"] = (per_op(sums[ev].get("subsets", 0)), "count/op")
    m[f"{ev}.vertices"] = (per_op(sums[ev].get("vertices", 0)), "count/op")
    m[f"{ev}.vertex_yield"] = (ratio(sums[ev].get("vertices", 0),
                                     sums[ev].get("subsets", 0)), "ratio")
    m[f"{sp}.points"] = (per_op(sums[sp].get("points", 0)), "count/op")
    m[f"{sp}.distinct_ratio"] = (ratio(sums[sp].get("distinct", 0),
                                       sums[sp].get("budget", 0)), "ratio")
    m["feasible.polytope_h_rep.rows_out"] = (
        ratio(sums["feasible.polytope_h_rep"].get("rows_out", 0),
              calls["feasible.polytope_h_rep"]), "count")
    m[f"{est}.queries"] = (per_op(sums[est].get("queries", 0)), "count/op")
    m[f"{est}.queries_per_s"] = (ratio(sums[est].get("queries", 0),
                                       incl[est] / 1e9), "1/s")
    m["problem_io.bytes"] = (per_op(sums["problem_io.read_problem"].get("bytes", 0)
                                    + sums["problem_io.write_problem"].get("bytes", 0)),
                             "B/op")
    m["trace_overhead"] = (ratio(traced_s, untraced_s) - 1.0, "ratio")
    m["traced_ops"] = (ops, "count")
    return m


def layer_shares(tracer: Tracer, traced_s: float) -> list[tuple[str, float]]:
    """Each layer's self time as a share of the traced ops' wall time,
    largest first."""
    own = self_times_ns(tracer.spans)
    total = dict.fromkeys(LAYERS, 0)
    for span, self_ns in zip(tracer.spans, own):
        total[span[NAME]] += self_ns
    shares = [(name, ns / 1e9 / traced_s) for name, ns in total.items()]
    return sorted(shares, key=lambda item: -item[1])


def dump_spans(tracer: Tracer, path) -> None:
    """Write every span as one JSON object per line."""
    with open(path, "w") as handle:
        for span in tracer.spans:
            handle.write(json.dumps({
                "name": span[NAME], "start_ns": span[START], "end_ns": span[END],
                "parent": span[PARENT], "op": span[OP],
                "counters": span[COUNTERS]}) + "\n")
