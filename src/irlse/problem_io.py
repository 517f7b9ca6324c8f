"""JSON serialization for problems and reward tables.

A problem file holds: gamma, num_states, num_actions, transitions (S x A x S
nested lists), and an experts list of {policy, xi, mode} entries where
exactly one entry omits xi — that entry is the optimal expert. Floats are
serialized via their shortest round-tripping decimal form, so write-then-read
reproduces bit-identical numbers. An optional "metadata" object passes
through untouched.

A reward file is simply a JSON S x A nested list of values in [0, 1].
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .feasible import ConstraintMode, ExpertSpec, IrlSeProblem
from .mdp import MdpNoReward, Policy, RewardFunction


class ProblemFormatError(ValueError):
    """A problem or reward file failed to parse or violated an invariant."""


def _json_value(value, name: str, kind: type):
    """`value` as `kind` when it is a JSON integer (kind int) or a JSON
    number (kind float), else ProblemFormatError naming `name`. JSON true
    and false read as bools, which are ints to Python, so they are refused
    by name, as are strings."""
    if isinstance(value, bool) or not isinstance(value, int if kind is int else (int, float)):
        what = "an integer" if kind is int else "a number"
        raise ProblemFormatError(f"{name} must be {what}, got {value!r}")
    return kind(value)


def _json_array(value, name: str) -> np.ndarray:
    """`value` as a float array when every leaf of its nested lists is a
    JSON number, else ProblemFormatError naming `name`: strings and JSON
    true and false are refused, not coerced, and so is a ragged nesting,
    whose leaves are lists."""
    cells = np.asarray(value, dtype=object)
    bad = [leaf for leaf in cells.flat if type(leaf) not in (int, float)]
    if bad:
        raise ProblemFormatError(f"{name} must hold only numbers, got {bad[0]!r}")
    return cells.astype(float)


def problem_to_dict(problem: IrlSeProblem, metadata: dict | None = None) -> dict:
    experts = [{"policy": problem.optimal_policy.probs.tolist()}]
    for spec in problem.experts:
        experts.append({
            "policy": spec.policy.probs.tolist(),
            "xi": spec.xi,
            "mode": spec.mode.value,
        })
    doc = {
        "gamma": problem.mdp.discount,
        "num_states": problem.num_states,
        "num_actions": problem.num_actions,
        "transitions": problem.mdp.transition.tolist(),
        "experts": experts,
    }
    if metadata is not None:
        doc["metadata"] = metadata
    return doc


def problem_from_dict(doc: dict) -> tuple[IrlSeProblem, dict]:
    """Build a problem from a parsed document; returns (problem, metadata).

    Raises ProblemFormatError naming the first offending field or index.
    """
    if not isinstance(doc, dict):
        raise ProblemFormatError("top level must be an object")
    for key in ("gamma", "num_states", "num_actions", "transitions", "experts"):
        if key not in doc:
            raise ProblemFormatError(f"missing field '{key}'")
    num_states = _json_value(doc["num_states"], "'num_states'", int)
    num_actions = _json_value(doc["num_actions"], "'num_actions'", int)
    gamma = _json_value(doc["gamma"], "'gamma'", float)
    transitions = _json_array(doc["transitions"], "'transitions'")
    try:
        mdp = MdpNoReward(num_states, num_actions, transitions, gamma)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"invalid MDP data: {exc}") from exc

    entries = doc["experts"]
    if not isinstance(entries, list) or not entries:
        raise ProblemFormatError("'experts' must be a non-empty list")
    optimal = None
    subs = []
    for idx, entry in enumerate(entries):
        if not isinstance(entry, dict) or "policy" not in entry:
            raise ProblemFormatError(f"expert {idx}: missing 'policy'")
        probs = _json_array(entry["policy"], f"expert {idx}: 'policy'")
        try:
            policy = Policy(probs)
        except (TypeError, ValueError) as exc:
            raise ProblemFormatError(f"expert {idx}: {exc}") from exc
        if "xi" not in entry:
            if optimal is not None:
                raise ProblemFormatError(
                    f"expert {idx}: second entry without 'xi'; exactly one "
                    "(the optimal expert) may omit it")
            optimal = policy
            continue
        mode_tag = entry.get("mode", "le")
        try:
            mode = ConstraintMode(mode_tag)
        except ValueError as exc:
            raise ProblemFormatError(
                f"expert {idx}: unknown mode '{mode_tag}'") from exc
        xi = _json_value(entry["xi"], f"expert {idx}: 'xi'", float)
        try:
            subs.append(ExpertSpec(policy, xi, mode))
        except (TypeError, ValueError) as exc:
            raise ProblemFormatError(f"expert {idx}: {exc}") from exc
    if optimal is None:
        raise ProblemFormatError("no optimal expert: one entry must omit 'xi'")
    try:
        problem = IrlSeProblem(mdp, optimal, tuple(subs))
    except ValueError as exc:
        raise ProblemFormatError(str(exc)) from exc
    metadata = doc.get("metadata")
    if metadata is not None and not isinstance(metadata, dict):
        raise ProblemFormatError("'metadata' must be an object")
    return problem, (metadata or {})


def write_problem(path, problem: IrlSeProblem, metadata: dict | None = None) -> None:
    doc = problem_to_dict(problem, metadata)
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def read_problem(path) -> tuple[IrlSeProblem, dict]:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"{path} is not valid JSON (line {exc.lineno}, col {exc.colno})") from exc
    return problem_from_dict(doc)


def read_reward(path) -> RewardFunction:
    try:
        values = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ProblemFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"{path} is not valid JSON (line {exc.lineno}, col {exc.colno})") from exc
    table = _json_array(values, "reward table")
    try:
        return RewardFunction(table)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"invalid reward table: {exc}") from exc
