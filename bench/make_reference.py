"""Regenerate bench/reference_exact_lb_d8.json, the expected exact Hausdorff
distances of the exact_lb_d8 pairs.

    python3 bench/make_reference.py

Each distance is computed with scipy's HiGHS over vertices enumerated by
the benchmark's own oracle, independently of the package's simplex and
vertex enumeration, and is cross-checked against the package's
``hausdorff_distance`` before it is written.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracle  # noqa: E402
from irlse import hausdorff_distance, polytope_h_rep  # noqa: E402
from workloads import TOL, ExactLbD8  # noqa: E402


def main() -> int:
    reference = {}
    for key, base, variant in ExactLbD8.pairs():
        pa, pb = polytope_h_rep(base), polytope_h_rep(variant)
        value, d_ab, d_ba = oracle.hausdorff(oracle.vertices(pa.G, pa.h), pa,
                                             oracle.vertices(pb.G, pb.h), pb)
        report = hausdorff_distance(pa, pb)
        if abs(report.value - value) > TOL:
            print(f"{key}: package {report.value!r} != HiGHS {value!r}", file=sys.stderr)
            return 1
        reference[key] = {"value": value, "directed": [d_ab, d_ba]}
        print(f"{key}: {value!r}")
    ExactLbD8.reference.write_text(json.dumps(reference, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
