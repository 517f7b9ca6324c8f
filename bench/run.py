"""Benchmark of the irlse pipeline: one workload per run, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load is a closed loop: one process, one client, no worker threads; the next
op starts when the previous one has returned. The run builds its inputs from
``--seed``, runs ops for ``--seconds`` seconds, then checks every op's output
outside the timed region. With ``--trace 0`` it reports the end-to-end
metrics, timings scaled to a reference machine speed measured by a probe
between ops (see ``_SpeedProbe``), raw wall figures alongside; with
``--trace 1`` it runs each op once untraced and once traced (alternating
which goes first) and reports the per-layer metrics. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The exit code is 0 only when every
op passed its checks.

Inputs and outputs live under ``.bench_work/`` and ``.bench_out/`` in the
checkout the script belongs to; the package is imported from its ``src/``.
"""
from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
PROBE_REF_S = 0.010  # speed probe time that defines the reference speed
PROBE_SHARE = 0.05  # probe time after each op, as a share of the op's wall time


def _load_package():
    """Import irlse from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "irlse" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'irlse'} not found; run from a full checkout")
    sys.path[:0] = [str(src), str(BENCH)]
    import irlse
    if Path(irlse.__file__).resolve().parent != (src / "irlse").resolve():
        sys.exit(f"error: imported irlse from {irlse.__file__}, not {src}")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="run the workload's set-up and exit (times setup_s)")
    return parser.parse_args(argv)


def _work_dir(tag: str) -> tempfile.TemporaryDirectory:
    """A private directory under .bench_work/, removed on exit."""
    base = ROOT / ".bench_work"
    base.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(prefix=f"{tag}-", dir=base)


def _setup_seconds(args) -> tuple[list[float], list[float]]:
    """Time from starting a fresh interpreter until it reports that it has
    imported the package and run the workload's set-up (instance files,
    truth H-rep), one interpreter after another; returns the raw samples and
    the same at the reference speed. Interpreter exit is not timed."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only"]
    probe = _SpeedProbe()
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            ready = child.stdout.readline()
            raw.append(time.perf_counter() - start)
            child.communicate(timeout=120)
        if child.returncode != 0 or ready != "ready\n":
            raise RuntimeError(f"set-up run failed with exit code {child.returncode}")
        scaled.append(raw[-1] * probe.factor(raw[-1]))
    return raw, scaled


def _op(workload, state, inp, tracer=None):
    """Run one op, traced when a tracer is given; returns (output or None,
    wall s, cpu s, problems). Only ``workload.run`` is timed."""
    try:
        if tracer is None:
            wall, cpu = time.perf_counter(), time.process_time()
            raw = workload.run(state, inp)
        else:
            with tracer.installed():
                wall, cpu = time.perf_counter(), time.process_time()
                raw = workload.run(state, inp)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        return workload.collect(state, inp, raw), wall, cpu, []
    except Exception as exc:  # a failed op is counted and the loop goes on
        return None, 0.0, 0.0, [f"raised {type(exc).__name__}: {exc}"]


class _SpeedProbe:
    """A fixed computation that uses no irlse code, timed between ops.

    The host this benchmark was built on (2-vCPU VM) switches between two
    speeds several times a second, about 1.7x apart, and the share of fast
    time drifts over minutes; identical runs differed by +-20 % in wall time.
    The probe mixes interpreter work and small numpy calls like the ops do,
    so its time tracks the speed the ops ran at; gated timing metrics scale
    each op to the speed at which the probe takes ``PROBE_REF_S``.
    """

    def __init__(self):
        self._vector = np.random.default_rng(0).random(40)
        self._last = self._sample(0.0)

    def _once(self) -> float:
        # element-wise numpy only: a BLAS call would wake BLAS threads that
        # then spin, and bill, during the next op
        start = time.perf_counter()
        x = self._vector
        for _ in range(1500):
            x = np.sin(x) * 0.5 + 0.5
            x[x.argmax()] = 0.0
            sum(range(50))
        return time.perf_counter() - start

    def _sample(self, budget_s: float) -> float:
        """Mean probe time over as many probes as fit ``budget_s`` (at least one)."""
        times = [self._once()]
        while sum(times) < budget_s:
            times.append(self._once())
        return statistics.fmean(times)

    def factor(self, elapsed_s: float) -> float:
        """Probe for ``PROBE_SHARE`` of the interval just timed; returns the
        factor that scales it to the reference speed, from the probes before
        and after it."""
        after = self._sample(PROBE_SHARE * elapsed_s)
        factor = PROBE_REF_S / ((self._last + after) / 2)
        self._last = after
        return factor


def _run_untraced(workload, state, inputs, seconds):
    """The timed loop; returns the ops and, per op, the factor that scales
    its times to the reference speed (from the probes before and after it)."""
    probe = _SpeedProbe()
    ops, factors = [], []
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        inp = next(inputs)
        ops.append((inp, *_op(workload, state, inp)))
        factors.append(probe.factor(ops[-1][2]))
    return ops, factors


def _run_traced(workload, state, inputs, seconds, tracer):
    """Each op twice, untraced and traced, alternating which goes first.
    Returns the untraced ops and the traced and untraced wall-time sums."""
    ops, traced_s, untraced_s = [], 0.0, 0.0
    start = time.perf_counter()
    while not ops or time.perf_counter() - start < seconds:
        inp = next(inputs)
        tracer.op = len(ops)
        if tracer.op % 2 == 0:
            plain = _op(workload, state, inp)
            traced = _op(workload, state, inp, tracer)
        else:
            traced = _op(workload, state, inp, tracer)
            plain = _op(workload, state, inp)
        problems = plain[3] + traced[3]
        if not problems:
            if not _same(plain[0], traced[0]):
                problems.append("traced and untraced runs of the op disagree")
            problems += workload.trace_guard(tracer.op_counters(tracer.op))
        traced_s += traced[1]
        untraced_s += plain[1]
        ops.append((inp, plain[0], plain[1], plain[2], problems))
    return ops, traced_s, untraced_s


def _same(a, b) -> bool:
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple, np.ndarray)):
        return np.array_equal(a, b)
    return a == b


def _check_all(workload, state, ops) -> list[list[str]]:
    """Problems per op: those found while running, else the output checks."""
    workload.prepare_checks(state)
    verdicts = []
    for inp, out, _, _, problems in ops:
        if not problems:
            try:
                problems = workload.check(state, inp, out)
            except Exception as exc:  # a check that cannot run fails the op
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        verdicts.append(problems)
    return verdicts


def _mix_stats(workload, ops) -> tuple[float, float, float]:
    """(mean wall s, mean cpu s, median wall s) per op at the workload's
    fixed op mix: each op counts with its stratum's share of the mix divided
    by the ops run in that stratum, so where the clock cut the op stream does
    not change the mix measured. Strata not reached share out their weight."""
    groups: dict = {}
    for inp, wall, cpu in ops:
        groups.setdefault(workload.stratum(inp), []).append((wall, cpu))
    if not groups:
        return 0.0, 0.0, 0.0
    total = sum(workload.mix[k] for k in groups)
    weighted = sorted((wall, cpu, workload.mix[k] / total / len(group))
                      for k, group in groups.items() for wall, cpu in group)
    mean_wall = sum(wall * w for wall, _, w in weighted)
    mean_cpu = sum(cpu * w for _, cpu, w in weighted)
    cumulative = 0.0
    for wall, _, w in weighted:
        cumulative += w
        if cumulative >= 0.5:
            break
    return mean_wall, mean_cpu, wall


def _end_to_end(workload, ops, factors, verdicts, raw_setup, setup_samples,
                peak_rss_mb):
    """(metrics, extra report lines) of an untraced run; failed ops excluded.
    Timing metrics are at the reference speed; raw wall figures are printed."""
    good = [(inp, wall, cpu, f) for (inp, _, wall, cpu, _), f, p
            in zip(ops, factors, verdicts) if not p]
    wall_s, cpu_s, p50_s = _mix_stats(workload, [(i, w * f, c * f) for i, w, c, f in good])
    raw_wall_s, raw_cpu_s, raw_p50_s = _mix_stats(workload, [(i, w, c) for i, w, c, _ in good])
    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "ops_per_s": (1.0 / wall_s if wall_s else 0.0, "1/s"),
        "op_ms_p50": (1000.0 * p50_s, "ms"),
        "cpu_ms_per_op": (1000.0 * cpu_s, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    walls = [wall * f for _, wall, _, f in good]
    if len(walls) >= 100:
        p90 = f"{1000.0 * statistics.quantiles(walls, n=10)[-1]:.6g} ms ({len(walls)} ops)"
    else:
        p90 = f"n/a ({len(walls)} ops < 100)"
    return metrics, [
        f"  {'op_ms_p90':<46} {p90}",
        f"  {'raw_ops_per_s':<46} {1.0 / raw_wall_s if raw_wall_s else 0.0:.6g} 1/s",
        f"  {'raw_op_ms_p50':<46} {1000.0 * raw_p50_s:.6g} ms",
        f"  {'raw_cpu_ms_per_op':<46} {1000.0 * raw_cpu_s:.6g} ms",
        f"  {'raw_setup_s':<46} {statistics.median(raw_setup):.6g} s",
        f"  {'speed_factor_median':<46} {statistics.median(factors):.6g}"]


def _per_layer(workload, tracer, attempted, traced_s, untraced_s, seed):
    """(metrics, extra report lines) of a traced run; also writes the spans."""
    import spans
    metrics = spans.layer_metrics(tracer, attempted, traced_s, untraced_s)
    shares = spans.layer_shares(tracer, traced_s)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload.name}-seed{seed}.spans.jsonl"
    spans.dump_spans(tracer, path)
    return metrics, [
        "  dominant layers by self time: " + ", ".join(
            f"{name} {share:.1%}" for name, share in shares[:3]),
        f"  spans written to {path.relative_to(ROOT)}"]


def _provenance(args) -> dict:
    import scipy

    def git_commit():
        try:
            return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10,
                                  check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return "unknown (not a git checkout)"

    def openblas_threads():
        libs = Path(np.__file__).parent.parent / "numpy.libs"
        for path in glob.glob(str(libs / "*openblas*")):
            lib = ctypes.CDLL(path)
            for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(lib, name):
                    return getattr(lib, name)()
        return None

    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "irlse").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    return {
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("name"),
        "blas_threads": openblas_threads(),
        "blas_env": {k: os.environ[k] for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
            if k in os.environ},
        "irlse_threads_set": "IRLSE_THREADS" in os.environ,
        "load": "closed loop, 1 process, 1 client, no worker threads",
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    _load_package()
    if "IRLSE_THREADS" in os.environ:
        sys.exit("error: IRLSE_THREADS is set; the benchmark measures the "
                 "single-threaded closed loop, unset it")
    import spans
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    if args.setup_only:
        with _work_dir(f"setup-{args.workload}") as work:
            workload.setup(Path(work), args.seed)
            print("ready", flush=True)
        return 0

    raw_setup, setup_samples = _setup_seconds(args)
    factors = []
    with _work_dir(args.workload) as work:
        state = workload.setup(Path(work), args.seed)
        inputs = workload.inputs(state, args.seed)
        if args.trace:
            tracer = spans.Tracer()
            ops, traced_s, untraced_s = _run_traced(workload, state, inputs,
                                                    args.seconds, tracer)
        else:
            ops, factors = _run_untraced(workload, state, inputs, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        verdicts = _check_all(workload, state, ops)

    attempted = len(ops)
    failures = [(i, p) for i, p in enumerate(verdicts) if p]
    if args.trace:
        metrics, extra = _per_layer(workload, tracer, attempted, traced_s,
                                    untraced_s, args.seed)
    else:
        metrics, extra = _end_to_end(workload, ops, factors, verdicts, raw_setup,
                                     setup_samples, peak_rss_mb)
    result = {"correct": attempted > 0 and not failures, "attempted": attempted,
              "failed": len(failures),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    provenance = _provenance(args)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"provenance": provenance, "raw_setup_samples_s": raw_setup,
                    "setup_samples_s": setup_samples,
                    **result, "failures": failures,
                    "ops": [{"input": inp, "wall_ms": 1000.0 * wall, "cpu_ms": 1000.0 * cpu}
                            for inp, _, wall, cpu, _ in ops],
                    "speed_factors": factors}, indent=2) + "\n")

    for index, problems in failures[:5]:
        print(f"op {index} failed: {'; '.join(problems)}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {attempted} ops, "
          f"{sum(op[2] for op in ops):.3f} s of op time "
          f"(closed loop, 1 client, trace {args.trace})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<46} {value:.6g} {unit}")
    print(*extra, sep="\n")
    print(f"  {'error_rate':<46} {len(failures) / max(attempted, 1):.6g} "
          f"({len(failures)} of {attempted} ops failed)")
    print("provenance " + json.dumps(provenance))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
