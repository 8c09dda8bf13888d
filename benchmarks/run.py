"""covertree benchmark: three closed-loop workloads, stdlib timing only.

    python3 benchmarks/run.py --workload verify_ladder --seed 1 --seconds 30 --trace 0

Run from the repository root.  The command starts a worker process with the
BLAS threads pinned and ``src`` on its path; the worker builds its inputs from
the seed, runs one untimed warm-up operation, then runs passes over the
workload's operations until ``--seconds`` have elapsed, one operation at a
time, and checks every output.  With ``--trace 0`` it reports the end-to-end
metrics (per-operation medians over passes, scaled to a reference speed;
``setup_s`` is the median over several fresh processes, in seconds).  With
``--trace 1`` each pass runs twice on the same inputs, once
plain and once with spans around every public library function, and it
reports the per-layer metrics.  The last line of standard output is one JSON
object; a record with the seed, input digests and machine details goes to
``benchmarks/_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"
WORK = HERE / "_work"

WORKLOADS = ("verify_ladder", "series_deep", "oracle_crosscheck")
# Set-up is also timed in this many set-up-only processes before the measuring
# worker and as many after it (the host's speed drifts); the median is reported.
SETUP_EXTRA = 2
INPUT_SETS = 3       # seeded input sets; pass i runs on set i mod INPUT_SETS
DEADLINE_S = 170     # the command ends (or fails) within this many seconds
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BUDGET_ENV = "COVERTREE_BUDGET"
# series_deep averages sets with up to ~2**906 elements; it raises the
# enumeration cap only through the documented environment variable.
BUDGETS = {"series_deep": str(10 ** 300)}
CLASSES = ("small", "large", "special")
# Shared cloud hosts drift in speed by 25% and more over tens of seconds, for
# all code alike.  Operation times are therefore reported scaled to a fixed
# reference speed, at which one repeat of the probe takes PROBE_REFERENCE_S
# ("ref_s" units); see benchmarks/README.md.
PROBE_REFERENCE_S = 0.0016
PROBE_EVERY_S = 0.25


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# --- statistics ---

def tail(samples):
    """(percentile, value, samples beyond) for the highest of a few nearest-rank
    percentiles with at least ten samples beyond it, or None."""
    s = sorted(samples)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(len(s) * p / 100)
        if len(s) - rank >= 10:
            return p, s[rank - 1], len(s) - rank
    return None


def describe(name, samples, unit):
    text = f"{name:<16} median {statistics.median(samples):.6g} {unit} (n={len(samples)}"
    t = tail(samples)
    if t is None:
        return text + "; no percentile has 10 samples beyond it)"
    p, value, beyond = t
    return text + f"; p{p:g} {value:.6g} {unit}, {beyond} samples beyond)"


# --- worker (child process) ---

def machine():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "nproc": os.cpu_count(),
            "cpu": cpu, "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
            "budget": os.environ.get(BUDGET_ENV)}


def probe():
    """Seconds for a fixed piece of reference work (Python arithmetic and small
    numpy operations) at the machine's current speed: the median of five short
    repeats, so that a momentary stall does not count."""
    import numpy as np
    a = np.ones(64)
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        s = 0
        for i in range(20_000):
            s += i * i
        for _ in range(300):
            a = a * 0.5 + 1.0
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def run_pass(ops, tracer=None, tag=""):
    """Run every operation once, timing each; check the outputs afterwards.

    The probe runs before the first operation, after the last, and between
    operations once PROBE_EVERY_S has passed; each operation's time is scaled
    to the reference speed by the mean of the two probes around it.
    Returns (op times, scaled op times, results, failure messages)."""
    times, outcomes, segment, probes = [], [], [], [probe()]
    since_probe = 0.0
    with tracer.installed() if tracer else nullcontext():
        for i, op in enumerate(ops):
            if since_probe >= PROBE_EVERY_S:
                probes.append(probe())
                since_probe = 0.0
            segment.append(len(probes) - 1)
            if tracer:
                tracer.run_id = f"{tag}/{i}"
            start = time.perf_counter()
            try:
                outcome = (op.run(), None)
            except Exception as exc:  # a raising operation is a failed one; keep measuring
                outcome = (None, f"{type(exc).__name__}: {exc}")
            times.append(time.perf_counter() - start)
            since_probe += times[-1]
            outcomes.append(outcome)
    probes.append(probe())
    scaled = [t * 2 * PROBE_REFERENCE_S / (probes[k] + probes[k + 1]) for t, k in zip(times, segment)]
    failures = []
    for op, (result, error) in zip(ops, outcomes):
        error = error or op.check(result)
        if error:
            failures.append(f"{op.label}: {error}")
    return times, scaled, [r for r, _ in outcomes], failures


def worker(args):
    t0 = time.perf_counter()
    import covertree
    from bench_inputs import rng_for
    from bench_trace import Tracer, layer_metrics, overhead_frac
    from bench_workloads import make_ops

    if Path(covertree.__file__).resolve().parent != SRC / "covertree":
        raise SystemExit(f"imported covertree from {covertree.__file__}, not from {SRC}")
    tracer = Tracer() if args.trace else None
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        with tracer.installed() if tracer else nullcontext():
            if tracer:
                tracer.run_id = "setup"
            sets = [make_ops(args.workload, rng_for(args.workload, args.seed, k), workdir / f"set{k}")
                    for k in range(INPUT_SETS)]
        setup_s = time.perf_counter() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setup_spans = list(tracer.spans) if tracer else []
        if tracer:
            tracer.spans.clear()

        run_pass(sets[0][0][:1])   # warm-up, not measured
        passes, failures, attempted, traced = [], [], 0, []
        checks_recorded = 0
        start = time.perf_counter()
        while not passes or time.perf_counter() - start < args.seconds:
            k = len(passes) % INPUT_SETS
            ops = sets[k][0]
            times, scaled, _, failed = run_pass(ops)
            passes.append({"set": k, "times": times, "scaled": scaled})
            failures += failed
            attempted += len(ops)
            if tracer:
                t_times, t_scaled, results, failed = run_pass(ops, tracer, tag=f"pass{len(traced)}")
                traced.append((sum(scaled), sum(t_scaled), sum(t_times)))
                checks_recorded += sum(op.recorded(r) for op, r in zip(ops, results))
                failures += failed
                attempted += len(ops)
        ops0 = sets[0][0]
        out = {
            "setup_s": setup_s,
            "attempted": attempted,
            "failures": failures,
            "passes": passes,
            "classes": [op.cls for op in ops0],
            "labels": [op.label for op in ops0],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "digests": [d for _, d in sets],
            "machine": machine(),
        }
        if tracer:
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
            wall = sum(raw for _, _, raw in traced)
            overhead = overhead_frac([(plain, t) for plain, t, _ in traced])
            out["layers"] = layer_metrics(tracer.spans, setup_spans, len(traced), wall,
                                          checks_recorded, overhead)
        print(json.dumps(out))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# --- parent process ---

def child_env(workload):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PYTHONHASHSEED"] = "0"
    env.update({k: "1" for k in BLAS_ENV})
    env.pop(BUDGET_ENV, None)
    if workload in BUDGETS:
        env[BUDGET_ENV] = BUDGETS[workload]
    return env


def run_child(args, deadline, setup_only=False):
    cmd = [sys.executable, str(HERE / "run.py"), "--worker", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(args.workload), stdout=subprocess.PIPE,
                          timeout=max(1.0, deadline - time.monotonic()), check=False, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(res, setup_samples, key="scaled", unit="ref_s"):
    """name -> (value, unit, samples) for every end-to-end metric.

    Pass metrics sum, over the operations of one pass (or of one class), each
    operation's median time over all passes; the samples are the pass totals."""
    passes, classes = res["passes"], res["classes"]
    per_op = [statistics.median(p[key][i] for p in passes) for i in range(len(classes))]
    out = {
        "setup_s": (statistics.median(setup_samples), "s", setup_samples),
        "wall_s": (sum(per_op), unit, [sum(p[key]) for p in passes]),
    }
    for c in CLASSES:
        mine = [i for i, k in enumerate(classes) if k == c]
        out[f"{c}_s"] = (sum(per_op[i] for i in mine), unit,
                         [sum(p[key][i] for i in mine) for p in passes])
    out["peak_rss_mb"] = (res["peak_rss_mb"], "MB", [res["peak_rss_mb"]])
    return out


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "covertree" / "__init__.py").is_file():
        print(f"error: covertree sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.worker:
        return worker(args)
    deadline = time.monotonic() + DEADLINE_S
    extra = 0 if args.trace else SETUP_EXTRA
    try:
        before = [run_child(args, deadline, setup_only=True)["setup_s"] for _ in range(extra)]
        res = run_child(args, deadline)
        after = [run_child(args, deadline, setup_only=True)["setup_s"] for _ in range(extra)]
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup_samples = before + [res["setup_s"]] + after
    failed = len(res["failures"])
    attempted = res["attempted"]

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("machine " + json.dumps(res["machine"], sort_keys=True))
    for k, digests in enumerate(res["digests"]):
        print(f"inputs set{k} " + " ".join(f"{n}={d}" for n, d in sorted(digests.items())))
    for message in res["failures"]:
        print(f"FAILED {message}")
    print(f"{'fail_frac':<16} {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    if args.trace:
        metrics = res["layers"]
        for name, (value, unit) in metrics.items():
            print(f"{name:<40} {value:.6g} {unit}")
    else:
        raw = end_to_end(res, setup_samples, key="times", unit="s")
        scaled = end_to_end(res, setup_samples)
        for name, (value, unit, samples) in scaled.items():
            print(f"{name:<16} {value:.6g} {unit}")
            print(describe("  samples", samples, unit))
            if unit != raw[name][1]:
                print(f"  unscaled       {raw[name][0]:.6g} s")
        for key, unit in (("scaled", "ref_s"), ("times", "s")):
            print(describe("operation", [t for p in res["passes"] for t in p[key]], unit))
        metrics = {name: (value, unit) for name, (value, unit, _) in scaled.items()}

    record = dict(res, seed=args.seed, workload=args.workload, trace=args.trace,
                  setup_samples=setup_samples)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="ascii")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
