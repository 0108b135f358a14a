"""Run a gridlq benchmark workload and print its metrics.

    python3 perfbench/run.py --workload msd-oneshot --seed 1 --seconds 36 --trace 0

Run it from the repository root: it imports gridlq from ``src/``. The
workloads, metrics and bounds are defined in ``BENCHMARK.json``; see
``perfbench/README.md``. Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the metrics
are the end-to-end ones, measured untraced; with ``--trace 1`` they are the
per-layer ones, from a run that solves every input untraced and traced and
writes its spans to ``perfbench/out/``. ``--workload all`` runs every
workload in turn, each in its own process.

Exit codes: 0 when every output check passed, 1 when one failed, 2 when
gridlq cannot be imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOAD_NAMES = ("msd-oneshot", "irrigation-mpc", "cli-diagnostics")

# One BLAS thread, like the single caller: on a small shared machine a
# second BLAS thread in the dense diagnostics mostly adds noise.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_revision():
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name} unresolved)"


def run_record(args, np, spec):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    return {
        "git_revision": git_revision(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": why.get(args.workload, ""),
    }


def tail(values):
    """The highest percentile with at least ten samples beyond it, if that
    is above the median."""
    n = len(values or ())
    if n <= 20:
        return "none (needs 21+ samples)"
    p = math.floor(100 * (1 - 10 / n))
    return f"p{p}={statistics.quantiles(values, n=100)[p - 1]!r}"


def print_metrics(metrics, gated):
    for key, (value, unit, values) in metrics.items():
        extra = f"  samples={len(values)}  tail {tail(values)}" if values is not None else ""
        extra += "" if key in gated else "  (not in BENCHMARK.json)"
        print(f"  {key:<40} {value!r:>24} {unit}{extra}")


def run_all(args):
    """Each workload in its own process, so peak memory stays per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        if child.returncode == 2 or not lines:
            return child.returncode or 2
        print("\n".join(lines[:-1]))
        status = max(status, child.returncode)
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None):
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    os.environ.update(BLAS_ENV)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gridlq
    except ImportError as exc:
        print(f"cannot import gridlq from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(gridlq.__file__).resolve().parent != src / "gridlq":
        print(f"gridlq was imported from {gridlq.__file__}, not {src}", file=sys.stderr)
        return 2
    import numpy as np

    import bench
    from spans import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    gated = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    record = run_record(args, np, spec)
    print("run record: " + json.dumps(record))
    OUT.mkdir(exist_ok=True)
    workload = bench.WORKLOADS[args.workload](args.seed, str(OUT))
    mismatches = []
    if args.trace:
        tracer = Tracer()
        peaks = {b: bench.matmul_mflops(b) for b in (4, 8)}
        samples, mismatches, pairs = bench.traced(workload, args.seconds, tracer)
        metrics = {k: (v, u, None) for k, (v, u) in
                   bench.layer_metrics(tracer, samples, pairs, peaks).items()}
        path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(path, record)
        print(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    else:
        samples, metrics = bench.measure(workload, args.seconds)

    failed = [s for s in samples if s.reasons]
    for i, sample in enumerate(samples):
        label = f"input {i // 2} {'traced' if i % 2 else 'untraced'}" if args.trace else f"solve {i}"
        print(f"{label}: time_to_solution_s {sample.tts!r} solve_s {sample.solve_s!r} "
              f"steps {sample.steps}"
              + ("; failed: " + "; ".join(sample.reasons) if sample.reasons else ""))
    for mismatch in mismatches:
        print(f"trace check failed: {mismatch}")
    print(f"{args.workload} seed {args.seed}: {len(samples)} solves, "
          f"failed_frac {len(failed) / len(samples)!r} ({len(failed)} of {len(samples)})")
    print_metrics(metrics, gated)
    correct = not failed and not mismatches
    print(json.dumps({
        "correct": correct,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in gated},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
