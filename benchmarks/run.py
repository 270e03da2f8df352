"""Benchmark of the evreflex event+depth TTI chain.

    python3 benchmarks/run.py --workload {approach,ingest,render} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the repository root; the program is imported from ./src and the
metric names, units and directions come from ./BENCHMARK.json.  The script
prints a human-readable table, then one JSON line holding the full record
(environment, every metric with unit, direction and sample count, the
correctness problems found, and workload notes), and as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

With --trace 0 the metrics are the end-to-end ones, measured untraced.  With
--trace 1 they are the per-layer ones, from spans recorded around calls into
the evreflex modules; a layer the workload never calls reports 0.
failed / attempted is the error rate: an operation is a frame pair (approach),
a written file or a frame window (ingest), or a rendered frame (render).
--smoke runs the same code on tiny inputs, to check the harness quickly.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("approach", "ingest", "render")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit(root: Path) -> str:
    """HEAD commit read from .git without running git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    def seed(text):
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError("seed must be >= 0")
        return value

    def seconds(text):
        value = float(text)
        if not value > 0:
            raise argparse.ArgumentTypeError("seconds must be positive")
        return value

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=seed, required=True)
    ap.add_argument("--seconds", type=seconds, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for harness tests")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "evreflex" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: {ROOT} holds no src/evreflex package or no BENCHMARK.json", file=sys.stderr)
        return 2
    # One single-threaded process: BLAS must not start its own threads.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import evreflex
    import workloads

    if Path(evreflex.__file__).resolve().parent != ROOT / "src" / "evreflex":
        print(f"error: imported evreflex from {evreflex.__file__}, not from {ROOT}/src",
              file=sys.stderr)
        return 2

    spec = json.loads(spec_path.read_text())
    size = workloads.SMOKE if args.smoke else workloads.SENSOR
    trace = bool(args.trace)
    if args.workload == "approach":
        report = workloads.run_approach(args.seed, args.seconds, trace, size)
    elif args.workload == "ingest":
        work_dir = ROOT / ".bench_build"
        work_dir.mkdir(exist_ok=True)
        report = workloads.run_ingest(args.seed, args.seconds, trace, size, str(work_dir))
    else:
        report = workloads.run_render(args.seed, args.seconds, trace, size)

    listed = spec["per_layer"] if trace else spec["end_to_end"]
    rows = []
    for m in listed:
        if trace:
            value, samples = report.per_layer.get(m["name"], 0.0), None
        else:
            value, samples = report.end_to_end[m["name"]]
        rows.append({"name": m["name"], "value": float(value), "unit": m["unit"],
                     "better": m["better"], "samples": samples})

    env = {
        "git_commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "seed": args.seed,
        "platform": platform.platform(),
    }
    correct = report.failed == 0
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}"
          f"{' smoke' if args.smoke else ''}  raster={size.width}x{size.height}")
    print(f"env: {json.dumps(env)}")
    for r in rows:
        extra = f"{r['better']} is better" + (f", {r['samples']} samples" if r["samples"] else "")
        print(f"  {r['name']:<40} {r['value']:>16.6g} {r['unit']:<6} ({extra})")
    print(f"  {'error_rate':<40} {report.failed / max(report.attempted, 1):>16.6g} "
          f"{'':<6} ({report.failed} failed of {report.attempted} operations)")
    for row in report.notes.get("aee_by_displacement", []):
        print(f"  pair {row['pair']:>2}: {row['pair_ms']:8.1f} ms, ground-truth"
              f" displacement p95 {row['gt_disp_p95_px']:7.2f} px,"
              f" max {row['gt_disp_max_px']:7.2f} px -> flow AEE {row['aee_px']:6.2f} px")
    if not trace:  # the traced run lists them among the per-layer metrics
        for name, value in report.notes.get("quality", {}).items():
            print(f"  {name:<40} {value:>16.6g}")
    for problem in report.problems:
        print(f"FAILED CHECK: {problem}", file=sys.stderr)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "raster": [size.width, size.height],
        "env": env, "attempted": report.attempted, "failed": report.failed,
        "error_rate": report.failed / max(report.attempted, 1), "problems": report.problems,
        "metrics": rows, "notes": report.notes,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {r["name"]: {"value": r["value"], "unit": r["unit"]} for r in rows},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
