#!/usr/bin/env python3
"""l1cert benchmark: one workload per process, medians over repeated ops.

Run from the repository root:

    python3 perfbench/run.py --workload certify_deep --seed 1 --seconds 20 --trace 0

Workloads: certify_deep, search, edges_large and selftest (README.md says
why each). The program is imported from src/ next to this directory,
with one BLAS/OpenMP thread. The output is a readable summary and, as the
last line, one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics of
a traced run with --trace 1. A traced run also writes its spans to
perfbench/out/spans-<workload>.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
UNITS = {"op_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ops_ok_share": "ratio"}


def summary_lines(result, harness) -> list[str]:
    """Readable report: each named timing with its unit and sample count."""
    lines = [
        f"perfbench workload={result.workload} ops={result.attempted} failed={result.failed}"
    ]
    workload = harness.WORKLOADS[result.workload]
    for part in workload.parts:
        times = result.part_times(part)
        if times:
            lines.append(
                f"  {part:<16} median {statistics.median(times):.4f} s  n={len(times)}"
                f"  min {min(times):.4f}  max {max(times):.4f}"
            )
    ops, raw = result.op_times(), result.raw_op_times()
    if ops:
        lines.append(
            f"  {'op_s':<16} median {statistics.median(ops):.4f} s  n={len(ops)}"
            f"  (wall clock {statistics.median(raw):.4f} s before speed scaling)"
        )
    probes = [r.probe for r in result.records if r.parts and r.probe and not r.traced]
    if probes:
        python = statistics.median(statistics.median(p.python) for p in probes)
        numpy = statistics.median(statistics.median(p.numpy) for p in probes)
        share = statistics.median(p.python_share for p in probes)
        lines.append(
            f"  {'speed probes':<16} python {python * 1e3:.4f} ms  numpy {numpy * 1e3:.4f} ms"
            f"  interpreter share of op ticks {share:.3f}  (medians over ops)"
        )
    lines.append(
        f"  {'setup_s':<16} {result.setup_s:.4f} s  (median of {harness.IMPORT_REPEATS} imports"
        f" + median of {harness.SETUP_REPEATS} input generations)"
    )
    lines.append(f"  {'peak_rss_mb':<16} {result.peak_rss_mb:.1f} MB  (max over untraced ops)")
    lines.append(f"  {'failed_ops':<16} {result.failed}/{result.attempted}")
    for name, value in result.layer.items():
        if value:
            lines.append(f"  {name:<40} {value:.6g} {harness.unit_of(name)}")
    if result.missing:
        lines.append("  no span taken for missing names: " + ", ".join(result.missing))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "l1cert" / "__init__.py").is_file():
        print(f"error: no l1cert sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    import harness

    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        result = harness.run(
            harness.WORKLOADS[args.workload](), args.seed, args.seconds, bool(args.trace), workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for line in summary_lines(result, harness):
        print(line)
    errors = result.run_errors + [e for r in result.records for e in r.errors]
    for error in errors[:5]:
        print("check failed: " + error.rstrip(), file=sys.stderr)
    if args.trace:
        metrics = {k: {"value": v, "unit": harness.unit_of(k)} for k, v in result.layer.items()}
    else:
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in result.end_to_end().items()}
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
