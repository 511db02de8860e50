#!/usr/bin/env python3
"""Measure the speed probes' reference times on this host.

    python3 perfbench/calibrate.py --seconds 120

Spins a small interpreter loop on one CPU for --seconds, in one-second
regions timed like an op (speed.sampling), and prints the quartiles of
the per-region median probe times. The probes run as they do in the
benchmark: from the timer tick, on a busy CPU. The reference times
PYTHON_REF_S and NUMPY_REF_S in speed.py are the two medians. Scaled
times are then seconds at the host's typical speed during calibration.
Both medians must come from the same run: the scaled time of an op with
both kinds of code is right only when the two reference times describe
the same host state, whatever state that is.
"""

from __future__ import annotations

import argparse
import os
import statistics
import time

import speed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=120.0)
    args = parser.parse_args()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    regions = []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        with speed.sampling() as probe:
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 1.0:
                sum(range(1000))
        regions.append(probe)
    for name in ("python", "numpy"):
        medians = [statistics.median(getattr(probe, name)) for probe in regions]
        q1, q2, q3 = statistics.quantiles(medians, n=4)
        print(
            f"{name:<7} per-second medians (us): p25 {q1 * 1e6:.1f}  p50 {q2 * 1e6:.1f}"
            f"  p75 {q3 * 1e6:.1f}  n={len(medians)}"
        )


if __name__ == "__main__":
    main()
