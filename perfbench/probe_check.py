#!/usr/bin/env python3
"""Check how well speed.py's scaling tracks three kinds of op on this host.

    python3 perfbench/probe_check.py --seconds 180

Runs three small ops in turn, each timed like a benchmark op
(speed.sampling), until --seconds have passed:

- interpreted: the label distance matrix of P(2,5), a Python double loop;
- numpy: 150 pairwise L1 matrices of 172 points in R**8;
- streaming: six passes of numpy over a 64 MB array.

For each op it prints the measured share of interpreted ticks, the
median probe times during the op, and the standard deviation of log op
time before and after scaling. Scaling helps where the second is the
smaller one; probe medians that differ between ops at the same time show
how much an op's own memory footprint leaks into the probes.
"""

from __future__ import annotations

import argparse
import math
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import speed

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from l1cert import l1metric, pointset  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=180.0)
    args = parser.parse_args()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    graph = pointset.build_graph(pointset.GraphParams(2, 5))
    points = np.random.default_rng(0).standard_normal((172, 8))
    stream = np.random.default_rng(1).standard_normal(8_000_000)
    ops = {
        "interpreted": lambda: pointset.point_set(graph).distance_matrix,
        "numpy": lambda: [l1metric.pairwise_l1(points) for _ in range(150)],
        "streaming": lambda: [np.abs(stream).sum() for _ in range(6)],
    }
    samples: dict[str, list[tuple[float, speed.Speed]]] = {name: [] for name in ops}
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        for name, op in ops.items():
            with speed.sampling() as probe:
                t0 = time.perf_counter()
                op()
                wall = time.perf_counter() - t0
            samples[name].append((wall, probe))
    for name, runs in samples.items():
        raw = [math.log(wall - probe.probe_s) for wall, probe in runs]
        scaled = [math.log(probe.scaled(wall)) for wall, probe in runs]
        share = statistics.median(probe.python_share for _, probe in runs)
        py = statistics.median(statistics.median(probe.python) for _, probe in runs)
        vec = statistics.median(statistics.median(probe.numpy) for _, probe in runs)
        print(
            f"{name:<12} n={len(runs)}  interpreted share {share:.2f}"
            f"  probes python {py * 1e6:.0f} us numpy {vec * 1e6:.0f} us"
            f"  sd(log time) raw {statistics.pstdev(raw):.3f} scaled {statistics.pstdev(scaled):.3f}"
        )


if __name__ == "__main__":
    main()
