import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import l1cert
from l1cert import oracle
from l1cert.l1metric import DistortionReport
from l1cert.pointset import GraphParams, build_graph

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    # A fixed, derandomized example set with no example database: the
    # property tests draw the same inputs on every run and stay fast.
    settings.register_profile(
        "l1cert", derandomize=True, database=None, deadline=None, max_examples=80
    )
    settings.load_profile("l1cert")


def reference_labels(ps):
    """Every vertex label in export order, from the recursive per-vertex reference."""
    return [oracle._label_of(ps.params, v) for v in ps.vertices]


def fresh_interpreter(code):
    """The stdout of `code` run by a fresh interpreter that imports this l1cert."""
    src = str(Path(l1cert.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=60,
    )
    return run.stdout


def naive_pairwise(points):
    return np.abs(points[:, None, :] - points[None, :, :]).sum(axis=-1)


def full_matrix_report(points, original):
    """The worst ratios by definition: naive_pairwise(points) against `original`, over i < j."""
    iu = np.triu_indices(len(points), 1)
    de = naive_pairwise(points)[iu]
    do = original[iu]
    expansion = float(np.max(de / do))
    if np.any(de == 0.0):
        return DistortionReport(expansion, math.inf, math.inf)
    contraction = float(np.max(do / de))
    return DistortionReport(expansion, contraction, expansion * contraction)


@pytest.fixture(scope="session")
def pointsets():
    """Session cache of built P(k, n) graphs keyed by (k, n)."""
    cache = {}

    def get(k, n):
        if (k, n) not in cache:
            cache[(k, n)] = build_graph(GraphParams(k, n))
        return cache[(k, n)]

    return get


class _StrictChecker:
    """A checker for the l1cert.selftest checks whose check asserts."""

    def check(self, ok):
        assert ok


@pytest.fixture(scope="session")
def checker():
    """Pass to a shared selftest check: a failing check fails the test at its line."""
    return _StrictChecker()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print one pass/fail line per acceptance criterion."""
    rows = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" in nodeid and "test_criterion" in nodeid:
                name = nodeid.split("::")[-1]
                verdict = "PASS" if status == "passed" else "FAIL"
                rows.setdefault(name, verdict)
    if rows:
        terminalreporter.section("acceptance criteria")
        for name in sorted(rows):
            terminalreporter.write_line(f"{rows[name]} {name}")
