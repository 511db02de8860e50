"""Fast smoke run of the benchmark harness at P(2,2).

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload at tiny sizes, untraced and traced, through the same
op loop, checks and metric code as the full benchmark, and checks that
the reported metric names are the ones BENCHMARK.json declares.
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import reference  # noqa: E402
import speed  # noqa: E402
from spans import Tracer  # noqa: E402

SMALL = {
    "certify_deep": lambda: harness.CertifyDeep(k=2, n=2, d=4),
    "search": lambda: harness.Search(k=2, n=2, d=4, iters=50, restarts=2),
    "edges_large": lambda: harness.EdgesLarge(k=2, n=2, d=4),
    "selftest": harness.Selftest,
}


def declared(kind: str) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in spec[kind]}


def small_run(name, trace, tmp_path):
    return harness.run(SMALL[name](), 3, 0.0, trace, tmp_path / "work", ladder=())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_untraced_run_is_correct(name, tmp_path):
    result = small_run(name, False, tmp_path)
    assert result.attempted == harness.MIN_OPS
    assert result.failed == 0 and not result.run_errors
    metrics = result.end_to_end()
    assert set(metrics) == set(declared("end_to_end"))
    assert all(value > 0 for value in metrics.values())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_run_reports_every_layer(name, tmp_path):
    result = small_run(name, True, tmp_path)
    assert result.failed == 0 and not result.run_errors
    assert result.missing == []
    assert list(result.layer) == list(declared("per_layer"))
    for metric, spec in declared("per_layer").items():
        assert spec["unit"] == harness.unit_of(metric)
    assert (tmp_path / f"spans-{name}.jsonl").stat().st_size > 0


def test_work_counts_are_exact(tmp_path):
    layer = small_run("certify_deep", True, tmp_path).layer
    assert layer["pointset.vertices"] == 12
    assert layer["pointset.edges"] == 16
    assert layer["pointset.distance_matrix_bytes"] == 12 * 12 * 8
    assert layer["l1metric.pair_coord_ops"] == 12 * 11 // 2 * 4
    assert layer["certifier.constraints"] == harness.constraint_count(2, 2) == 5
    layer = small_run("search", True, tmp_path).layer
    assert layer["oracle.search_iterations"] == 100


def test_size_ladder_times_every_stage():
    metrics = harness.run_ladder(Tracer(), 1, ((2, 2),))
    stages = ("pairwise_l1_s", "constraint_report_s", "certify_s")
    want = ["ladder.k2n2.distance_matrix_s"]
    want += [f"ladder.k2n2d{d}.{s}" for d in harness.LADDER_DIMS for s in stages]
    assert sorted(metrics) == sorted(want)
    assert all(value > 0 for value in metrics.values())


def test_wrong_epsilon_fails_every_op(tmp_path, monkeypatch):
    monkeypatch.setattr(reference, "epsilon", lambda *args: 2.0)
    result = small_run("certify_deep", False, tmp_path)
    assert result.failed == result.attempted
    assert any("reference" in e for e in result.run_errors)


def test_missing_target_is_recorded_not_raised():
    tracer = Tracer()
    tracer.install([("l1cert.pointset", "no_such_function", "x", None)], [])
    tracer.uninstall()
    assert tracer.missing == ["l1cert.pointset.no_such_function"]


def test_speed_scaling_follows_the_measured_code_mix():
    probe = speed.Speed()
    probe.python, probe.numpy = [speed.PYTHON_REF_S], [speed.NUMPY_REF_S]
    probe.python_ticks, probe.c_ticks = 3, 1
    assert probe.scaled(1.0) == pytest.approx(1.0)
    probe.python, probe.numpy = [2 * speed.PYTHON_REF_S], [1.5 * speed.NUMPY_REF_S]
    assert probe.scaled(1.0) == pytest.approx(0.75 / 2 + 0.25 / 1.5)


def spin_python(seconds):
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        total = 0
        for i in range(100):
            total += i


def spin_numpy(seconds):
    rows = np.random.default_rng(0).standard_normal((1500, 8))
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        np.abs(rows[:200, None, :] - rows[None, :, :]).sum(axis=-1).max()


def test_sampling_classifies_ticks_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with speed.sampling() as interpreted:
        spin_python(0.5)
    with speed.sampling() as vectorised:
        spin_numpy(0.5)
    assert len(interpreted.python) >= 5 and interpreted.probe_s > 0
    assert interpreted.python_share > 0.8
    assert vectorised.python_share < 0.5
    assert signal.getsignal(signal.SIGALRM) is before


def test_peak_rss_covers_the_op_only():
    big = np.ones(40_000_000)  # 320 MB, freed before the reset
    del big
    harness.reset_peak_rss()
    small = np.ones(5_000_000)  # 40 MB
    peak = harness.peak_rss_mb()
    del small
    assert 40 < peak < 300


def test_reference_addresses_match_the_library():
    from l1cert import pointset

    graph = pointset.build_graph(pointset.GraphParams(3, 2))
    assert reference.canonical_addresses(3, 2) == [str(v) for v in graph.vertices]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    argv = [sys.executable, f"{HERE.name}/run.py", "--workload", "selftest"]
    argv += ["--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
