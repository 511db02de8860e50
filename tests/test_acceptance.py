"""Acceptance criteria, one test per criterion at its stated tolerance.

The terminal summary (see conftest.py) prints one PASS/FAIL line per
criterion. Runtime budgets from the criteria are enforced where stated.
"""

import itertools
import math
import time

import numpy as np

from l1cert.certifier import (
    average_edge_vector,
    bound_for_distortion,
    certify,
    constraint_report,
    dimension_bound,
    lift_recover,
    nonneg_lift,
)
from l1cert.cli import main
from l1cert.infotheory import (
    JointDistribution,
    chain_rule_terms,
    fano_bound,
    mutual_information,
)
from l1cert.l1metric import (
    distortion,
    embedding_to_text,
    identity_embedding,
    l1_interval_distance,
    make_embedding,
    normalize_lipschitz,
)
from l1cert.oracle import (
    SearchConfig,
    brute_force_average,
    build_message_joint,
    lemma_check,
    max_claim_gap,
    search_embedding,
)
from l1cert.pointset import (
    GraphParams,
    antipodal_pairs,
    pointset_from_text,
    pointset_to_text,
    vertex_count,
)


def test_criterion_01_construction_exactness(pointsets):
    started = time.monotonic()
    for k in (2, 3, 4):
        for n in (1, 2, 3):
            ps = pointsets(k, n)
            expected = ((2 * k - 2) * (2 * k) ** n + 2 * k) // (2 * k - 1)
            assert vertex_count(GraphParams(k, n)) == expected
            assert len(ps.graph.vertices) == expected
            tails, heads = ps.graph.level_edges[-1]
            for tail, head in zip(tails.tolist(), heads.tolist()):
                assert l1_interval_distance(ps.labels[tail], ps.labels[head]) == 1
            row = {v: i for i, v in enumerate(ps.addresses)}
            for level in range(1, n + 1):
                want = k ** (n - level + 1)
                for a, b in antipodal_pairs(ps.graph, level):
                    assert l1_interval_distance(ps.labels[row[a]], ps.labels[row[b]]) == want
    assert time.monotonic() - started < 10.0


def test_criterion_02_identity_constraint_equality(pointsets):
    started = time.monotonic()
    for k in (2, 3):
        for n in (1, 2, 3):
            ps = pointsets(k, n)
            report = constraint_report(ps.graph, identity_embedding(ps))
            expected_entries = sum(
                (2 * k) ** (level - 1) * (k - 1) for level in range(1, n + 1)
            )
            assert len(report.entries) == expected_entries
            for entry in report.entries:
                assert abs(entry.lhs - 1.0) <= 1e-12
    assert time.monotonic() - started < 30.0


def test_criterion_03_averaging_oracle_equivalence(pointsets):
    started = time.monotonic()
    for k, n in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        ps = pointsets(k, n)
        emb = identity_embedding(ps)
        for length in range(n + 1):
            for prefix in itertools.product(range(1, 2 * k + 1), repeat=length):
                closed = average_edge_vector(ps.graph, emb, prefix)
                brute = brute_force_average(ps.graph, emb, prefix)
                assert float(np.abs(closed - brute).max()) <= 1e-12
    assert time.monotonic() - started < 30.0


def test_criterion_04_bound_values():
    # Values recomputed independently from the bound formula before coding.
    result = dimension_bound(2, 10, 0.0)
    assert abs(result.raw_bound - 511.5) <= 1e-6
    assert result.min_dimension == 512
    result = bound_for_distortion(2, 20, 2.0)
    assert abs(result.raw_bound - 6.34209203720093) <= 1e-6
    assert result.min_dimension == 7
    result = dimension_bound(3, 4, 0.2)
    assert abs(result.raw_bound - 2.6429898723159613) <= 1e-6
    assert result.min_dimension == 3


def test_criterion_05_fano_suite():
    started = time.monotonic()
    rng = np.random.default_rng(211)
    checked = 0
    for trial in range(1000):
        k = 2 + trial % 5
        m = int(rng.integers(2, 9))
        rows = rng.exponential(size=(k, m))
        rows /= rows.sum(axis=1, keepdims=True)
        if rng.uniform() < 0.5:
            sharp = np.zeros((k, m))
            for a in range(k):
                sharp[a, int(rng.integers(m))] = 1.0
            lam = rng.uniform(0.0, 0.6)
            rows = (1 - lam) * sharp + lam * rows
        success = float(rows.max(axis=0).sum()) / k
        if success < 0.5:
            continue
        checked += 1
        joint = JointDistribution((k, m), rows / k)
        assert mutual_information(joint, 0, 1) >= fano_bound(k, success) - 1e-9
    assert checked >= 300  # the suite must not pass vacuously
    assert time.monotonic() - started < 60.0


def test_criterion_06_inner_claim_suite():
    rng = np.random.default_rng(223)
    for trial in range(10_000):
        k = 2 + trial % 7
        lhs, rhs = max_claim_gap(rng.uniform(0.0, 4.0, size=k))
        assert lhs <= rhs + 1e-12
    for _ in range(1000):
        # Dyadic entries keep float arithmetic exact: equality is exact at k=2.
        pair = rng.integers(0, 2**20, size=2) / 2.0**20
        lhs, rhs = max_claim_gap(pair)
        assert lhs == rhs


def test_criterion_07_lemma_suite():
    rng = np.random.default_rng(227)
    applicable = 0
    for trial in range(1000):
        k = 2 + trial % 4  # k in 2..5
        d = int(rng.integers(k, 9))
        rows = rng.exponential(size=(2 * k, d))
        rows /= rows.sum(axis=1, keepdims=True)
        if rng.uniform() < 0.7:
            targets = rng.permutation(d)[:k]
            sharp = np.zeros((2 * k, d))
            for a in range(k):
                sharp[a, targets[a]] = 1.0
                sharp[a + k, targets[a]] = 1.0
            lam = rng.uniform(0.0, 0.5)
            rows = (1 - lam) * sharp + lam * rows
        report = lemma_check(rows)
        assert report.mi_exact >= report.mi_folded - 1e-9
        if report.applicable:
            applicable += 1
            assert report.holds
    assert applicable >= 200


def test_criterion_08_chain_rule_and_per_level_bound(pointsets):
    for n in (1, 2):
        ps = pointsets(2, n)
        joint = build_message_joint(ps.graph, identity_embedding(ps))
        terms = chain_rule_terms(joint)
        total = mutual_information(joint, tuple(range(n)), n)
        assert abs(sum(terms) - total) <= 1e-9
        for term in terms:
            assert term >= 1.0 - 1e-9
        h_m = joint.entropy_of(n)
        assert math.log2(2 * ps.dimension + 1) >= h_m
        assert h_m >= total - 1e-9


def test_criterion_09_lift_suite():
    rng = np.random.default_rng(229)
    for _ in range(10_000):
        d = int(rng.integers(1, 9))
        vec = rng.uniform(-1.0, 1.0, size=d)
        norm = np.abs(vec).sum()
        if norm > 1.0:
            vec /= norm * rng.uniform(1.0, 2.0)
        lifted = nonneg_lift(vec)
        assert lifted.weights.min() >= 0.0
        assert abs(lifted.weights.sum() - 1.0) <= 1e-9
        assert np.array_equal(lift_recover(lifted.weights), vec)
        y = rng.uniform(0.0, 1.0, size=2 * d + 1)
        assert np.abs(lift_recover(y)).sum() <= np.abs(y).sum() + 1e-12


def test_criterion_10_end_to_end_theorem_consistency(pointsets):
    started = time.monotonic()
    ps = pointsets(2, 2)
    for d in (1, 2, 3, 4):
        for seed in range(20):
            cfg = SearchConfig(target_dimension=d, iterations=400, restarts=2, seed=seed)
            result = search_embedding(ps, cfg)
            cert = certify(ps, result.embedding)
            assert cert.consistent, (d, seed, cert.epsilon, cert.bound.min_dimension)
            normalized = normalize_lipschitz(ps, result.embedding)
            rep = distortion(ps, normalized)
            eps0 = 1.0 - 1.0 / rep.contraction
            assert constraint_report(ps.graph, normalized).epsilon <= eps0 + 1e-9
    assert time.monotonic() - started < 300.0


def test_criterion_11_cli_contract(tmp_path, pointsets):
    # generate: two valid instances and one invalid parameter set.
    out = tmp_path / "p21.txt"
    assert main(["generate", "-k", "2", "-n", "1", "-o", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert pointset_to_text(pointset_from_text(text)) == text  # byte-identical
    assert main(["generate", "-k", "3", "-n", "2", "-o", str(tmp_path / "p32.txt")]) == 0
    assert main(["generate", "-k", "1", "-n", "1", "-o", str(tmp_path / "bad.txt")]) == 2

    # certify: consistent identity, truncated file, constant embedding.
    ps = pointsets(2, 3)
    ps_path = tmp_path / "p23.txt"
    ps_path.write_text(pointset_to_text(ps), encoding="utf-8")
    emb_path = tmp_path / "id.txt"
    emb_path.write_text(embedding_to_text(ps, identity_embedding(ps)), encoding="utf-8")
    assert main(["certify", str(ps_path), str(emb_path)]) == 0
    trunc = tmp_path / "trunc.txt"
    trunc.write_text(
        "\n".join(emb_path.read_text(encoding="utf-8").splitlines()[:7]) + "\n",
        encoding="utf-8",
    )
    assert main(["certify", str(ps_path), str(trunc)]) == 2
    const_path = tmp_path / "const.txt"
    const = make_embedding({a: [0.5] for a in ps.addresses})
    const_path.write_text(embedding_to_text(ps, const), encoding="utf-8")
    assert main(["certify", str(ps_path), str(const_path)]) == 2

    # bound: the three documented invocations.
    assert main(["bound", "-k", "2", "-n", "10", "--eps", "0"]) == 0
    assert main(["bound", "-k", "2", "-n", "20", "--distortion", "2"]) == 0
    assert main(["bound", "-k", "3", "-n", "5", "--eps", "0.6"]) == 0
    assert main(["bound", "-k", "2", "-n", "5"]) == 2

    # search: valid run, usage error, missing input.
    emb_out = tmp_path / "searched.txt"
    assert main(
        ["search", str(out), "-d", "2", "--iters", "200", "--restarts", "2",
         "--seed", "1", "-o", str(emb_out)]
    ) == 0
    assert emb_out.exists() and (tmp_path / "searched.txt.report").exists()
    assert main(["search", str(out)]) == 2
    assert main(["search", str(tmp_path / "missing.txt"), "-d", "2"]) == 2

    # selftest: full run passes within its budget; flipped orientation fails.
    started = time.monotonic()
    assert main(["selftest"]) == 0
    assert time.monotonic() - started < 300.0
    assert main(["selftest", "--suite", "identity_equality", "--flip-bottom-debug"]) == 1
