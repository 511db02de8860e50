"""Acceptance criteria, one test per criterion at its stated tolerance.

Each criterion runs its own case list through the checks of
l1cert.selftest, with a checker that asserts (see conftest.py). The
terminal summary prints one PASS/FAIL line per criterion. Runtime budgets
from the criteria are enforced where stated.
"""

import time

import numpy as np

from l1cert.certifier import constraint_report
from l1cert.cli import main
from l1cert.l1metric import (
    SearchConfig,
    distortion,
    embedding_to_text,
    identity_embedding,
    make_embedding,
    normalize_lipschitz,
)
from l1cert.pointset import GraphParams, pointset_from_text, pointset_to_text, vertex_count
from l1cert.selftest import (
    check_averaging,
    check_bound_values,
    check_chain_per_level,
    check_construction,
    check_end_to_end,
    check_identity_constraints,
    check_fano,
    check_inner_claim,
    check_lemma,
    check_lift,
    draw_claim_values,
    draw_dyadic_pairs,
    draw_fano_cases,
    draw_lemma_cases,
    draw_lift_cases,
    stack_by_shape,
)


def test_criterion_01_construction_exactness(pointsets, checker):
    started = time.monotonic()
    for k in (2, 3, 4):
        for n in (1, 2, 3):
            expected = ((2 * k - 2) * (2 * k) ** n + 2 * k) // (2 * k - 1)
            assert vertex_count(GraphParams(k, n)) == expected
            check_construction(checker, pointsets(k, n))
    assert time.monotonic() - started < 10.0


def test_criterion_02_identity_constraint_equality(pointsets, checker):
    started = time.monotonic()
    for k in (2, 3):
        for n in (1, 2, 3):
            check_identity_constraints(checker, pointsets(k, n))
    assert time.monotonic() - started < 30.0


def test_criterion_03_averaging_oracle_equivalence(pointsets, checker):
    started = time.monotonic()
    for k, n in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2)):
        ps = pointsets(k, n)
        check_averaging(checker, ps, identity_embedding(ps))
    assert time.monotonic() - started < 30.0


def test_criterion_04_bound_values(checker):
    # Values recomputed independently from the bound formula before coding.
    check_bound_values(checker)


def test_criterion_05_fano_suite(checker):
    started = time.monotonic()
    rng = np.random.default_rng(211)
    stacks = stack_by_shape(draw_fano_cases(rng, 1000))
    checked = sum(check_fano(checker, tables) for tables, in stacks)
    assert checked >= 300  # the suite must not pass vacuously
    assert time.monotonic() - started < 60.0


def test_criterion_06_inner_claim_suite(checker):
    rng = np.random.default_rng(223)
    for values, in stack_by_shape(draw_claim_values(rng, 10_000)):
        check_inner_claim(checker, values)
    # Dyadic entries keep float arithmetic exact: equality is exact at k=2.
    check_inner_claim(checker, draw_dyadic_pairs(rng, 1000), exact=True)


def test_criterion_07_lemma_suite(checker):
    rng = np.random.default_rng(227)
    stacks = stack_by_shape(draw_lemma_cases(rng, 1000))
    applicable = sum(check_lemma(checker, tables) for tables, in stacks)
    assert applicable >= 200


def test_criterion_08_chain_rule_and_per_level_bound(pointsets, checker):
    for n in (1, 2):
        ps = pointsets(2, n)
        check_chain_per_level(checker, ps, identity_embedding(ps))


def test_criterion_09_lift_suite(checker):
    rng = np.random.default_rng(229)
    for vecs, ys in stack_by_shape(draw_lift_cases(rng, 10_000, 2.0)):
        lifted = check_lift(checker, vecs, ys)
        assert lifted.min() >= 0.0


def test_criterion_10_end_to_end_theorem_consistency(pointsets, checker):
    started = time.monotonic()
    ps = pointsets(2, 2)
    for d in (1, 2, 3, 4):
        for seed in range(20):
            cfg = SearchConfig(target_dimension=d, iterations=400, restarts=2, seed=seed)
            emb = check_end_to_end(checker, ps, cfg)
            normalized = normalize_lipschitz(ps, emb)
            rep = distortion(ps, normalized)
            eps0 = 1.0 - 1.0 / rep.contraction
            assert constraint_report(ps, normalized).epsilon <= eps0 + 1e-9
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
    const = make_embedding({a: [0.5] for a in ps.vertices})
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
