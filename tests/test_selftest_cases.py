"""The selftest suites' draw helpers return the case lists of the per-trial loops.

Each reference below is the draw loop the suite ran one case at a time
before its checks took stacks, kept here verbatim apart from the check
call. The helpers must return the same arrays in the same order, for the
suites' own seeds and counts and for the acceptance criteria's; the
golden pass counts alone could miss a changed case list that passes.
"""

import numpy as np
import pytest

from l1cert.selftest import (
    draw_claim_values,
    draw_dyadic_pairs,
    draw_fano_cases,
    draw_lemma_cases,
    draw_lift_cases,
    stack_by_shape,
)


def lift_loop(rng, trials, spread):
    cases = []
    for _ in range(trials):
        d = int(rng.integers(1, 9))
        vec = rng.uniform(-1.0, 1.0, size=d)
        norm = np.abs(vec).sum()
        if norm > 1.0:
            vec = vec / (norm * rng.uniform(1.0, spread))
        cases.append((vec, rng.uniform(0.0, 1.0, size=2 * d + 1)))
    return cases


def fano_loop(rng, trials):
    cases = []
    for trial in range(trials):
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
        cases.append(rows)
    return cases


def inner_claim_loop(rng, trials, pairs):
    cases = []
    for trial in range(trials):
        cases.append(rng.uniform(0.0, 4.0, size=2 + trial % 7))
    for _ in range(pairs):
        cases.append(rng.integers(0, 2**20, size=2) / 2.0**20)
    return cases


def lemma_loop(rng, trials):
    cases = []
    for trial in range(trials):
        k = 2 + trial % 4
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
        cases.append(rows)
    return cases


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("seed,trials,spread", [(7, 2000, 3.0), (229, 10_000, 2.0)])
def test_lift_cases(seed, trials, spread):
    got = list(draw_lift_cases(np.random.default_rng(seed), trials, spread))
    want = lift_loop(np.random.default_rng(seed), trials, spread)
    assert_same_arrays([vec for vec, _ in got], [vec for vec, _ in want])
    assert_same_arrays([y for _, y in got], [y for _, y in want])


@pytest.mark.parametrize("seed,trials", [(11, 400), (211, 1000), (53, 300)])
def test_fano_cases(seed, trials):
    got = [rows for rows, in draw_fano_cases(np.random.default_rng(seed), trials)]
    assert_same_arrays(got, fano_loop(np.random.default_rng(seed), trials))


@pytest.mark.parametrize("seed,trials,pairs", [(13, 3000, 500), (223, 10_000, 1000)])
def test_inner_claim_cases(seed, trials, pairs):
    rng = np.random.default_rng(seed)
    got = [values for values, in draw_claim_values(rng, trials)]
    got += list(draw_dyadic_pairs(rng, pairs))
    assert_same_arrays(got, inner_claim_loop(np.random.default_rng(seed), trials, pairs))


@pytest.mark.parametrize("seed,trials", [(17, 400), (227, 1000), (109, 300)])
def test_lemma_cases(seed, trials):
    got = [rows for rows, in draw_lemma_cases(np.random.default_rng(seed), trials)]
    assert_same_arrays(got, lemma_loop(np.random.default_rng(seed), trials))


def test_stack_by_shape_keeps_every_case_once_in_order():
    cases = fano_loop(np.random.default_rng(11), 400)
    stacks = stack_by_shape(zip(cases, map(float, range(len(cases)))))
    assert sum(len(tables) for tables, _ in stacks) == len(cases)
    for tables, index in stacks:
        index = index.astype(int).tolist()
        assert index == sorted(index)
        assert_same_arrays(list(tables), [cases[i] for i in index])
