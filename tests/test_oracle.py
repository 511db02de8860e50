"""Oracle tests: brute-force references, inequality checks, and the searcher.

Core claims:
    - brute_force_average agrees with the closed-form average everywhere
    - max_claim_gap satisfies lhs <= rhs, with exact equality at k=2
    - lemma_check holds on every random trial (and flags vacuous regimes)
    - search_embedding is deterministic per seed, finds near-isometries
      when the label dimension is available, and never produces an
      inconsistent certificate
    - the incremental search is bit-for-bit the full-recompute search,
      on both sides of each summation branch of the kernel (d = 7, 8, ...)
      and up to N=684, including the jitter of coincident pairs and the
      final split, in natural and in permuted plane order (d >= 8)
    - build_message_joint has an exactly uniform source marginal and
      reproduces the hand-computed information values
"""

import math

import numpy as np
import pytest

from l1cert.infotheory import mutual_information
from l1cert.l1metric import distortion, identity_embedding, make_embedding, pairwise_l1
from l1cert.oracle import (
    STEP_SCALE,
    SearchConfig,
    SearchResult,
    brute_force_average,
    build_message_joint,
    lemma_check,
    max_claim_gap,
    search_embedding,
)
from l1cert.pointset import CapacityError
from l1cert.selftest import (
    check_averaging,
    check_chain_per_level,
    check_end_to_end,
    check_inner_claim,
    check_lemma,
    draw_dyadic_pairs,
    draw_lemma_cases,
    stack_by_shape,
)


class TestBruteForceAverage:
    def test_full_prefix_is_the_edge_difference(self, pointsets):
        ps = pointsets(2, 2)
        emb = identity_embedding(ps)
        for coords, (tail, head) in ps.graph.edges.items():
            want = emb.vectors[head] - emb.vectors[tail]
            assert np.array_equal(brute_force_average(ps.graph, emb, coords), want)

    def test_depth_two_example(self, pointsets):
        ps = pointsets(2, 2)
        avg = brute_force_average(ps.graph, identity_embedding(ps), (1,))
        assert avg.tolist() == [0.0, 0.0, 0.5, 0.5]

    @pytest.mark.parametrize("k,n", [(2, 3), (3, 2), (3, 3)])
    def test_matches_closed_form_on_all_prefixes(self, pointsets, checker, k, n):
        ps = pointsets(k, n)
        rng = np.random.default_rng(101)
        emb = make_embedding({a: rng.standard_normal(3) for a in ps.addresses})
        check_averaging(checker, ps.graph, emb)

    def test_completion_cap(self, pointsets, monkeypatch):
        monkeypatch.setattr("l1cert.oracle.MAX_COMPLETIONS", 10)
        ps = pointsets(2, 2)
        emb = identity_embedding(ps)
        with pytest.raises(CapacityError):
            brute_force_average(ps.graph, emb, ())


class TestMaxClaimGap:
    def test_example(self):
        lhs, rhs = max_claim_gap([0.5, 0.3, 0.2])
        assert lhs == pytest.approx(0.5, abs=1e-15)
        assert rhs == pytest.approx(0.7, abs=1e-15)

    def test_point_mass(self):
        assert max_claim_gap([1.0, 0.0, 0.0]) == (0.0, 0.0)

    def test_two_entries_collapse_to_min(self, checker):
        rng = np.random.default_rng(103)
        # Dyadic entries keep every float operation exact.
        pairs = draw_dyadic_pairs(rng, 500)
        lhs, _ = check_inner_claim(checker, pairs, exact=True)
        assert np.array_equal(lhs, pairs.min(axis=1))

    def test_inequality_random(self, checker):
        rng = np.random.default_rng(107)
        values = [(rng.uniform(0, 5, size=2 + trial % 7),) for trial in range(2000)]
        for stack, in stack_by_shape(values):
            check_inner_claim(checker, stack)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            max_claim_gap([0.5, -0.1])


class TestLemmaCheck:
    def test_perfectly_separated(self):
        report = lemma_check([[1, 0], [0, 1], [1, 0], [0, 1]])
        assert report.epsilon == pytest.approx(0.0, abs=1e-12)
        assert report.mi_folded == pytest.approx(1.0, abs=1e-9)
        assert report.applicable and report.holds

    def test_identical_distributions_are_vacuous(self):
        report = lemma_check([[0.5, 0.5]] * 4)
        assert report.epsilon == pytest.approx(1.0, abs=1e-12)
        assert report.delta >= 0.5
        assert not report.applicable
        assert report.holds  # only the data-processing check applies

    def test_random_trials_hold(self, checker):
        rng = np.random.default_rng(109)
        stacks = stack_by_shape(draw_lemma_cases(rng, 300))
        applicable = sum(check_lemma(checker, tables) for tables, in stacks)
        assert applicable >= 60

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            lemma_check([[1.0, 0.0]] * 3)
        with pytest.raises(ValueError):
            lemma_check([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError):
            lemma_check([[1.0, 0.0]] * 14)  # k = 7 > 6


class TestSearchEmbedding:
    def test_deterministic_per_seed(self, pointsets):
        ps = pointsets(2, 2)
        cfg = SearchConfig(target_dimension=3, iterations=300, restarts=2, seed=5)
        first = search_embedding(ps, cfg)
        second = search_embedding(ps, cfg)
        for addr in ps.addresses:
            assert np.array_equal(
                first.embedding.vectors[addr], second.embedding.vectors[addr]
            )
        assert first.report.distortion == second.report.distortion

    def test_finds_isometry_depth_one(self, pointsets):
        # Four points whose labels live in the plane: distortion 1 reachable.
        ps = pointsets(2, 1)
        cfg = SearchConfig(target_dimension=2, iterations=4000, restarts=6, seed=0)
        result = search_embedding(ps, cfg)
        assert result.report.distortion == pytest.approx(1.0, abs=1e-6)

    def test_finds_isometry_depth_two(self, pointsets):
        ps = pointsets(2, 2)
        cfg = SearchConfig(target_dimension=4, iterations=4000, restarts=6, seed=0)
        result = search_embedding(ps, cfg)
        assert result.report.distortion == pytest.approx(1.0, abs=1e-6)

    def test_certificates_always_consistent(self, pointsets, checker):
        ps = pointsets(2, 2)
        for d in (1, 3):
            for seed in (0, 1):
                cfg = SearchConfig(target_dimension=d, iterations=300, restarts=2, seed=seed)
                check_end_to_end(checker, ps, cfg)


def _full_recompute_search(ps, cfg):
    """Reference search: every step recomputes all N**2 distances and log ratios."""
    n = len(ps)
    if n > 2000:
        raise CapacityError(f"point set with {n} points too large for the searcher")
    d = cfg.target_dimension
    original = ps.distance_matrix.astype(float)
    np.fill_diagonal(original, 1.0)  # placeholder; diagonal is masked out below
    scale = float(original[np.triu_indices(n, 1)].mean())
    eye = np.eye(n, dtype=bool)

    best = None
    for restart in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed + restart)
        points = rng.standard_normal((n, d)) * (scale / (2.0 * d))
        for t in range(1, cfg.iterations + 1):
            embedded = pairwise_l1(points)
            with np.errstate(divide="ignore"):
                violation = np.abs(np.log(np.maximum(embedded, 1e-300)) - np.log(original))
            violation[eye] = -math.inf
            i, j = np.unravel_index(int(np.argmax(violation)), violation.shape)
            diff = points[i] - points[j]
            dist = float(np.abs(diff).sum())
            if dist < 1e-12:
                points[i] = points[i] + rng.standard_normal(d) * (1e-6 * scale)
                continue
            direction = np.sign(diff)
            moving = int(np.count_nonzero(direction))
            residual = dist - original[i, j]
            step = min(1.0, STEP_SCALE / math.sqrt(t)) * residual / (2.0 * moving)
            points[i] -= step * direction
            points[j] += step * direction

        embedded = pairwise_l1(points)
        offdiag = embedded[~eye]
        if np.any(offdiag == 0.0):
            # Split coincident points so the result is a genuine embedding.
            for i in range(n):
                for j in range(i + 1, n):
                    if embedded[i, j] == 0.0:
                        points[j] = points[j] + rng.standard_normal(d) * (1e-9 * scale)
        emb = make_embedding({addr: points[idx] for idx, addr in enumerate(ps.addresses)})
        report = distortion(ps, emb)
        if best is None or report.distortion < best.report.distortion:
            best = SearchResult(emb, report, restart)
    return best


_REAL_DEFAULT_RNG = np.random.default_rng


class _CountingGenerator:
    """A seeded generator that counts single-point draws (jitters and splits).

    With `snap`, the starting point matrix is rounded to integers, so many
    points start (and, after few steps, stay) coincident. With `twin`,
    each odd point starts where the point before it does, so the first
    steps are jitters and the pairs no step reaches are split at the end.
    """

    def __init__(self, seed, snap, twin, counts):
        self._rng = _REAL_DEFAULT_RNG(seed)
        self._snap = snap
        self._twin = twin
        self._counts = counts

    def standard_normal(self, size):
        draw = self._rng.standard_normal(size)
        if np.ndim(draw) == 1:
            self._counts.append(size)
        elif self._snap:
            draw = np.round(draw)
        elif self._twin:
            draw[1::2] = draw[: len(draw) // 2 * 2 : 2]
        return draw


def _counting_rng(monkeypatch, snap=False, twin=False):
    counts = []
    monkeypatch.setattr(
        np.random, "default_rng", lambda seed: _CountingGenerator(seed, snap, twin, counts)
    )
    return counts


def _assert_identical(ps, got, want):
    assert got.restart == want.restart
    assert got.report == want.report
    for addr in ps.addresses:
        assert np.array_equal(got.embedding.vectors[addr], want.embedding.vectors[addr])


class TestIncrementalSearch:
    @pytest.mark.parametrize("k,n", [(2, 1), (2, 2), (3, 2), (2, 3)])
    # numpy sums under 8 terms in sequence, 8 to 128 as eight stride-8
    # partial sums plus a tail, and more as two halves; the per-step (2, N)
    # row sums and the pair distance read from them must match the
    # reference's all-pairs and per-pair sums bit for bit in every branch.
    @pytest.mark.parametrize("d", [1, 2, 5, 7, 8, 9, 16, 130])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_matches_full_recompute(self, pointsets, k, n, d, seed):
        ps = pointsets(k, n)
        cfg = SearchConfig(target_dimension=d, iterations=300, restarts=2, seed=seed)
        _assert_identical(ps, search_embedding(ps, cfg), _full_recompute_search(ps, cfg))

    def test_matches_full_recompute_depth_four(self, pointsets):
        ps = pointsets(2, 4)
        cfg = SearchConfig(target_dimension=8, iterations=40, restarts=2, seed=11)
        _assert_identical(ps, search_embedding(ps, cfg), _full_recompute_search(ps, cfg))

    def test_matches_full_recompute_depth_five(self, pointsets):
        # N=684: the largest point set the tests search.
        ps = pointsets(2, 5)
        cfg = SearchConfig(target_dimension=8, iterations=20, restarts=2, seed=2)
        _assert_identical(ps, search_embedding(ps, cfg), _full_recompute_search(ps, cfg))

    @pytest.mark.parametrize("k,n", [(2, 1), (2, 2)])
    def test_matches_full_recompute_through_coincident_jitter(
        self, pointsets, monkeypatch, k, n
    ):
        # At d=1 the search drives pairs onto each other and takes the
        # dist < 1e-12 branch, which moves point i alone.
        ps = pointsets(k, n)
        cfg = SearchConfig(target_dimension=1, iterations=300, restarts=2, seed=0)
        counts = _counting_rng(monkeypatch)
        want = _full_recompute_search(ps, cfg)
        assert counts, "the reference never took the coincident branch"
        _assert_identical(ps, search_embedding(ps, cfg), want)

    # From d = 8 on the search stores its planes in _plane_order, so a
    # draw made in natural order is stored permuted; at 17 the last plane
    # is outside the reversed groups. Six pairs start coincident, so the
    # worst pair of each of the three steps is one of them (a jitter), and
    # the other three are split at the end.
    @pytest.mark.parametrize("d", [8, 17])
    def test_matches_full_recompute_through_jitter_in_plane_order(
        self, pointsets, monkeypatch, d
    ):
        ps = pointsets(2, 2)
        assert len(ps) == 12
        cfg = SearchConfig(target_dimension=d, iterations=3, restarts=2, seed=4)
        counts = _counting_rng(monkeypatch, twin=True)
        want = _full_recompute_search(ps, cfg)
        assert len(counts) == 6 * cfg.restarts
        _assert_identical(ps, search_embedding(ps, cfg), want)

    @pytest.mark.parametrize("k,n,d", [(2, 2, 1), (2, 3, 2), (3, 2, 1)])
    def test_matches_full_recompute_through_final_split(
        self, pointsets, monkeypatch, k, n, d
    ):
        ps = pointsets(k, n)
        cfg = SearchConfig(target_dimension=d, iterations=3, restarts=2, seed=1)
        counts = _counting_rng(monkeypatch, snap=True)
        want = _full_recompute_search(ps, cfg)
        # At most one single-point draw per step; any more are split draws.
        assert len(counts) > cfg.iterations * cfg.restarts
        reference_draws = len(counts)
        got = search_embedding(ps, cfg)
        assert len(counts) == 2 * reference_draws
        _assert_identical(ps, got, want)
        assert math.isfinite(got.report.distortion)


class TestMessageJoint:
    def test_constant_embedding_carries_no_information(self, pointsets):
        ps = pointsets(2, 1)
        emb = make_embedding({a: [0.25, 0.25] for a in ps.addresses})
        joint = build_message_joint(ps.graph, emb)
        assert abs(mutual_information(joint, 0, 1)) <= 1e-9

    def test_identity_depth_one_information(self, pointsets):
        ps = pointsets(2, 1)
        joint = build_message_joint(ps.graph, identity_embedding(ps))
        assert mutual_information(joint, 0, 1) >= 1.0 - 1e-9

    def test_source_marginal_exactly_uniform(self, pointsets):
        ps = pointsets(2, 2)
        joint = build_message_joint(ps.graph, identity_embedding(ps))
        marginal = joint.marginal((0, 1))
        assert np.abs(marginal - 1.0 / 16.0).max() <= 1e-12

    def test_chain_terms_at_least_one_each(self, pointsets, checker):
        for n in (1, 2):
            ps = pointsets(2, n)
            terms = check_chain_per_level(checker, ps.graph, identity_embedding(ps))
            assert len(terms) == n

    def test_capacity_cap(self, pointsets, monkeypatch):
        monkeypatch.setattr("l1cert.infotheory.MAX_TABLE_CELLS", 100)
        ps = pointsets(2, 2)
        with pytest.raises(CapacityError, match="^message joint with 144 cells exceeds 100$"):
            build_message_joint(ps.graph, identity_embedding(ps))
