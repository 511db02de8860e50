"""Certifier tests: edge maps, separation constraints, lifts, and bounds.

Core claims:
    - edge_difference_map reproduces hand values and rejects expanding maps
    - average_edge_vector collapses to the closed form (checked against
      brute-force enumeration in the oracle tests)
    - constraint_lhs is exactly 1 for the identity embedding and, for any
      embedding, equals the embedded/original ratio of one antipodal pair
      (an independent route through completely different quantities)
    - a report's entries are built only when read, and certify, its text,
      the CSV table and the self test's identity check never build one;
      the table, written from the per-level arrays, equals the text built
      from the entries
    - the per-level vectorized constraint_report equals the per-prefix loop
      it replaced float for float, in (level, prefix, r) order, and
      constraint_lhs and the antipodal pair ratios of antipodal_pairs to
      rounding
    - the lift is a valid distribution, recovers exactly, never grows norms
    - dimension bounds reproduce independently computed values; the ceil
      guard rounds down within 1e-9 of an integer, and past float range
      min_dimension is an exact int no larger than the power it bounds
    - certificates are consistent for every valid embedding
    - after normalization no constraint value exceeds 1, on the identity
      and on seeded Gaussian maps, and on the identity the largest is 1
    - the map certify normalizes has full-depth edge L1 norms at most 1 and
      expansion 1, on the identity and on seeded Gaussian maps
    - the separation-to-information bound holds on random distribution
      tuples via the argmax predictor
    - the object build_graph returns is the point set that every layer
      takes, from the distortion pass to the P1 and L1EMB texts
"""

import itertools
import math

import numpy as np
import pytest

from l1cert import certifier
from l1cert.certifier import (
    MAX_BOUND_BITS,
    average_edge_vector,
    bound_for_distortion,
    certificate_to_text,
    certify,
    choose_k,
    constraint_lhs,
    constraint_report,
    constraint_table_csv,
    dimension_bound,
    edge_difference_map,
    nonneg_lift,
)
from l1cert.infotheory import (
    JointDistribution,
    ProbVector,
    binary_entropy,
    mutual_information,
)
from l1cert.l1metric import (
    DegenerateEmbeddingError,
    Embedding,
    distortion,
    embedding_from_text,
    embedding_to_text,
    identity_embedding,
    make_embedding,
    normalize_lipschitz,
    scale_embedding,
)
from l1cert.oracle import antipodal_pairs, lift_recover, predictor_success
from l1cert.pointset import CapacityError, GraphParams, build_graph, pointset_to_text
from l1cert.selftest import check_identity_constraints, check_lift, stack_by_shape


def test_build_graph_serves_every_layer():
    graph = build_graph(GraphParams(2, 3))
    emb = identity_embedding(graph)
    assert distortion(graph, emb).distortion == 1.0
    assert certify(graph, emb).consistent
    assert constraint_report(graph, emb).epsilon <= 1e-12
    assert edge_difference_map(graph, emb).shape == (4**3, 8)
    again = embedding_from_text(embedding_to_text(graph, emb), graph)
    assert again.graph is graph and np.array_equal(again.matrix, emb.matrix)
    assert pointset_to_text(graph).startswith(f"P1 k=2 n=3 N={len(graph)} dim=8\n")


class TestEdgeDifferenceMap:
    def test_depth_one_identity_values(self, pointsets):
        ps = pointsets(2, 1)
        # Row i is the edge with coordinate (i + 1,).
        diffs = edge_difference_map(ps, identity_embedding(ps))
        assert diffs.tolist() == [[0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]

    def test_constant_embedding_gives_zero_map(self, pointsets):
        ps = pointsets(2, 2)
        emb = make_embedding({a: [3.0, -1.0] for a in ps.vertices})
        diffs = edge_difference_map(ps, emb)
        assert diffs.shape == (16, 2) and np.all(diffs == 0.0)

    def test_norms_bounded_after_normalization(self, pointsets):
        ps = pointsets(2, 2)
        rng = np.random.default_rng(71)
        emb = normalize_lipschitz(
            ps, make_embedding({a: rng.standard_normal(3) for a in ps.vertices})
        )
        diffs = edge_difference_map(ps, emb)
        assert diffs.shape == (16, 3) and np.all(np.abs(diffs).sum(axis=1) <= 1.0 + 1e-9)

    def test_rejects_expanding_embedding(self, pointsets):
        ps = pointsets(2, 1)
        with pytest.raises(ValueError, match="normalize"):
            edge_difference_map(ps, scale_embedding(identity_embedding(ps), 2.0))


class TestAverageEdgeVector:
    def test_depth_two_prefix(self, pointsets):
        ps = pointsets(2, 2)
        avg = average_edge_vector(ps, identity_embedding(ps), (1,))
        assert avg.tolist() == [0.0, 0.0, 0.5, 0.5]

    def test_full_length_prefix_is_the_edge_difference(self, pointsets):
        ps = pointsets(2, 2)
        emb = identity_embedding(ps)
        diffs = edge_difference_map(ps, emb)
        coords = list(itertools.product(range(1, 5), repeat=2))  # lexicographic, as the rows
        assert len(diffs) == len(coords)
        for prefix, vec in zip(coords, diffs):
            assert np.array_equal(average_edge_vector(ps, emb, prefix), vec)

    def test_empty_prefix(self, pointsets):
        ps = pointsets(2, 2)
        avg = average_edge_vector(ps, identity_embedding(ps), ())
        assert np.allclose(avg, 0.25, atol=0)


class TestConstraintLhs:
    @pytest.mark.parametrize("k,n", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 2), (4, 3)])
    def test_identity_gives_exactly_one(self, pointsets, checker, k, n):
        check_identity_constraints(checker, pointsets(k, n))

    def test_constant_embedding_gives_zero(self, pointsets):
        ps = pointsets(2, 2)
        emb = make_embedding({a: [1.0, 1.0] for a in ps.vertices})
        assert constraint_lhs(ps, emb, (), 1) == 0.0

    def test_scaled_identity_scales_linearly(self, pointsets):
        ps = pointsets(3, 2)
        emb = scale_embedding(identity_embedding(ps), 0.9)
        for r in (1, 2):
            assert constraint_lhs(ps, emb, (), r) == pytest.approx(0.9, abs=1e-12)

    @pytest.mark.parametrize("k,n", [(2, 2), (3, 2)])
    def test_equals_antipodal_pair_ratio(self, pointsets, k, n):
        # Independent route: the constraint at (level, prefix, r) telescopes
        # to the embedded/original distance ratio of the antipodal pair at
        # cycle positions (r, r+k) of the cycle refining `prefix`.
        ps = pointsets(k, n)
        rng = np.random.default_rng(73)
        emb = make_embedding({a: rng.standard_normal(5) for a in ps.vertices})
        report = constraint_report(ps, emb)
        by_level = {}
        for level in range(1, n + 1):
            pairs = antipodal_pairs(ps, level)
            it = iter(pairs)
            by_level[level] = {
                idx: [next(it) for _ in range(k)]
                for idx in range((2 * k) ** (level - 1))
            }
        for entry in report.entries:
            idx = 0
            for c in entry.prefix:
                idx = idx * 2 * k + (c - 1)
            a, b = by_level[entry.level][idx][entry.r]
            embedded = float(np.abs(emb.vectors[a] - emb.vectors[b]).sum())
            original = float(k ** (n - entry.level + 1))
            assert entry.lhs == pytest.approx(embedded / original, abs=1e-9)

    def test_rejects_bad_level_and_split(self, pointsets):
        ps = pointsets(2, 2)
        emb = identity_embedding(ps)
        with pytest.raises(ValueError):
            constraint_lhs(ps, emb, (1, 1), 1)
        with pytest.raises(ValueError):
            constraint_lhs(ps, emb, (), 2)
        with pytest.raises(ValueError):
            constraint_lhs(ps, emb, (), 0)


class TestConstraintReport:
    def test_entry_count_and_epsilon_identity(self, pointsets):
        ps = pointsets(3, 2)
        report = constraint_report(ps, identity_embedding(ps))
        assert len(report.entries) == 14  # 1*2 at level 1 plus 6*2 at level 2
        assert report.epsilon <= 1e-12

    def test_entries_built_only_when_read(self, pointsets):
        ps = pointsets(2, 4)
        rng = np.random.default_rng(41)
        emb = make_embedding({a: rng.standard_normal(4) for a in ps.vertices})
        cert = certify(ps, emb)
        certificate_to_text(cert)
        assert "entries" not in cert.constraints.__dict__
        report = constraint_report(ps, emb)
        assert 0.0 <= report.epsilon <= 1.0
        assert "entries" not in report.__dict__
        assert len(report.entries) == 1 + 4 + 16 + 64
        assert "entries" in report.__dict__

    def test_certificate_makes_no_entry(self, pointsets, monkeypatch):
        def refuse(*args):
            raise AssertionError("a ConstraintEntry was built")

        monkeypatch.setattr(certifier, "ConstraintEntry", refuse)
        ps = pointsets(3, 3)
        rng = np.random.default_rng(43)
        cert = certify(ps, make_embedding({a: rng.standard_normal(4) for a in ps.vertices}))
        assert certificate_to_text(cert).startswith(f"epsilon={cert.epsilon!r}\n")

    def test_identity_check_makes_no_entry(self, pointsets, checker, monkeypatch):
        def refuse(*args):
            raise AssertionError("a ConstraintEntry was built")

        monkeypatch.setattr(certifier, "ConstraintEntry", refuse)
        check_identity_constraints(checker, pointsets(3, 3))

    def test_constant_embedding_epsilon_one(self, pointsets):
        ps = pointsets(2, 2)
        emb = make_embedding({a: [0.0] for a in ps.vertices})
        report = constraint_report(ps, emb)
        assert report.epsilon == 1.0

    def test_scaled_identity_epsilon(self, pointsets):
        ps = pointsets(2, 2)
        emb = scale_embedding(identity_embedding(ps), 0.9)
        report = constraint_report(ps, emb)
        assert report.epsilon == pytest.approx(0.1, abs=1e-9)

    def test_contraction_bound_implies_epsilon_bound(self, pointsets):
        # A 1-Lipschitz embedding whose pairwise contraction is at most
        # 1 - eps0 must measure a constraint slack epsilon <= eps0.
        ps = pointsets(2, 2)
        rng = np.random.default_rng(79)
        for _ in range(20):
            emb = normalize_lipschitz(
                ps, make_embedding({a: rng.standard_normal(4) for a in ps.vertices})
            )
            rep = distortion(ps, emb)
            eps0 = 1.0 - 1.0 / rep.contraction
            assert constraint_report(ps, emb).epsilon <= eps0 + 1e-9


def _per_prefix_report(graph, emb):
    """The per-prefix constraint loop constraint_report replaced, kept verbatim."""
    params = graph.params
    k, cyc = params.k, params.cycle_length
    entries = []
    for level in range(1, params.n + 1):
        for prefix in itertools.product(range(1, cyc + 1), repeat=level - 1):
            paired = [
                average_edge_vector(graph, emb, prefix + (b,))
                + average_edge_vector(graph, emb, prefix + (b + k,))
                for b in range(1, k + 1)
            ]
            total = sum(paired)
            partial = np.zeros_like(total)
            for r in range(1, k):
                partial = partial + paired[r - 1]
                lhs = float(np.abs(2 * partial - total).sum()) / (2 * k)
                entries.append((level, prefix, r, lhs))
    return entries


class TestConstraintReportEqualsReference:
    @pytest.mark.parametrize(
        "k,n,flip,d",
        [
            (2, 4, False, 1),
            (3, 3, True, 16),
            (4, 2, True, 5),
            (9, 2, True, 1),
            (9, 2, True, 16),
            (10, 2, True, 16),
            (10, 2, False, 1),
        ],
    )
    def test_every_entry_equals_the_per_prefix_loop(self, k, n, flip, d):
        graph = build_graph(GraphParams(k, n), flip_bottom=flip)
        rng = np.random.default_rng([k, n, d])
        emb = make_embedding({v: rng.standard_normal(d) for v in graph.vertices})
        report = constraint_report(graph, emb)
        reference = _per_prefix_report(graph, emb)
        assert [(e.level, e.prefix, e.r, e.lhs) for e in report.entries] == reference
        assert report.min_lhs == min(lhs for *_, lhs in reference)
        # constraint_lhs sums the two sides separately rather than forming
        # 2*partial - total, so it agrees to rounding, not to the last bit.
        for e in report.entries:
            assert e.lhs == pytest.approx(
                constraint_lhs(graph, emb, e.prefix, e.r), rel=1e-12, abs=1e-12
            )

    # d=5 maps, from one to three levels; (2, 1) and (3, 1) have a single cycle.
    @pytest.mark.parametrize("k,n", [(2, 4), (3, 3), (4, 3), (5, 2), (2, 1), (3, 1)])
    def test_every_entry_equals_its_antipodal_pair_ratio(self, k, n):
        # The paired edge sums telescope around each cycle: lhs(l, p, r) is
        # ||F(c_r) - F(c_{r+k})||_1 / k**(n-l+1) on prefix p's cycle, with
        # the pairs taken from the per-address reference antipodal_pairs.
        graph = build_graph(GraphParams(k, n))
        row = {v: i for i, v in enumerate(graph.vertices)}
        x = np.random.default_rng([k, n, 5]).standard_normal((len(row), 5))
        report = constraint_report(graph, Embedding(x, graph))
        for level, values in enumerate(report.lhs, start=1):
            pairs = np.array([(row[a], row[b]) for a, b in antipodal_pairs(graph, level)])
            # (cycle, r, end) for r = 1..k-1: pair r of each cycle is (c_r, c_{r+k}).
            ends = pairs.reshape(-1, k, 2)[:, 1:]
            want = np.abs(x[ends[..., 0]] - x[ends[..., 1]]).sum(axis=-1) / k ** (n - level + 1)
            np.testing.assert_allclose(values, want, rtol=0, atol=1e-12)


def _entries_table(report):
    """The CSV table as it was built from the report's ConstraintEntry objects."""
    lines = ["level,prefix,r,lhs"]
    for e in report.entries:
        prefix = ".".join(str(c) for c in e.prefix)
        lines.append(f"{e.level},{prefix},{e.r},{e.lhs!r}")
    return "\n".join(lines) + "\n"


class TestConstraintTable:
    # P(3, 5) and P(3, 6) have 3- and 4-digit prefixes past level 1, and
    # P(4, 3) has the two-digit coordinates 1..8 beside three split points.
    @pytest.mark.parametrize("k,n", [(2, 6), (3, 5), (4, 3), (3, 6)])
    def test_table_equals_the_entries_built_text(self, pointsets, k, n):
        ps = pointsets(k, n)
        rng = np.random.default_rng([k, n])
        emb = Embedding(rng.standard_normal((len(ps), 4)), ps)
        report = constraint_report(ps, emb)
        text = constraint_table_csv(report)
        assert "entries" not in report.__dict__
        assert text == _entries_table(report)


class TestLift:
    def test_example(self):
        lifted = nonneg_lift([0.5, -0.25])
        assert lifted.tolist() == [0.5, 0.0, 0.0, 0.25, 0.25]

    def test_zero_vector(self):
        lifted = nonneg_lift(np.zeros(3))
        assert lifted.tolist() == [0.0] * 6 + [1.0]

    def test_unit_norm_vector_has_zero_leftover(self):
        lifted = nonneg_lift([0.25, -0.75])
        assert lifted[-1] == pytest.approx(0.0, abs=1e-9)

    def test_rejects_large_norm(self):
        with pytest.raises(ValueError):
            nonneg_lift([0.8, 0.4])

    def test_recover_examples(self):
        assert lift_recover(np.array([1.0, 0, 0, 0, 0])).tolist() == [1.0, 0.0]
        assert lift_recover(nonneg_lift([0.5, -0.25])).tolist() == [0.5, -0.25]

    def test_recover_rejects_even_length(self):
        with pytest.raises(ValueError):
            lift_recover(np.zeros(4))

    def test_roundtrip_and_norm_properties(self, checker):
        rng = np.random.default_rng(83)
        vecs, ys = [], []
        for _ in range(2000):
            d = int(rng.integers(1, 7))
            vec = rng.uniform(-1, 1, size=d)
            norm = np.abs(vec).sum()
            if norm > 1:
                vec /= norm * 1.25
            vecs.append(vec)
            ys.append(rng.uniform(0, 2, size=2 * d + 1))
        for vec_stack, y_stack in stack_by_shape(zip(vecs, ys)):
            for row in check_lift(checker, vec_stack, y_stack):
                ProbVector(row)  # raises unless the lift is a distribution


class TestDimensionBound:
    def test_zero_slack_depth_ten(self):
        result = dimension_bound(2, 10, 0.0)
        assert result.raw_bound == pytest.approx(511.5, abs=1e-6)
        assert result.min_dimension == 512
        assert result.applicable

    def test_distortion_two_depth_twenty(self):
        result = bound_for_distortion(2, 20, 2.0)
        assert result.delta == pytest.approx(0.25, abs=1e-12)
        assert result.raw_bound == pytest.approx(6.34209203720093, abs=1e-6)
        assert result.min_dimension == 7

    def test_k_three_fractional_slack(self):
        result = dimension_bound(3, 4, 0.2)
        assert result.delta == pytest.approx(0.2, abs=1e-12)
        assert result.raw_bound == pytest.approx(2.6429898723159613, abs=1e-6)
        assert result.min_dimension == 3

    def test_vacuous_regimes(self):
        assert not dimension_bound(2, 4, 1.0).applicable
        assert dimension_bound(2, 4, 1.0).min_dimension == 1
        assert not bound_for_distortion(3, 9, 2.0).applicable

    def test_distortion_one_gives_half_power(self):
        for n in (1, 4, 9):
            result = bound_for_distortion(2, n, 1.0)
            assert result.raw_bound == pytest.approx(2.0 ** (n - 1) - 0.5, abs=1e-9)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            dimension_bound(1, 3, 0.0)
        with pytest.raises(ValueError):
            dimension_bound(2, 0, 0.0)
        with pytest.raises(ValueError):
            dimension_bound(2, 3, -0.1)
        with pytest.raises(ValueError):
            bound_for_distortion(2, 3, 0.5)

    @pytest.mark.parametrize("k,n,m", [(2, 10, 300), (3, 6, 41), (5, 3, 7)])
    def test_ceil_guard_rounds_down_within_a_billionth(self, k, n, m):
        # raw_bound falls with eps: bisect to the eps whose raw_bound sits
        # just above m, then just above m + 2e-9.
        def eps_just_above(target):
            lo, hi = 0.0, 1.0 / (k - 1)
            for _ in range(200):
                mid = (lo + hi) / 2
                if dimension_bound(k, n, mid).raw_bound > target:
                    lo = mid
                else:
                    hi = mid
            return lo

        near = dimension_bound(k, n, eps_just_above(m))
        assert m < near.raw_bound <= m + 1e-9
        assert near.min_dimension == m
        far = dimension_bound(k, n, eps_just_above(m + 2e-9))
        assert m + 1e-9 < far.raw_bound < m + 1e-6
        assert far.min_dimension == m + 1

    def test_past_float_range_is_exact_and_rounded_down(self):
        # 2**(n-1) overflows a float from n = 1025 on.
        last = dimension_bound(2, 1024, 0.0)
        assert last.raw_bound == 2.0**1023 and last.min_dimension == 2**1023
        for n in (1025, 2000):
            result = dimension_bound(2, n, 0.0)
            assert result.applicable and result.raw_bound == math.inf
            assert result.min_dimension == 2 ** (n - 1)
        result = dimension_bound(3, 700, 0.01)
        assert result.applicable and result.raw_bound == math.inf
        exponent = result.per_level_term * 700 - 1.0
        whole = math.floor(exponent)
        m = result.min_dimension
        assert isinstance(m, int) and m.bit_length() == whole + 1
        assert m % 2 ** (whole - 52) == 0
        # m / 2**whole is a float's fraction bits, at most 2**(exponent - whole).
        assert m / 2**whole < 2.0 ** (exponent - whole)

    def test_exponent_past_the_cap_is_capacity_error(self):
        assert dimension_bound(2, MAX_BOUND_BITS + 1, 0.0).min_dimension == 2**MAX_BOUND_BITS
        with pytest.raises(CapacityError, match="exceeds"):
            dimension_bound(2, MAX_BOUND_BITS + 2, 0.0)

    def test_rejects_nan_and_keeps_inf_vacuous(self):
        with pytest.raises(ValueError, match="epsilon must be a number >= 0"):
            dimension_bound(2, 3, math.nan)
        with pytest.raises(ValueError, match="distortion must be a number >= 1"):
            bound_for_distortion(2, 3, math.nan)
        assert not dimension_bound(2, 3, math.inf).applicable
        assert not bound_for_distortion(2, 3, math.inf).applicable


class TestChooseK:
    def test_values(self):
        assert choose_k(0.1) == 3
        assert choose_k(0.25) == 2

    def test_boundaries_rejected(self):
        for eps in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(ValueError):
                choose_k(eps)


class TestPredictorSuccess:
    def test_disjoint_supports(self):
        predictor, success = predictor_success([ProbVector([1, 0]), ProbVector([0, 1])])
        assert predictor.tolist() == [0, 1]
        assert success == 1.0

    def test_identical_distributions(self):
        _, success = predictor_success([ProbVector([0.5, 0.5])] * 2)
        assert success == 0.5

    def test_mixed(self):
        _, success = predictor_success([ProbVector([0.8, 0.2]), ProbVector([0.3, 0.7])])
        assert success == pytest.approx(0.75, abs=1e-12)

    def test_ties_to_smallest_index(self):
        predictor, _ = predictor_success([ProbVector([0.5, 0.5]), ProbVector([0.5, 0.5])])
        assert predictor.tolist() == [0, 0]

    def test_rejects_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            predictor_success([ProbVector([1.0]), ProbVector([0.5, 0.5])])


# The normalization checks certify the identity (d None) and seeded
# Gaussian maps of these dimensions at these sizes.
NORMALIZED_SIZES = [(2, 3), (2, 5), (3, 3), (4, 2)]
NORMALIZED_DIMS = [None, 1, 2, 8, 16]


def identity_or_gaussian(ps, d):
    if d is None:
        return identity_embedding(ps)
    k, n = ps.params.k, ps.params.n
    return Embedding(np.random.default_rng([k, n, d]).standard_normal((len(ps), d)), ps)


class TestCertify:
    def test_identity_depth_three(self, pointsets):
        ps = pointsets(2, 3)
        cert = certify(ps, identity_embedding(ps))
        assert cert.epsilon <= 1e-12
        assert cert.bound.min_dimension == 4
        assert cert.embedding_dimension == 8
        assert cert.consistent

    def test_identity_k_three(self, pointsets):
        ps = pointsets(3, 2)
        cert = certify(ps, identity_embedding(ps))
        assert cert.bound.min_dimension == 4
        assert cert.consistent

    def test_unnormalized_input_is_normalized_internally(self, pointsets):
        ps = pointsets(2, 2)
        cert = certify(ps, scale_embedding(identity_embedding(ps), 7.5))
        assert cert.epsilon <= 1e-9
        assert cert.consistent

    def test_degenerate_embedding_rejected(self, pointsets):
        ps = pointsets(2, 1)
        emb = make_embedding({a: [1.0, 0.0] for a in ps.vertices})
        with pytest.raises(DegenerateEmbeddingError):
            certify(ps, emb)

    def test_degenerate_embedding_rejected_with_a_measured_report(self, pointsets):
        ps = pointsets(2, 1)
        emb = make_embedding({a: [1.0, 0.0] for a in ps.vertices})
        with pytest.raises(DegenerateEmbeddingError):
            certify(ps, emb, report=distortion(ps, emb))

    def test_a_measured_report_is_not_measured_again(self, pointsets, monkeypatch):
        ps = pointsets(2, 3)
        emb = Embedding(np.random.default_rng(3).standard_normal((len(ps), 4)), ps)
        want = certify(ps, emb)
        report = distortion(ps, emb)
        monkeypatch.setattr(certifier, "distortion", None)
        got = certify(ps, emb, report=report)
        assert certificate_to_text(got) == certificate_to_text(want)
        assert constraint_table_csv(got.constraints) == constraint_table_csv(want.constraints)

    @pytest.mark.parametrize("k, n", NORMALIZED_SIZES)
    @pytest.mark.parametrize("d", NORMALIZED_DIMS)
    def test_normalized_constraints_never_exceed_one(self, pointsets, k, n, d):
        # Each lhs is an antipodal pair's embedded over label distance divided
        # by the expansion, so none exceeds 1, and on the identity (d None),
        # an isometry, the largest is 1: a wrong normalization scale fails
        # here without any byte pin.
        ps = pointsets(k, n)
        emb = identity_or_gaussian(ps, d)
        largest = max(float(values.max()) for values in certify(ps, emb).constraints.lhs)
        assert largest <= 1.0 + 1e-12
        if d is None:
            assert abs(largest - 1.0) <= 1e-12

    @pytest.mark.parametrize("k, n", NORMALIZED_SIZES)
    @pytest.mark.parametrize("d", NORMALIZED_DIMS)
    def test_the_normalized_map_has_unit_edges_and_expansion(self, pointsets, monkeypatch, k, n, d):
        # The lemma needs every full-depth edge's L1 norm at most 1, and
        # dividing by the expansion makes the map's expansion 1: both are
        # read off the map that certify hands to constraint_report.
        ps = pointsets(k, n)
        normalized = []
        report = certifier.constraint_report

        def capture(graph, emb):
            normalized.append(emb)
            return report(graph, emb)

        monkeypatch.setattr(certifier, "constraint_report", capture)
        certify(ps, identity_or_gaussian(ps, d))
        [emb] = normalized
        tails, heads = ps.level_edges[-1]
        edge_norms = np.abs(emb.matrix[tails] - emb.matrix[heads]).sum(axis=1)
        assert float(edge_norms.max()) <= 1.0 + 1e-12
        assert abs(distortion(ps, emb).expansion - 1.0) <= 1e-12

    def test_random_embeddings_always_consistent(self, pointsets):
        ps = pointsets(2, 2)
        rng = np.random.default_rng(89)
        for _ in range(25):
            d = int(rng.integers(1, 6))
            emb = make_embedding({a: rng.standard_normal(d) for a in ps.vertices})
            assert certify(ps, emb).consistent

    def test_address_order_of_the_mapping_does_not_matter(self, pointsets):
        ps = pointsets(2, 3)
        rows = np.random.default_rng(5).standard_normal((len(ps), 4))
        canonical = make_embedding(dict(zip(ps.vertices, rows)))
        backwards = make_embedding(dict(zip(ps.vertices[::-1], rows[::-1])))
        assert np.array_equal(backwards.matrix, rows)
        want, got = certify(ps, canonical), certify(ps, backwards)
        assert certificate_to_text(got) == certificate_to_text(want)
        assert constraint_table_csv(got.constraints) == constraint_table_csv(want.constraints)
        assert embedding_to_text(ps, backwards) == embedding_to_text(ps, canonical)


class TestSeparationInformationBound:
    def test_random_tuples(self):
        # k conditional distributions with measured worst prefix-split
        # separation 1 - eps; when delta = (k-1)*eps/2 < 1/2 the exact
        # mutual information must clear log2(k) - delta*log2(k-1) - H(delta).
        rng = np.random.default_rng(97)
        applicable = 0
        for trial in range(300):
            k = 2 + trial % 4
            d = int(rng.integers(k, 9))
            rows = rng.exponential(size=(k, d))
            rows /= rows.sum(axis=1, keepdims=True)
            if rng.uniform() < 0.7:
                targets = rng.permutation(d)[:k]
                sharp = np.zeros((k, d))
                for a in range(k):
                    sharp[a, targets[a]] = 1.0
                lam = rng.uniform(0.0, 0.5)
                rows = (1 - lam) * sharp + lam * rows
            prefix = np.cumsum(rows, axis=0)[:-1]
            separation = float(
                np.abs(2 * prefix - rows.sum(axis=0)).sum(axis=1).min() / k
            )
            delta = (k - 1) * (1.0 - separation) / 2.0
            if delta >= 0.5:
                continue
            applicable += 1
            joint = JointDistribution((k, d), rows / k)
            log_km1 = 0.0 if k == 2 else math.log2(k - 1)
            bound = math.log2(k) - delta * log_km1 - binary_entropy(delta)
            assert mutual_information(joint, 0, 1) >= bound - 1e-9
        assert applicable >= 60
