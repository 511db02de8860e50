"""Distance, distortion, and embedding-format tests.

Core claims:
    - l1_interval_distance equals the dense symmetric-difference oracle
      and satisfies the triangle inequality
    - the identity embedding is an exact isometry (all ratios exactly 1),
      and its rows, unpacked from the packed labels, are the reference
      labels' dense rows
    - distortion is scale invariant; normalize_lipschitz brings expansion
      to 1, preserves distortion, and is idempotent
    - degenerate embeddings are flagged with infinite contraction
    - the half-square pairwise pass and the streaming distortion pass
      equal the naive full-square formulas exactly, and warn about nothing;
      _plane_order is a permutation and its own inverse, and _sum_planes
      over planes in that order equals numpy's contiguous sum, into `out`
      as well
    - the streaming distortion pass equals a fold over the full matrices
      field for field at any block size, holds no N x N matrix, and
      certify builds neither the label distance matrix nor pairwise_l1
    - its float32 screen skips nine tiles in ten of a Gaussian P(2,6),
      d=16, screens an exact isometry in the first strip only, redoes the
      tiles of tied lowest ratios in a later strip, and is not set up for
      inputs float32 cannot bound (tests/test_distortion_properties.py
      stresses its margin); its tiles, up to twice as tall as the float64
      ones, fit the float64 buffer at any size with their label words in
      BLOCK_ELEMENTS, so the traced peak is the buffer and one tile's
      temporaries, and a kept one is folded exactly through both halves,
      with no fold where a half holds no pair i < j
    - the L1EMB format round-trips and parses strictly, accepting valid
      non-canonical address spellings
    - a canonical L1EMB file is read by one np.loadtxt parse into one
      read-only matrix that equals a per-line float() reference bit for
      bit; a block of any other width is refused without a warning, and
      any other file gets the per-line reader's exact message and line
      number
    - an Embedding is one read-only float64 (N, d >= 1) matrix in its
      graph's export order, so a float32 or int matrix certifies as its
      own L1EMB text; scaling keeps the finiteness check, every consumer
      rejects an embedding of another P(k, n) with ValueError, and parse,
      certify, tabulate and search never build the per-address view; rows
      named by a graph build no address until `vectors` is read
    - make_embedding stacks a mapping in any order into export order and
      rejects one that misses a vertex or names a foreign one
"""

import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from conftest import full_matrix_report, naive_pairwise, reference_labels
from l1cert import l1metric, pointset
from l1cert.certifier import (
    certificate_to_text,
    certify,
    constraint_report,
    constraint_table_csv,
    edge_difference_map,
)
from l1cert.l1metric import (
    DegenerateEmbeddingError,
    DistortionReport,
    Embedding,
    distortion,
    embedding_from_text,
    embedding_to_text,
    identity_embedding,
    l1_interval_distance,
    make_embedding,
    normalize_lipschitz,
    pairwise_l1,
    scale_embedding,
    vertex_matrix,
)
from l1cert.oracle import SearchConfig, search_embedding
from l1cert.pointset import (
    FormatError,
    GraphParams,
    IntervalLabel,
    PointSet,
    build_graph,
    point_set,
)


def ones_set(label):
    return {i for a, b in label.intervals for i in range(a, b)}


def random_label(rng, length):
    bits = rng.integers(0, 2, size=length)
    return IntervalLabel.make(length, [(i, i + 1) for i in range(length) if bits[i]])


class TestIntervalDistance:
    def test_opposite_two_bit_labels(self):
        a = IntervalLabel.make(2, [(1, 2)])
        b = IntervalLabel.make(2, [(0, 1)])
        assert l1_interval_distance(a, b) == 2

    def test_self_distance_zero(self, pointsets):
        ps = pointsets(3, 2)
        for label in reference_labels(ps):
            assert l1_interval_distance(label, label) == 0

    def test_root_left_to_adjacent_vertex(self, pointsets):
        # In the (3, 2) graph the full-depth edge (1, 1), the first one,
        # leaves the left root.
        ps = pointsets(3, 2)
        tails, heads = ps.graph.level_edges[-1]
        tail, head = int(tails[0]), int(heads[0])
        assert ps.graph.vertices[tail] == "L"
        labels = reference_labels(ps)
        assert l1_interval_distance(labels[tail], labels[head]) == 1

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            length = int(rng.integers(1, 40))
            a, b = random_label(rng, length), random_label(rng, length)
            assert l1_interval_distance(a, b) == len(ones_set(a) ^ ones_set(b))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            length = int(rng.integers(1, 25))
            a, b, c = (random_label(rng, length) for _ in range(3))
            assert l1_interval_distance(a, c) <= (
                l1_interval_distance(a, b) + l1_interval_distance(b, c)
            )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            l1_interval_distance(IntervalLabel.make(2, []), IntervalLabel.make(3, []))


class TestDistortion:
    def test_identity_is_exact_isometry(self, pointsets):
        for k, n in [(2, 2), (3, 2), (2, 3)]:
            ps = pointsets(k, n)
            report = distortion(ps, identity_embedding(ps))
            assert report.expansion == 1.0
            assert report.contraction == 1.0
            assert report.distortion == 1.0

    # (3, 4) has 81-bit labels, two words per row; (4, 3) exactly one word.
    @pytest.mark.parametrize("k,n", [(2, 1), (2, 3), (3, 2), (3, 4), (4, 3), (2, 6), (5, 2)])
    def test_identity_rows_are_the_reference_labels(self, pointsets, k, n):
        ps = pointsets(k, n)
        want = np.stack([label.to_dense() for label in reference_labels(ps)])
        got = identity_embedding(ps).matrix
        assert got.dtype == np.float64
        assert np.array_equal(got, want)

    def test_scaled_identity_still_distortion_one(self, pointsets):
        ps = pointsets(2, 2)
        report = distortion(ps, scale_embedding(identity_embedding(ps), 0.5))
        assert report.distortion == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance_of_product(self, pointsets):
        ps = pointsets(2, 2)
        rng = np.random.default_rng(7)
        emb = make_embedding({a: rng.standard_normal(3) for a in ps.addresses})
        base = distortion(ps, emb).distortion
        for s in (0.01, 0.7, 19.0):
            scaled = distortion(ps, scale_embedding(emb, s)).distortion
            assert scaled == pytest.approx(base, abs=1e-9 * base)

    def test_all_zero_flags_infinite_contraction(self, pointsets):
        ps = pointsets(2, 1)
        emb = make_embedding({a: [0.0, 0.0] for a in ps.addresses})
        report = distortion(ps, emb)
        assert math.isinf(report.contraction)
        assert math.isinf(report.distortion)

    def test_missing_vertex_rejected(self, pointsets):
        ps = pointsets(2, 2)
        with pytest.raises(ValueError, match="^embedding does not cover 1 vertices"):
            make_embedding({a: [1.0] for a in ps.addresses[:-1]})
        # A name of P(3, 2), junk, a non-canonical spelling and non-strings.
        for foreign in ("5/1", "x/1", "01/1", "1/01", "/+1", "L ", 7, ("1/1",)):
            with pytest.raises(ValueError) as info:
                make_embedding({a: [1.0] for a in (*ps.addresses, foreign)})
            assert str(info.value) == (
                f"embedding names 1 vertices outside P(2, 2), e.g. {foreign}"
            )
        # With no canonical inner name there is no graph to name them against.
        with pytest.raises(ValueError, match="^embedding must cover at least one inner vertex$"):
            make_embedding({"L": [0.0], "R": [1.0], "x/1": [0.5], "01/1": [0.5], 7: [0.5]})
        smaller = make_embedding({a: [1.0] for a in ps.addresses})
        larger = pointsets(2, 3)
        for consumer in (
            lambda: distortion(larger, smaller),
            lambda: constraint_report(larger.graph, smaller),
            lambda: edge_difference_map(larger.graph, smaller),
            lambda: certify(larger, smaller),
            lambda: embedding_to_text(larger, smaller),
        ):
            with pytest.raises(ValueError, match="^embedding is for k=2 n=2, graph has k=2 n=3$"):
                consumer()


def dense_distortion(ps, emb):
    """The full-square triu_indices formula over dense 0/1 labels."""
    points = np.stack([emb.vectors[a] for a in ps.addresses])
    bits = np.stack([label.to_dense() for label in reference_labels(ps)])
    report = full_matrix_report(points, naive_pairwise(bits))
    return report.expansion, report.contraction, report.distortion


def spread_points(d, rows=9):
    """Gaussian points scaled over e**+-18, so that sums in different orders round differently."""
    rng = np.random.default_rng(d)
    return rng.standard_normal((rows, d)) * np.exp(rng.uniform(-18.0, 18.0, (rows, d)))


# d across numpy's summation branches: in sequence below 8, eight partial
# sums up to 128, two halves split at a multiple of 8 above.
KERNEL_DEPTHS = [*range(1, 18), 63, 64, 65, 127, 128, 129, 130, 255, 256, 257, 1000]


class TestFastPaths:
    @pytest.mark.parametrize("d", KERNEL_DEPTHS)
    def test_tiles_sum_in_numpy_order_bit_for_bit(self, d):
        points = spread_points(d)
        got, want = pairwise_l1(points), naive_pairwise(points)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("d", [*range(1, 18), *range(127, 132)])
    def test_sum_planes_equals_numpy_sum_of_a_contiguous_axis(self, d):
        # Magnitudes over 1e-5..1e5, so that sums in different orders
        # round differently. The reference sums each entry's d terms laid
        # out contiguously: a strided axis (np.moveaxis alone) numpy sums
        # in sequence.
        rng = np.random.default_rng(d)
        x = 10.0 ** rng.uniform(-5.0, 5.0, (d, 3, 40))
        want = np.ascontiguousarray(np.moveaxis(x, 0, -1)).sum(-1)
        got = l1metric._sum_planes(x[l1metric._plane_order(d)])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_plane_order_is_its_own_inverse(self):
        for d in range(1, 301):
            order = l1metric._plane_order(d)
            assert sorted(order) == list(range(d)), d
            assert np.array_equal(order[order], np.arange(d)), d
            assert np.array_equal(order, np.arange(d)) == (d < 8), d
        want = [0, 4, 2, 6, 1, 5, 3, 7, 8, 12, 10, 14, 9, 13, 11, 15, 16]
        assert l1metric._plane_order(17).tolist() == want

    @pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 16, 130, 131])
    def test_sum_planes_into_out_is_the_same_sum(self, d):
        x = 10.0 ** np.random.default_rng(d).uniform(-5.0, 5.0, (d, 2, 40))
        out = np.full((2, 40), np.nan)
        assert l1metric._sum_planes(x.copy(), out=out) is out
        assert np.array_equal(out.view(np.int64), l1metric._sum_planes(x.copy()).view(np.int64))

    @pytest.mark.parametrize("d", [13, 16, 130, 1000])
    def test_sequential_sum_differs_on_the_same_data(self, d):
        # The control: the data tells summation orders apart, so the test above can fail.
        points = spread_points(d)
        diffs = np.abs(points[:, None, :] - points[None, :, :])
        assert not np.array_equal(diffs.cumsum(axis=-1)[..., -1], naive_pairwise(points))

    def test_tile_passes_restore_numpy_state(self, pointsets):
        # The passes shrink numpy's ufunc buffer and silence some warnings inside an errstate.
        ps = pointsets(2, 3)
        before = (np.getbufsize(), np.geterr())
        pairwise_l1(spread_points(16))
        distortion(ps, identity_embedding(ps))
        assert (np.getbufsize(), np.geterr()) == before

    # With 37 points, block 1 gives 1 x 36 strips down to a 1 x 1 tile,
    # and the others strips of 4, 10 and 36 rows whose first tile is masked.
    @pytest.mark.parametrize("block", [1, 4 * 37 * 5, 10 * 37 * 5, 2**30])
    def test_pairwise_equals_naive_for_any_chunking(self, monkeypatch, block):
        points = np.random.default_rng(19).standard_normal((37, 5)) * 1e3
        monkeypatch.setattr(l1metric, "BLOCK_ELEMENTS", block)
        got = pairwise_l1(points)
        assert np.array_equal(got, naive_pairwise(points))
        assert np.array_equal(got, got.T)

    def embeddings(self, ps):
        rng = np.random.default_rng(23)
        for d in (1, 3, 9):
            yield make_embedding({a: rng.standard_normal(d) for a in ps.addresses})
        vectors = {a: rng.standard_normal(4) for a in ps.addresses}
        vectors[ps.addresses[-1]] = vectors[ps.addresses[3]]
        yield make_embedding(vectors)
        yield make_embedding({a: [0.0, 0.0] for a in ps.addresses})

    @pytest.mark.parametrize("k,n", [(2, 3), (3, 2)])
    @pytest.mark.parametrize("block", [1, 600, 2**30])
    def test_distortion_equals_dense_formula(self, pointsets, monkeypatch, k, n, block):
        ps = pointsets(k, n)
        monkeypatch.setattr(l1metric, "BLOCK_ELEMENTS", block)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for emb in self.embeddings(ps):
                report = distortion(ps, emb)
                got = (report.expansion, report.contraction, report.distortion)
                assert got == dense_distortion(ps, emb)

    def test_coincident_and_all_zero_give_infinity_not_nan(self, pointsets):
        ps = pointsets(2, 3)
        *_, coincident, zero = self.embeddings(ps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = [distortion(ps, coincident), distortion(ps, zero)]
        for report in reports:
            assert report.contraction == math.inf
            assert report.distortion == math.inf
        assert 0.0 < reports[0].expansion < math.inf
        assert reports[1].expansion == 0.0


class TestStreamingDistortion:
    """The fused tile pass against a fold over full matrices."""

    embeddings = TestFastPaths.embeddings

    # (3, 4) has 81-bit labels, two words per row. The odd block size splits
    # the small triangles into blocks of 2 to 23 rows with a short last one.
    @pytest.mark.parametrize("k,n", [(2, 3), (3, 3), (4, 2), (3, 4)])
    @pytest.mark.parametrize("block", [1, 1025, 2**30])
    def test_equals_full_matrix_report(self, pointsets, monkeypatch, k, n, block):
        ps = pointsets(k, n)
        monkeypatch.setattr(l1metric, "BLOCK_ELEMENTS", block)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for emb in self.embeddings(ps):
                points = np.stack([emb.vectors[a] for a in ps.addresses])
                assert distortion(ps, emb) == full_matrix_report(points, ps.distance_matrix)

    @pytest.mark.parametrize("block", [1, 2**30])
    def test_contraction_among_tied_lowest_ratios(self, pointsets, monkeypatch, block):
        # Label distances 3 and 5 against embedded 1.0 and 1.6666666666666665
        # give one ratio float, 1/3, but 5 / 1.6666666666666665 rounds above 3.
        # With block 1 the second pair's row is a later tile than the first's.
        ps = pointsets(3, 2)
        assert ps.distance_matrix[0, 2] == 3 and ps.distance_matrix[1, 10] == 5
        monkeypatch.setattr(l1metric, "BLOCK_ELEMENTS", block)
        points = np.array([[3000.0 * (i + 1)] * 2 for i in range(len(ps))])
        points[[0, 2]] = [[0.0, 1000.0], [1.0, 1000.0]]
        points[[1, 10]] = [[1000.0, 0.0], [1000.0, 1.6666666666666665]]
        report = distortion(ps, Embedding(points, ps.graph))
        assert report.contraction == 5 / 1.6666666666666665 > 3.0
        assert report == full_matrix_report(points, ps.distance_matrix)

    def test_holds_no_square_matrix(self, pointsets):
        base = pointsets(2, 5)
        ps = PointSet(base.graph)  # the labels are built and packed inside the trace
        rng = np.random.default_rng(29)
        emb = make_embedding({a: rng.standard_normal(16) for a in ps.addresses})
        tracemalloc.start()
        try:
            distortion(ps, emb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < len(ps) ** 2 * 8 / 4

    def test_certify_builds_neither_full_matrix(self, pointsets, monkeypatch):
        base = pointsets(2, 4)
        ps = PointSet(base.graph)
        calls = []
        real = l1metric.pairwise_l1

        def counting(points):
            calls.append(points.shape)
            return real(points)

        monkeypatch.setattr(l1metric, "pairwise_l1", counting)
        rng = np.random.default_rng(31)
        cert = certify(ps, make_embedding({a: rng.standard_normal(8) for a in ps.addresses}))
        assert cert.consistent
        assert "distance_matrix" not in ps.__dict__
        assert calls == []


def count_tiles(monkeypatch):
    """Patch l1metric._l1_tile to log (bytes per float, i0, i1, j0, j1) a call; returns the log."""
    calls = []
    real = l1metric._l1_tile

    def counting(planes, flat, i0, i1, j0, j1):
        calls.append((planes.itemsize, i0, i1, j0, j1))
        return real(planes, flat, i0, i1, j0, j1)

    monkeypatch.setattr(l1metric, "_l1_tile", counting)
    return calls


def holds(calls, size, i, j):
    """Whether a logged tile of `size`-byte floats holds the pair (i, j)."""
    return any(s == size and i0 <= i < i1 and j0 <= j < j1 for s, i0, i1, j0, j1 in calls)


def tile_count(ps, d):
    """(screen tiles, float64 tiles) of distortion over `ps` in R**d when the screen is set up.

    The screen tiles are _screen_rows tall; each is folded, when kept, as
    its sub-tiles of the float64 rows from column max(j0, r0 + 1) that
    hold a pair i < j.
    """
    n, words = len(ps), ps._bitplanes.shape[0]
    rows, cols = l1metric._tile_shape(n, d, words)
    tiles = list(l1metric._tile_bounds(n, l1metric._screen_rows(n, rows, cols, words), cols))
    exact = sum(
        max(j0, r0 + 1) < j1 for i0, i1, j0, j1 in tiles for r0 in range(i0, i1, rows)
    )
    return len(tiles), exact


class TestFloat32Screen:
    """The float32 screen skips tiles without changing the report, and knows when to stop."""

    def test_skips_nine_tiles_in_ten_of_a_gaussian_embedding(self, pointsets, monkeypatch):
        ps = pointsets(2, 6)
        emb = Embedding(np.random.default_rng(1).standard_normal((len(ps), 16)), ps.graph)
        calls = count_tiles(monkeypatch)
        distortion(ps, emb)
        total, _ = tile_count(ps, 16)
        # A screened tile is redone when float64 tiles follow it in the log.
        redone = sum(a[0] == 4 and b[0] == 8 for a, b in zip(calls, calls[1:]))
        assert sum(1 for size, *_ in calls if size == 4) == total - 1
        assert total - 1 - redone >= 0.9 * total

    def test_identity_is_screened_in_the_first_strip_at_most(self, pointsets, monkeypatch):
        # Every ratio ties, so every screened tile is redone for nothing.
        ps = pointsets(2, 6)
        calls = count_tiles(monkeypatch)
        report = distortion(ps, identity_embedding(ps))
        assert report == DistortionReport(1.0, 1.0, 1.0)
        screened = [i0 for size, i0, *_ in calls if size == 4]
        assert 0 < len(screened) and set(screened) == {0}
        assert sum(1 for size, *_ in calls if size == 8) == tile_count(ps, ps.dimension)[1]

    @pytest.mark.parametrize("block", [1, 1025, pointset.BLOCK_ELEMENTS])
    def test_tied_lowest_ratios_in_a_later_strip(self, pointsets, monkeypatch, block):
        # The construction of test_contraction_among_tied_lowest_ratios, on
        # rows 960 to 1007 of P(3,4): strips after the first exact tiles.
        ps = pointsets(3, 4)
        assert ps.distance_matrix[960, 963] == 3 and ps.distance_matrix[1000, 1007] == 5
        monkeypatch.setattr(l1metric, "BLOCK_ELEMENTS", block)
        points = np.array([[3000.0 * (i + 1)] * 2 for i in range(len(ps))])
        points[[960, 963]] = [[0.0, 1000.0], [1.0, 1000.0]]
        points[[1000, 1007]] = [[1000.0, 0.0], [1000.0, 1.6666666666666665]]
        calls = count_tiles(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = distortion(ps, Embedding(points, ps.graph))
        assert report.contraction == 5 / 1.6666666666666665 > 3.0
        assert report == full_matrix_report(points, ps.distance_matrix)
        # The tiles of both tied pairs were screened and redone exactly.
        for pair in ((960, 963), (1000, 1007)):
            assert holds(calls, 4, *pair) and holds(calls, 8, *pair)

    def test_screen_tiles_fit_the_tile_buffer(self):
        sizes = (2, 3, 44, 129, 513, 514, 2732, 10924, 699052, 2**40)
        depths = (1, 2, 3, 7, 16, 64, 100, 1000, 2**16, 2**17)
        for n, d, words in itertools.product(sizes, depths, (1, 2, 4, 12, 1000)):
            rows, cols = l1metric._tile_shape(n, d, words)
            wide = l1metric._screen_rows(n, rows, cols, words)
            # The float32 view of the d * rows * cols float64 buffer holds the tile.
            assert d * wide * cols <= 2 * (d * rows * cols), (n, d, words)
            assert rows <= wide <= min(cols, n - 1), (n, d, words)
            # Its XORed label words take no more than a float64 tile's may.
            limit = max(l1metric.BLOCK_ELEMENTS, words * rows * cols)
            assert words * wide * cols <= limit, (n, d, words)

    # Words 4 and 16 against d = 1: the label temporaries, not the
    # coordinates, size the tiles. P(2,6) at d = 1 has the largest
    # float64 tiles, 128 x 512 pairs.
    @pytest.mark.parametrize("k,n,d", [(3, 5, 1), (32, 2, 1), (2, 6, 1), (2, 6, 16)])
    def test_peak_is_the_buffer_and_one_tiles_temporaries(self, pointsets, k, n, d):
        ps = pointsets(k, n)
        words = ps._bitplanes.shape[0]
        emb = Embedding(np.random.default_rng(41).standard_normal((len(ps), d)), ps.graph)
        tracemalloc.start()
        try:
            distortion(ps, emb)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows, cols = l1metric._tile_shape(len(ps), d, words)
        # distortion's docstring: the float64 and float32 (d, N) copies, the
        # tile buffer, one tile's XORed label words and popcount bytes (or
        # popcounts and float distances), at most BLOCK_ELEMENTS of each,
        # and two float64 arrays of a tile's pairs.
        copies = 12 * d * len(ps)
        labels = 9 * l1metric.BLOCK_ELEMENTS
        assert peak <= copies + 8 * d * rows * cols + labels + 16 * rows * cols

    # P(2,5) in R**4: float64 tiles of 32 rows, screen tiles of 64 by 512.
    # Strip 64 meets columns 65..576 in its first tile and 577..683 in its
    # second; rows 96..127 are the tiles' second halves.
    @pytest.mark.parametrize("pair", [(100, 600), (100, 103), (70, 71)])
    def test_an_extreme_anywhere_in_a_kept_tile_is_folded(self, pointsets, monkeypatch, pair):
        ps = pointsets(2, 5)
        assert l1metric._tile_shape(len(ps), 4, 1) == (32, 512)
        points = np.random.default_rng(37).standard_normal((len(ps), 4))
        i, j = pair
        points[j] = points[i] + 1e-6  # the lowest ratio by far
        calls = count_tiles(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = distortion(ps, Embedding(points, ps.graph))
        assert report == full_matrix_report(points, ps.distance_matrix)
        assert report.contraction > 1e5
        assert holds(calls, 4, i, j) and holds(calls, 8, i, j)

    def test_a_half_tile_without_pairs_is_not_folded(self, pointsets, monkeypatch):
        # P(2,3)'s identity in R**8 with one-row float64 tiles: the last
        # screen tile, rows 42 and 43, meets only column 43, so its second
        # half holds no pair i < j.
        ps = pointsets(2, 3)
        monkeypatch.setattr(l1metric, "BLOCK_ELEMENTS", 8 * 43)
        assert l1metric._tile_shape(len(ps), 8, 1) == (1, 43)
        calls = count_tiles(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = distortion(ps, identity_embedding(ps))
        assert report == DistortionReport(1.0, 1.0, 1.0)
        assert (8, 42, 43, 43, 44) in calls
        assert not [call for call in calls if call[1] == 43]

    def test_inputs_float32_cannot_bound_are_not_screened(self, pointsets, monkeypatch):
        ps = pointsets(2, 5)
        rows = np.random.default_rng(3).standard_normal((len(ps), 4))
        calls = count_tiles(monkeypatch)
        # Past float32's range once centred, and below its smallest normal.
        for points in (1e308 * (1.0 + 1e-3 * rows), rows * 2.0**-140):
            calls.clear()
            distortion(ps, Embedding(points, ps.graph))
            assert calls and all(size == 8 for size, *_ in calls)
        planes = np.ascontiguousarray(rows.T)
        flat = np.empty(4 * 512)
        assert l1metric._screen_points(planes, 2**24 - 1, flat, 512) is not None
        assert l1metric._screen_points(planes, 2**24, flat, 512) is None


class TestNormalizeLipschitz:
    def test_scaled_identity_restored(self, pointsets):
        ps = pointsets(2, 2)
        out = normalize_lipschitz(ps, scale_embedding(identity_embedding(ps), 3.0))
        ident = identity_embedding(ps)
        worst = max(
            float(np.abs(out.vectors[a] - ident.vectors[a]).max()) for a in ps.addresses
        )
        assert worst <= 1e-12

    def test_expansion_becomes_one_and_distortion_kept(self, pointsets):
        ps = pointsets(2, 2)
        rng = np.random.default_rng(11)
        emb = make_embedding({a: rng.standard_normal(4) for a in ps.addresses})
        before = distortion(ps, emb)
        out = normalize_lipschitz(ps, emb)
        after = distortion(ps, out)
        assert after.expansion == pytest.approx(1.0, abs=1e-12)
        assert after.distortion == pytest.approx(before.distortion, abs=1e-9 * before.distortion)

    def test_idempotent(self, pointsets):
        ps = pointsets(2, 2)
        rng = np.random.default_rng(13)
        emb = normalize_lipschitz(
            ps, make_embedding({a: rng.standard_normal(2) for a in ps.addresses})
        )
        again = normalize_lipschitz(ps, emb)
        worst = max(
            float(np.abs(again.vectors[a] - emb.vectors[a]).max()) for a in ps.addresses
        )
        assert worst <= 1e-12

    def test_all_constant_rejected(self, pointsets):
        ps = pointsets(2, 1)
        emb = make_embedding({a: [2.0, 2.0] for a in ps.addresses})
        with pytest.raises(DegenerateEmbeddingError):
            normalize_lipschitz(ps, emb)


class TestMakeEmbedding:
    def test_rejects_ragged_and_nonfinite(self):
        a, b = object(), object()
        with pytest.raises(ValueError):
            make_embedding({a: [1.0, 2.0], b: [1.0]})
        with pytest.raises(ValueError):
            make_embedding({a: [math.inf]})

    def test_vectors_frozen(self, pointsets):
        ps = pointsets(2, 1)
        emb = identity_embedding(ps)
        with pytest.raises(ValueError):
            emb.vectors[ps.addresses[0]][0] = 5.0

    def test_one_matrix_behind_a_read_only_view(self, pointsets):
        ps = pointsets(2, 2)
        rng = np.random.default_rng(3)
        mapping = {a: rng.standard_normal(3) for a in ps.addresses}
        emb = make_embedding(mapping)
        assert emb.matrix.dtype == np.float64 and emb.matrix.shape == (len(ps), 3)
        assert emb.graph.vertices == ps.addresses and emb.dimension == 3
        assert not emb.matrix.flags.writeable
        assert "vectors" not in emb.__dict__
        assert list(emb.vectors) == list(ps.addresses)
        for i, addr in enumerate(ps.addresses):
            assert np.array_equal(emb.vectors[addr], mapping[addr])
            assert np.shares_memory(emb.vectors[addr], emb.matrix[i])
        with pytest.raises(TypeError):
            emb.vectors[ps.addresses[0]] = np.zeros(3)

    def test_rows_named_by_a_graph_build_no_address_until_read(self, pointsets):
        ps = pointsets(2, 2)
        rows = np.random.default_rng(4).standard_normal((len(ps), 3))
        emb = Embedding(rows, build_graph(GraphParams(2, 2)))
        assert vertex_matrix(ps.graph, emb) is emb.matrix
        assert "vectors" not in emb.__dict__ and "vertices" not in emb.graph.__dict__
        assert list(emb.vectors) == list(ps.addresses)
        with pytest.raises(ValueError, match="^embedding is for k=2 n=2, graph has k=2 n=3$"):
            vertex_matrix(build_graph(GraphParams(2, 3)), emb)
        with pytest.raises(ValueError, match="^embedding has 11 rows for 12 vertices$"):
            Embedding(rows[1:], ps.graph)

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_matrix_is_float64_and_certifies_as_its_text(self, pointsets, dtype):
        ps = pointsets(2, 4)
        rows = (np.random.default_rng(8).standard_normal((len(ps), 8)) * 100).astype(dtype)
        emb = Embedding(rows, ps.graph)
        assert emb.matrix.dtype == np.float64
        text = embedding_to_text(ps, emb)
        assert text == embedding_to_text(ps, Embedding(rows.astype(np.float64), ps.graph))
        back = embedding_from_text(text, ps)
        assert certificate_to_text(certify(ps, emb)) == certificate_to_text(certify(ps, back))

    @pytest.mark.parametrize("shape", [(12,), (12, 0)], ids=["one-axis", "no-columns"])
    def test_rejects_a_matrix_that_is_not_n_by_d(self, pointsets, shape):
        with pytest.raises(ValueError, match=rf"d >= 1, got shape {re.escape(str(shape))}$"):
            Embedding(np.zeros(shape), pointsets(2, 2).graph)


class TestScaleEmbedding:
    def test_scales_the_matrix(self, pointsets):
        ps = pointsets(2, 2)
        emb = make_embedding({a: np.arange(3.0) + i for i, a in enumerate(ps.addresses)})
        out = scale_embedding(emb, 0.3)
        assert out.graph is emb.graph and not out.matrix.flags.writeable
        assert out.matrix.tobytes() == (emb.matrix * 0.3).tobytes()

    def test_rejects_a_non_finite_result(self, pointsets):
        ps = pointsets(2, 1)
        emb = make_embedding({a: [1e300, -1e300 * i] for i, a in enumerate(ps.addresses)})
        message = f"^non-finite entries in vector for {ps.addresses[0]}$"
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=message):
            scale_embedding(emb, 1e10)


class TestEmbeddingFormat:
    def test_round_trip(self, pointsets):
        ps = pointsets(2, 2)
        rng = np.random.default_rng(17)
        emb = make_embedding({a: rng.standard_normal(3) for a in ps.addresses})
        text = embedding_to_text(ps, emb)
        back = embedding_from_text(text, ps)
        assert back.dimension == 3
        for addr in ps.addresses:
            assert np.array_equal(back.vectors[addr], emb.vectors[addr])
        assert embedding_to_text(ps, back) == text

    def test_rejects_mismatched_pointset(self, pointsets):
        ps22, ps21 = pointsets(2, 2), pointsets(2, 1)
        text = embedding_to_text(ps22, identity_embedding(ps22))
        with pytest.raises(FormatError):
            embedding_from_text(text, ps21)

    def test_rejects_truncation(self, pointsets):
        ps = pointsets(2, 1)
        text = embedding_to_text(ps, identity_embedding(ps))
        with pytest.raises(FormatError):
            embedding_from_text("\n".join(text.splitlines()[:-1]) + "\n", ps)

    def test_rejects_wrong_width_and_bad_floats(self, pointsets):
        ps = pointsets(2, 1)
        lines = embedding_to_text(ps, identity_embedding(ps)).splitlines()
        broken = lines[:]
        broken[1] = broken[1] + " 0.0"
        with pytest.raises(FormatError):
            embedding_from_text("\n".join(broken) + "\n", ps)
        broken = lines[:]
        broken[1] = broken[1].rsplit(" ", 1)[0] + " nan"
        with pytest.raises(FormatError):
            embedding_from_text("\n".join(broken) + "\n", ps)

    def test_rejects_out_of_order_addresses(self, pointsets):
        ps = pointsets(2, 1)
        lines = embedding_to_text(ps, identity_embedding(ps)).splitlines()
        lines[1], lines[2] = lines[2], lines[1]
        with pytest.raises(FormatError):
            embedding_from_text("\n".join(lines) + "\n", ps)

    def test_accepts_valid_non_canonical_addresses(self, pointsets):
        ps = pointsets(2, 2)
        rng = np.random.default_rng(23)
        emb = make_embedding({a: rng.standard_normal(2) for a in ps.addresses})
        text = embedding_to_text(ps, emb)
        lines = text.splitlines()
        assert [lines[i].split()[0] for i in (3, 5, 7)] == ["/1", "1/1", "2/1"]
        for i, token in ((3, "/01"), (5, "01/1"), (7, "002/1")):
            lines[i] = token + " " + lines[i].split(" ", 1)[1]
        back = embedding_from_text("\n".join(lines) + "\n", ps)
        assert embedding_to_text(ps, back) == text

    ADDRESS_ERRORS = [
        ("2/3", "line 7: address '2/3' out of canonical order"),
        ("+2/3", "line 7: bad vertex address '+2/3'"),
        ("02/3", "line 7: address '02/3' out of canonical order"),
        ("x/1", "line 7: bad vertex address 'x/1'"),
        ("1/9", "line 7: position out of range in address '1/9'"),
        ("1.9/1", "line 7: edge path out of range in address '1.9/1'"),
    ]

    @pytest.mark.parametrize(
        "token,message", ADDRESS_ERRORS, ids=[token for token, _ in ADDRESS_ERRORS]
    )
    def test_rejects_wrong_address_with_line_number(self, pointsets, token, message):
        ps = pointsets(2, 2)
        lines = embedding_to_text(ps, identity_embedding(ps)).splitlines()
        assert lines[6].split()[0] == "1/3"
        lines[6] = token + " " + lines[6].split(" ", 1)[1]
        with pytest.raises(FormatError) as info:
            embedding_from_text("\n".join(lines) + "\n", ps)
        assert str(info.value) == message

    # int() reads each token as the canonical one beside it; the formats
    # spell an integer in ASCII digits alone, leading zeros allowed.
    @pytest.mark.parametrize(
        "canonical,token",
        [("1/1", "+1/1"), ("1/1", "\uff11/1"), ("1/1", "\u0661/1"), ("10/1", "1_0/1")],
    )
    def test_address_numbers_are_ascii_digits(self, pointsets, canonical, token):
        ps = pointsets(5, 2)
        lines = embedding_to_text(ps, identity_embedding(ps)).splitlines()
        i = next(i for i, line in enumerate(lines) if line.split()[0] == canonical)
        lines[i] = token + " " + lines[i].partition(" ")[2]
        with pytest.raises(FormatError) as info:
            embedding_from_text("\n".join(lines) + "\n", ps)
        assert str(info.value) == f"line {i + 1}: bad vertex address {token!r}"

    @pytest.mark.parametrize(
        "header",
        [
            "L1EMB v2 d=2 N=12 k=2 n=2",
            "P1 v1 d=2 N=12 k=2 n=2",
            "L1EMB v1 N=12 d=2 k=2 n=2",
            "L1EMB v1 d=x N=12 k=2 n=2",
            "L1EMB v1 d2 N=12 k=2 n=2",
            "L1EMB v1 d=2 N=12 k=2",
            "L1EMB d=2 N=12 k=2 n=2",
            "L1EMB v1 d=+2 N=12 k=2 n=2",
            "L1EMB v1 d=2 N=1_2 k=2 n=2",
            "L1EMB v1 d=2 N=12 k=\uff12 n=2",
        ],
    )
    def test_rejects_malformed_header(self, pointsets, header):
        ps = pointsets(2, 2)
        lines = embedding_to_text(ps, identity_embedding(ps)).splitlines()
        assert lines[0].split()[:2] == ["L1EMB", "v1"]
        lines[0] = header
        with pytest.raises(FormatError, match="^bad L1EMB header"):
            embedding_from_text("\n".join(lines) + "\n", ps)


def gaussian_text(ps, d, seed):
    """L1EMB text of a seeded embedding whose magnitudes span many decades."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-30, 30, size=(len(ps), d))
    emb = make_embedding(dict(zip(ps.addresses, rng.standard_normal((len(ps), d)) * scale)))
    return embedding_to_text(ps, emb)


def per_line_floats(text):
    """Reference: every coordinate through Python float(), line by line."""
    return np.array([[float(x) for x in line.split()[1:]] for line in text.splitlines()[1:]])


class TestEmbeddingFastPath:
    @pytest.mark.parametrize("k,n,d", [(2, 3, 1), (3, 4, 16), (2, 5, 37)])
    def test_canonical_file_equals_per_line_reference(self, pointsets, k, n, d):
        # A canonical file takes the one-loadtxt path; its rows must be the
        # per-line float() values bit for bit, behind one read-only matrix.
        ps = pointsets(k, n)
        text = gaussian_text(ps, d, seed=k * 100 + d)
        emb = embedding_from_text(text, ps)
        rows = [emb.vectors[a] for a in ps.addresses]
        assert np.array_equal(np.stack(rows), per_line_floats(text))
        assert rows[0].base is not None and all(r.base is rows[0].base for r in rows)
        assert not rows[0].flags.writeable
        assert embedding_to_text(ps, emb) == text

    @pytest.mark.parametrize(
        "token,message",
        [
            (None, "expected address plus 2 coordinates"),
            ("1,5", "bad coordinate"),
            ("0x1p3", "bad coordinate"),
            ("nan", "non-finite coordinate"),
            ("-1e400", "non-finite coordinate"),
        ],
    )
    def test_late_bad_line_keeps_the_per_line_message(self, pointsets, token, message):
        # One bad line deep in an otherwise canonical file sends its block
        # to the per-line reader, which names that line.
        ps = pointsets(2, 4)
        lines = gaussian_text(ps, 2, seed=3).splitlines()
        lineno = 123
        parts = lines[lineno - 1].split(" ")
        lines[lineno - 1] = " ".join(parts + ["0.5"] if token is None else parts[:2] + [token])
        with pytest.raises(FormatError) as info:
            embedding_from_text("\n".join(lines) + "\n", ps)
        assert str(info.value) == f"line {lineno}: {message}"

    def test_header_dimension_is_vouched_for_before_allocation(self, pointsets):
        # d=4e9 would size a 119 GiB matrix; the first line has 2 coordinates.
        ps = pointsets(2, 1)
        lines = embedding_to_text(ps, identity_embedding(ps)).splitlines()
        lines[0] = lines[0].replace("d=2", "d=4000000000")
        with pytest.raises(FormatError) as info:
            embedding_from_text("\n".join(lines) + "\n", ps)
        assert str(info.value) == "line 2: expected address plus 4000000000 coordinates"

    @pytest.mark.parametrize(
        "token",
        ["1_0", "+2", "1e400", "-Infinity", "nan", "\uff11\uff12", "0x1p3", "1,5", ".5",
         "5.", "1e-400", "-0.0", "4.9e-324", "1.7976931348623157e308", "0.1000000000000000055511"],
    )
    def test_coordinates_parse_as_python_float(self, pointsets, token):
        # A canonical file takes the block path; its coordinates must be
        # accepted, rejected and valued exactly as float() does.
        ps = pointsets(2, 1)
        lines = embedding_to_text(ps, make_embedding({a: [0.25] for a in ps.addresses})).splitlines()
        lines[2] = lines[2].split(" ")[0] + " " + token
        text = "\n".join(lines) + "\n"
        try:
            want = float(token)
        except ValueError:
            want = None
        if want is None or not math.isfinite(want):
            with pytest.raises(FormatError):
                embedding_from_text(text, ps)
            return
        got = embedding_from_text(text, ps).vectors[ps.addresses[1]]
        assert got.tobytes() == np.array([want]).tobytes()

    @pytest.mark.parametrize(
        "rests",
        [[None] * 3, [""] * 3, [" 0.5 0.25"] * 3, ["0.5 0.25 "] * 3, ["0.5  0.25"] * 3,
         ["0.5"] * 3, ["0.5 0.25 0.125"] * 3, ["0.5 0.25", "0.5", "0.5 0.25 0.125"],
         ["0.5 0.25", None, "0.5 0.25"]],
    )
    def test_a_block_of_other_widths_is_refused_without_a_warning(self, pointsets, rests):
        # Only d = 2 coordinates after single spaces take the loadtxt path;
        # loadtxt skips an empty line, and warns on a block of them.
        names = pointsets(2, 2).graph.vertices[:3]
        lines = [v if rest is None else f"{v} {rest}" for v, rest in zip(names, rests)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert l1metric._canonical_matrix(lines, names, 2) is None
            fine = l1metric._canonical_matrix([f"{v} 0.5 0.25" for v in names], names, 2)
        assert fine.tolist() == [[0.5, 0.25]] * 3

    def test_canonical_file_skips_the_per_line_helpers(self, pointsets, monkeypatch):
        ps = pointsets(3, 3)
        text = gaussian_text(ps, 4, seed=9)
        calls = []
        for module, name in ((l1metric, "make_embedding"), (pointset, "parse_address")):
            real = getattr(module, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        embedding_from_text(text, ps)
        assert calls == []
        lines = text.splitlines()
        assert lines[7].startswith("1/1 ")
        lines[7] = "0" + lines[7]  # "01/1" is valid but not canonical: per-line reader
        assert embedding_to_text(ps, embedding_from_text("\n".join(lines) + "\n", ps)) == text
        assert calls == ["parse_address"]


class TestArrayPathNeverBuildsTheView:
    """Parse, certify, tabulate and search read only the matrix."""

    @pytest.fixture()
    def no_view(self, monkeypatch):
        def refuse(emb):
            raise AssertionError("the per-address view was read")

        monkeypatch.setattr(Embedding, "vectors", property(refuse))

    def test_parse_certify_table(self, pointsets, no_view):
        ps = pointsets(2, 4)
        emb = embedding_from_text(gaussian_text(ps, 8, seed=4), ps)
        cert = certify(ps, emb)
        constraint_table_csv(cert.constraints)
        embedding_to_text(ps, emb)
        assert "vectors" not in emb.__dict__

    def test_search_then_certify(self, pointsets, no_view):
        ps = pointsets(2, 4)
        result = search_embedding(ps, SearchConfig(4, iterations=50, restarts=1, seed=1))
        certify(ps, result.embedding)
        assert "vectors" not in result.embedding.__dict__
