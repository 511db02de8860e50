"""Distance, distortion, and embedding-format tests.

Core claims:
    - l1_interval_distance equals the dense symmetric-difference oracle
      and satisfies the triangle inequality
    - the identity embedding is an exact isometry (all ratios exactly 1)
    - distortion is scale invariant; normalize_lipschitz brings expansion
      to 1, preserves distortion, and is idempotent
    - degenerate embeddings are flagged with infinite contraction
    - the half-square pairwise pass and the blocked ratio pass equal the
      naive full-square formulas exactly, and warn about nothing
    - the streaming distortion pass equals the full-matrix report field
      for field at any block size, holds no N x N matrix, and certify
      builds neither the label distance matrix nor pairwise_l1
    - the L1EMB format round-trips and parses strictly, accepting valid
      non-canonical address spellings
    - a canonical L1EMB file is read by one np.loadtxt parse into one
      read-only matrix that equals a per-line float() reference bit for
      bit; any other file gets the per-line reader's exact message and
      line number
    - an Embedding is one read-only matrix; scaling keeps the finiteness
      check, every consumer rejects a missing vertex with ValueError, and
      parse, certify, tabulate and search never build the per-address view;
      rows named by a graph build no address until `addresses` is read
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from l1cert import l1metric
from l1cert.certifier import certify, constraint_report, constraint_table_csv, edge_difference_map
from l1cert.l1metric import (
    DegenerateEmbeddingError,
    Embedding,
    _ratio_report,
    distortion,
    embedding_from_text,
    embedding_to_text,
    identity_embedding,
    l1_distance,
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
        for label in ps.labels:
            assert l1_interval_distance(label, label) == 0

    def test_root_left_to_adjacent_vertex(self, pointsets):
        # In the (3, 2) graph the full-depth edge (1, 1), the first one,
        # leaves the left root.
        ps = pointsets(3, 2)
        tails, heads = ps.graph.level_edges[-1]
        tail, head = int(tails[0]), int(heads[0])
        assert ps.graph.vertex_names[tail] == "L"
        assert l1_interval_distance(ps.labels[tail], ps.labels[head]) == 1

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


class TestVectorDistance:
    def test_examples(self):
        assert l1_distance([0, 0], [1, 1]) == 2.0
        assert l1_distance([0.3, -1.5], [0.3, -1.5]) == 0.0
        assert l1_distance([0.5, -0.25], [0, 0]) == 0.75

    def test_errors(self):
        with pytest.raises(ValueError):
            l1_distance([1, 2], [1, 2, 3])
        with pytest.raises(ValueError):
            l1_distance([1, math.nan], [0, 0])


class TestDistortion:
    def test_identity_is_exact_isometry(self, pointsets):
        for k, n in [(2, 2), (3, 2), (2, 3)]:
            ps = pointsets(k, n)
            report = distortion(ps, identity_embedding(ps))
            assert report.expansion == 1.0
            assert report.contraction == 1.0
            assert report.distortion == 1.0

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
        ps = pointsets(2, 1)
        partial = make_embedding({a: [1.0] for a in ps.addresses[:-1]})
        for consumer in (
            lambda: distortion(ps, partial),
            lambda: constraint_report(ps.graph, partial),
            lambda: edge_difference_map(ps.graph, partial),
            lambda: certify(ps, partial),
            lambda: embedding_to_text(ps, partial),
        ):
            with pytest.raises(ValueError, match="^embedding does not cover 1 vertices"):
                consumer()


def naive_pairwise(points):
    return np.abs(points[:, None, :] - points[None, :, :]).sum(axis=-1)


def dense_distortion(ps, emb):
    """The full-square triu_indices formula over dense 0/1 labels."""
    points = np.stack([emb.vectors[a] for a in ps.addresses])
    bits = np.stack([label.to_dense() for label in ps.labels])
    iu = np.triu_indices(len(ps), 1)
    de = naive_pairwise(points)[iu]
    do = naive_pairwise(bits)[iu]
    expansion = float(np.max(de / do))
    if np.any(de == 0.0):
        return expansion, math.inf, math.inf
    contraction = float(np.max(do / de))
    return expansion, contraction, expansion * contraction


class TestFastPaths:
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
    """The fused row-block pass against the full matrices search still builds."""

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
                want = _ratio_report(pairwise_l1(points), ps.distance_matrix)
                assert distortion(ps, emb) == want

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
        assert emb.addresses == ps.addresses and emb.dimension == 3
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
        assert "addresses" not in emb.__dict__ and "vertices" not in emb.order.__dict__
        assert emb.addresses == ps.addresses
        with pytest.raises(ValueError, match="does not cover"):
            vertex_matrix(build_graph(GraphParams(2, 3)), emb)
        with pytest.raises(ValueError, match="^embedding has 11 rows for 12 vertices$"):
            Embedding(rows[1:], ps.graph)


class TestScaleEmbedding:
    def test_scales_the_matrix(self, pointsets):
        ps = pointsets(2, 2)
        emb = make_embedding({a: np.arange(3.0) + i for i, a in enumerate(ps.addresses)})
        out = scale_embedding(emb, 0.3)
        assert out.addresses == emb.addresses and not out.matrix.flags.writeable
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
        for i, token in ((3, "/01"), (5, "01/1"), (7, "+2/1")):
            lines[i] = token + " " + lines[i].split(" ", 1)[1]
        back = embedding_from_text("\n".join(lines) + "\n", ps)
        assert embedding_to_text(ps, back) == text

    @pytest.mark.parametrize("token", ["2/3", "+2/3", "02/3"])
    def test_rejects_wrong_address_with_line_number(self, pointsets, token):
        ps = pointsets(2, 2)
        lines = embedding_to_text(ps, identity_embedding(ps)).splitlines()
        assert lines[6].split()[0] == "1/3"
        lines[6] = token + " " + lines[6].split(" ", 1)[1]
        with pytest.raises(FormatError) as info:
            embedding_from_text("\n".join(lines) + "\n", ps)
        assert str(info.value) == f"line 7: address {token!r} out of canonical order"

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
    def test_blocks_equal_per_line_reference(self, pointsets, monkeypatch, k, n, d):
        ps = pointsets(k, n)
        text = gaussian_text(ps, d, seed=k * 100 + d)
        # Five rows per block splits every file into many blocks.
        monkeypatch.setattr(l1metric, "BLOCK_ELEMENTS", 5 * (d + 1))
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
    def test_error_in_a_later_block_keeps_the_per_line_message(
        self, pointsets, monkeypatch, token, message
    ):
        ps = pointsets(2, 4)
        lines = gaussian_text(ps, 2, seed=3).splitlines()
        monkeypatch.setattr(l1metric, "BLOCK_ELEMENTS", 4 * 3)
        lineno = 123  # inside the 31st block of four rows
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

    def test_canonical_file_skips_the_per_line_helpers(self, pointsets, monkeypatch):
        ps = pointsets(3, 3)
        text = gaussian_text(ps, 4, seed=9)
        calls = []
        for name in ("make_embedding", "parse_address"):
            real = getattr(l1metric, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(l1metric, name, counting)
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
