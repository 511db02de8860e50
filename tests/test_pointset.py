"""Construction tests for recursive-cycle graphs and their labels.

Core claims:
    - vertex_count matches the closed form and actual enumeration
    - the depth-1 graph is a single labeled cycle of length 2k
    - every edge's endpoint labels differ in exactly one bit
    - level-l antipodal pairs differ in exactly k**(n-l+1) bits
    - all labels are distinct and satisfy the interval invariants
    - edge orientation follows the toward-the-right convention
    - the per-level index arrays and the level-by-level labels equal the
      recursive per-edge and per-vertex references, and building a point
      set plus its constraint report never calls those references
    - the packed labels are built in slices of cycles: the same words with
      slices of one cycle, and a traced peak of the planes and a few slices
    - the vertices are the canonical names in export order, as an
      independent enumeration gives them; the vertices tuple and the edges
      dict are built only when read, and neither build_graph, the P1 writer
      nor a canonical P1 parse builds the vertices
    - the P1 export format round-trips byte-identically and parses strictly,
      accepting valid non-canonical spellings
    - importing l1cert.pointset loads no other l1cert module: the package
      root re-exports nothing

The program holds labels only as packed bits. The reference labels are
the recursive `oracle._label_of`'s: the canonical P1 text is checked against
them, and the packed words against numpy's packbits of them. The packed
distance matrix, which the metric-structure tests read, is checked
against both the merge-based distance and a dense 0/1 product.
"""

import collections
import itertools
import re
import tracemalloc

import numpy as np
import pytest

from conftest import fresh_interpreter, reference_labels
from l1cert import oracle, pointset
from l1cert.certifier import constraint_report
from l1cert.l1metric import make_embedding
from l1cert.oracle import IntervalLabel, antipodal_pairs, l1_interval_distance
from l1cert.pointset import (
    CapacityError,
    FormatError,
    GraphParams,
    build_graph,
    edge_endpoints,
    parse_address,
    pointset_from_text,
    pointset_to_text,
    vertex_count,
)


class TestParams:
    def test_valid(self):
        p = GraphParams(3, 2)
        assert p.cycle_length == 6
        assert p.label_length == 9

    @pytest.mark.parametrize("k,n", [(1, 1), (0, 3), (2, 0), (2, -1)])
    def test_rejects_degenerate(self, k, n):
        with pytest.raises(ValueError):
            GraphParams(k, n)

    def test_rejects_over_capacity(self):
        # 4**60 edges is far beyond the 2**48 exact-counting cap.
        with pytest.raises(CapacityError):
            GraphParams(2, 60)
        # Too large to print: the check must not take the power.
        with pytest.raises(CapacityError, match="n=100000 exceeds"):
            GraphParams(2, 10**5)

    def test_build_rejects_unmaterializable(self):
        # Valid parameters with a vertex count and a bound, but too big to materialize.
        params = GraphParams(2, 14)
        message = (
            "268435456 edges is too large to materialize (limit 4194304); "
            "the parameters, vertex_count and `l1cert bound` need no graph"
        )
        with pytest.raises(CapacityError, match=re.escape(message)):
            build_graph(params)


class TestVertexCount:
    # Frozen from the closed form ((2k-2)(2k)^n + 2k) / (2k-1).
    @pytest.mark.parametrize("k,n,expected", [(2, 1, 4), (3, 2, 30), (2, 3, 44), (2, 2, 12)])
    def test_closed_form_values(self, k, n, expected):
        assert vertex_count(GraphParams(k, n)) == expected

    @pytest.mark.parametrize("k,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 2)])
    def test_matches_enumeration(self, k, n):
        graph = build_graph(GraphParams(k, n))
        assert len(graph.vertices) == vertex_count(graph.params)
        # Every vertex must appear as an endpoint of some full-depth edge.
        endpoints = set()
        for tail, head in graph.edges.values():
            endpoints.add(tail)
            endpoints.add(head)
        assert endpoints == set(graph.vertices)


class TestBuildGraph:
    def test_depth_one_is_a_cycle(self):
        graph = build_graph(GraphParams(2, 1))
        assert len(graph.vertices) == 4
        assert sorted(graph.edges) == [(1,), (2,), (3,), (4,)]
        degree = {}
        for tail, head in graph.edges.values():
            degree[tail] = degree.get(tail, 0) + 1
            degree[head] = degree.get(head, 0) + 1
        assert all(d == 2 for d in degree.values())

    @pytest.mark.parametrize("k,n,nv,ne", [(3, 2, 30, 36), (2, 2, 12, 16)])
    def test_counts(self, k, n, nv, ne):
        graph = build_graph(GraphParams(k, n))
        assert len(graph.vertices) == nv
        assert len(graph.edges) == ne

    @pytest.mark.parametrize("k,n", [(2, 3), (3, 2), (4, 2)])
    def test_degrees_even_and_connected(self, k, n):
        graph = build_graph(GraphParams(k, n))
        adjacency = {v: set() for v in graph.vertices}
        for tail, head in graph.edges.values():
            adjacency[tail].add(head)
            adjacency[head].add(tail)
        degree = {v: 0 for v in graph.vertices}
        for tail, head in graph.edges.values():
            degree[tail] += 1
            degree[head] += 1
        assert all(d >= 2 and d % 2 == 0 for d in degree.values())
        seen = {graph.vertices[0]}
        stack = [graph.vertices[0]]
        while stack:
            for w in adjacency[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        assert len(seen) == len(graph.vertices)


class TestEdgeEndpoints:
    def test_root_edge(self):
        graph = build_graph(GraphParams(3, 2))
        assert edge_endpoints(graph, ()) == ("L", "R")

    def test_first_top_edge_leaves_root_left(self):
        graph = build_graph(GraphParams(2, 1))
        tail, head = edge_endpoints(graph, (1,))
        assert tail == "L"
        assert head == "/1"

    def test_bottom_edge_orientation(self):
        # Edge k+1 runs from the bottom vertex adjacent to the right
        # endpoint into the right endpoint itself.
        graph = build_graph(GraphParams(2, 1))
        tail, head = edge_endpoints(graph, (3,))
        assert tail == "/3"
        assert head == "R"

    def test_last_bottom_edge_leaves_root_left(self):
        graph = build_graph(GraphParams(2, 1))
        tail, head = edge_endpoints(graph, (4,))
        assert tail == "L"
        assert head == "/3"

    def test_rejects_bad_coordinates(self):
        graph = build_graph(GraphParams(2, 2))
        with pytest.raises(ValueError):
            edge_endpoints(graph, (5,))
        with pytest.raises(ValueError):
            edge_endpoints(graph, (0, 1))
        with pytest.raises(ValueError):
            edge_endpoints(graph, (1, 1, 1))


class TestLevelArrays:
    """The level-by-level arrays against the recursive references."""

    @pytest.mark.parametrize("flip", [False, True])
    # Depth 1 is the walk's single level, with no next level to derive.
    @pytest.mark.parametrize("k,n", [(2, 4), (3, 3), (4, 3), (9, 2), (2, 1), (5, 1)])
    def test_level_edges_equal_edge_endpoints(self, k, n, flip):
        graph = build_graph(GraphParams(k, n), flip_bottom=flip)
        assert "edges" not in graph.__dict__
        index = {v: i for i, v in enumerate(graph.vertices)}
        assert len(graph.level_edges) == n
        for level, (tail, head) in enumerate(graph.level_edges, start=1):
            prefixes = list(itertools.product(range(1, 2 * k + 1), repeat=level))
            want = [tuple(index[v] for v in edge_endpoints(graph, p)) for p in prefixes]
            assert list(zip(tail.tolist(), head.tolist())) == want
        coords = list(itertools.product(range(1, 2 * k + 1), repeat=n))
        assert "edges" not in graph.__dict__
        assert list(graph.edges) == coords
        assert "edges" in graph.__dict__
        assert all(graph.edges[c] == edge_endpoints(graph, c) for c in coords)

    def test_edges_not_built_on_the_read_path(self):
        ps = build_graph(GraphParams(3, 3))
        text = pointset_to_text(ps)
        assert "vertices" not in ps.__dict__
        again = pointset_from_text(text)
        assert "vertices" not in again.__dict__
        rng = np.random.default_rng(5)
        emb = make_embedding({v: rng.standard_normal(2) for v in again.vertices})
        constraint_report(again, emb)
        assert "edges" not in ps.__dict__
        assert "edges" not in again.__dict__

    # At k = 9 the coordinates reach 18, so lexicographic is not string order.
    @pytest.mark.parametrize("k,n", [(2, 1), (2, 4), (3, 3), (4, 2), (9, 2)])
    def test_vertices_in_export_order(self, k, n):
        # L, R, then by creation level, lexicographic edge path and position q != k.
        cyc = 2 * k
        paths = [p for m in range(n) for p in itertools.product(range(1, cyc + 1), repeat=m)]
        inner = [".".join(map(str, p)) + f"/{q}" for p in paths for q in range(1, cyc) if q != k]
        assert build_graph(GraphParams(k, n)).vertices == ("L", "R", *inner)

    def test_level_edges_are_read_only(self):
        tail, head = build_graph(GraphParams(2, 2)).level_edges[0]
        with pytest.raises(ValueError):
            tail[0] = 1
        with pytest.raises(ValueError):
            head[0] = 1

    @pytest.mark.parametrize("k,n", [(2, 5), (3, 4), (4, 3)])
    def test_labels_equal_recursive_reference(self, pointsets, k, n):
        # The P1 writer builds every line from the level arrays of _p1_blocks.
        ps = pointsets(k, n)
        lines = pointset_to_text(ps).splitlines()[1:]
        assert len(lines) == len(ps.vertices)
        for v, line in zip(ps.vertices, lines):
            intervals = oracle._label_of(ps.params, v).intervals
            assert line == f"{v} " + (",".join(f"{a}-{b}" for a, b in intervals) or "-")

    def test_no_recursive_helper_calls(self, monkeypatch):
        # Building labels and the constraint report must not fall back on the
        # O(N*n) recursion or re-sort a label: no recursive-helper call and no
        # make, since each label is its tail's with one interval inserted.
        calls = collections.Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            pointset, "_edge_endpoints_raw", counting("raw", pointset._edge_endpoints_raw)
        )
        monkeypatch.setattr(oracle, "_label_of", counting("label", oracle._label_of))
        monkeypatch.setattr(
            IntervalLabel, "make", staticmethod(counting("make", IntervalLabel.make))
        )
        ps = build_graph(GraphParams(3, 4))
        rng = np.random.default_rng(11)
        emb = make_embedding({v: rng.standard_normal(3) for v in ps.vertices})
        report = constraint_report(ps, emb)
        assert len(report.entries) == 2 * (1 + 6 + 36 + 216)
        assert calls["raw"] == 0
        assert calls["label"] == 0
        assert calls["make"] == 0


class TestVertexLabels:
    def test_depth_one_top_vertex(self):
        assert oracle._label_of(GraphParams(2, 1), "/1").intervals == ((1, 2),)

    def test_root_left_is_all_zeros(self):
        assert oracle._label_of(GraphParams(2, 1), "L").intervals == ()

    def test_root_right_is_all_ones(self):
        assert oracle._label_of(GraphParams(3, 2), "R").intervals == ((0, 9),)

    def test_label_length_is_k_to_the_n(self, pointsets):
        ps = pointsets(3, 2)
        assert ps.params.label_length == 9
        assert all(label.length == 9 for label in reference_labels(ps))

    @pytest.mark.parametrize("k,n", [(2, 2), (2, 3), (3, 2), (4, 2)])
    def test_labels_distinct_and_well_formed(self, pointsets, k, n):
        ps = pointsets(k, n)
        seen = set()
        for label in reference_labels(ps):
            assert label.intervals not in seen
            seen.add(label.intervals)
            for (a, b), nxt in itertools.zip_longest(
                label.intervals, label.intervals[1:], fillvalue=None
            ):
                assert 0 <= a < b <= label.length
                if nxt is not None:
                    assert b < nxt[0]  # disjoint and non-adjacent


class TestMetricStructure:
    @pytest.mark.parametrize("k,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 2)])
    def test_every_edge_has_label_distance_one(self, pointsets, k, n):
        ps = pointsets(k, n)
        tails, heads = ps.level_edges[-1]
        for tail, head in zip(tails.tolist(), heads.tolist()):
            assert ps.distance_matrix[tail, head] == 1

    @pytest.mark.parametrize("k,n", [(2, 1), (2, 2), (2, 3), (3, 2), (4, 2)])
    def test_antipodal_distances(self, pointsets, k, n):
        ps = pointsets(k, n)
        row = {v: i for i, v in enumerate(ps.vertices)}
        for level in range(1, n + 1):
            pairs = antipodal_pairs(ps, level)
            assert len(pairs) == k * (2 * k) ** (level - 1)
            expected = k ** (n - level + 1)
            for a, b in pairs:
                assert ps.distance_matrix[row[a], row[b]] == expected

    def test_depth_one_pairs(self):
        graph = build_graph(GraphParams(2, 1))
        pairs = antipodal_pairs(graph, 1)
        assert pairs == [
            ("L", "R"),
            ("/1", "/3"),
        ]

    def test_level_out_of_range(self):
        graph = build_graph(GraphParams(2, 2))
        with pytest.raises(ValueError):
            antipodal_pairs(graph, 0)
        with pytest.raises(ValueError):
            antipodal_pairs(graph, 3)


class TestDistanceMatrix:
    """The packed bitset matrix against the interval-merge reference."""

    @pytest.mark.parametrize("k,n", [(2, 3), (3, 4), (4, 3), (2, 6), (2, 7)])
    def test_bitsets_equal_dense_bit_packing(self, pointsets, k, n):
        # Reference: every label as an (N, 64 * words) bool row, packed
        # little-endian into bytes and read as uint64 words, one column per
        # vertex in the word-major packed array.
        ps = pointsets(k, n)
        words = -(-ps.params.label_length // 64)
        bits = np.zeros((len(ps), 64 * words), dtype=bool)
        for i, label in enumerate(reference_labels(ps)):
            for a, b in label.intervals:
                bits[i, a:b] = True
        want = np.packbits(bits, axis=1, bitorder="little").view("<u8")
        got = build_graph(ps.params)._bitplanes
        assert got.dtype == want.dtype and got.shape == (words, len(ps))
        assert np.array_equal(got, want.T)

    @pytest.mark.parametrize("k,n", [(2, 6), (3, 4), (5, 3)])
    def test_bitsets_equal_in_slices_of_one_cycle(self, pointsets, monkeypatch, k, n):
        # TEXT_BLOCK 1 takes every level one cycle at a time.
        want = build_graph(GraphParams(k, n))._bitplanes
        monkeypatch.setattr(pointset, "TEXT_BLOCK", 1)
        got = build_graph(GraphParams(k, n))._bitplanes
        assert np.array_equal(got, want)

    def test_bitsets_hold_the_planes_and_a_few_slices(self, pointsets):
        # P(2,8): 43,692 vertices of four words, 16,384 last-level cycles.
        k, n = 2, 8
        ps = build_graph(GraphParams(k, n))
        tracemalloc.start()
        try:
            planes = ps._bitplanes
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # The planes, a few int64 entries per last-level cycle (its tail and
        # block start, and the temporaries they are built from), and the
        # masks and tail gathers of a few slices of TEXT_BLOCK bytes.
        assert peak <= planes.nbytes + 8 * 4 * (2 * k) ** (n - 1) + 8 * pointset.TEXT_BLOCK

    @pytest.mark.parametrize("k,n", [(2, 3), (3, 2), (3, 3), (4, 3)])
    def test_equals_interval_distance_on_every_pair(self, pointsets, k, n):
        # (4, 3) has labels of exactly 64 bits, one full word.
        ps = pointsets(k, n)
        labs = reference_labels(ps)
        want = np.array([[l1_interval_distance(a, b) for b in labs] for a in labs])
        got = ps.distance_matrix
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("block", [1, 20000, 2**30])
    def test_two_word_labels_equal_dense_product(self, pointsets, monkeypatch, block):
        # (3, 4) has 81-bit labels, spread over two words.
        ps = pointsets(3, 4)
        monkeypatch.setattr(pointset, "BLOCK_ELEMENTS", block)
        got = build_graph(ps.params).distance_matrix
        dense = np.stack([label.to_dense() for label in reference_labels(ps)])
        ones = dense.sum(axis=1)
        want = ones[:, None] + ones[None, :] - 2 * (dense @ dense.T)
        assert np.array_equal(got, want.astype(np.int64))


class TestIntervalLabel:
    def test_make_merges_adjacent_and_overlapping(self):
        label = IntervalLabel.make(10, [(4, 6), (0, 2), (2, 4), (8, 9)])
        assert label.intervals == ((0, 6), (8, 9))
        assert label.measure == 7

    def test_make_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            IntervalLabel.make(4, [(2, 5)])
        with pytest.raises(ValueError):
            IntervalLabel.make(4, [(3, 3)])


class TestExportFormat:
    def test_round_trip_is_byte_identical(self, pointsets):
        ps = pointsets(2, 2)
        text = pointset_to_text(ps)
        again = pointset_from_text(text)
        assert pointset_to_text(again) == text
        assert again.vertices == ps.vertices

    def test_header_contents(self, pointsets):
        text = pointset_to_text(pointsets(3, 2))
        assert text.splitlines()[0] == "P1 k=3 n=2 N=30 dim=9"

    def test_rejects_bad_header(self):
        with pytest.raises(FormatError):
            pointset_from_text("Q1 k=2 n=1 N=4 dim=2\n")
        with pytest.raises(FormatError):
            pointset_from_text("P1 k=2 n=1 N=5 dim=2\n")

    def test_rejects_wrong_line_count(self, pointsets):
        text = pointset_to_text(pointsets(2, 1))
        truncated = "\n".join(text.splitlines()[:-1]) + "\n"
        with pytest.raises(FormatError):
            pointset_from_text(truncated)

    def test_rejects_shuffled_lines(self, pointsets):
        lines = pointset_to_text(pointsets(2, 1)).splitlines()
        swapped = "\n".join([lines[0], lines[2], lines[1]] + lines[3:]) + "\n"
        with pytest.raises(FormatError):
            pointset_from_text(swapped)

    def test_rejects_tampered_label(self, pointsets):
        lines = pointset_to_text(pointsets(2, 1)).splitlines()
        assert lines[3] == "/1 1-2"
        lines[3] = "/1 0-2"
        with pytest.raises(FormatError):
            pointset_from_text("\n".join(lines) + "\n")

    def test_accepts_valid_non_canonical_tokens(self, pointsets):
        ps = pointsets(2, 2)
        text = pointset_to_text(ps)
        lines = text.splitlines()
        assert (lines[3], lines[5], lines[8]) == ("/1 2-4", "1/1 3-4", "2/3 0-1,2-4")
        lines[3] = "/01 2-04"
        lines[5] = "01/1 3-4"
        lines[8] = "02/3 00-1,2-4"
        again = pointset_from_text("\n".join(lines) + "\n")
        assert pointset_to_text(again) == text

    @pytest.mark.parametrize(
        "lineno,line,message",
        [
            (7, "2/3 2-3", "line 7: address '2/3' out of canonical order"),
            (7, "+1/1 2-3", "line 7: bad vertex address '+1/1'"),
            (9, "2/3 0-1,2-3", "line 9: label does not match the construction"),
            (9, "+2/3 0-1,02-3", "line 9: bad vertex address '+2/3'"),
            (9, "2/3 2-4,0-1", "line 9: label does not match the construction"),
            (9, "2/3 0-1,2-3,3-4", "line 9: label does not match the construction"),
            (6, "1/1 3-9", "line 6: label does not match the construction"),
            (6, "x/1 3-4", "line 6: bad vertex address 'x/1'"),
            (6, "1/1 0-x", "line 6: bad interval '0-x'"),
            (6, "1/1 3", "line 6: bad interval '3'"),
            (6, "1/9 0-1", "line 6: position out of range in address '1/9'"),
            (6, "1.9/1 3-4", "line 6: edge path out of range in address '1.9/1'"),
        ],
    )
    def test_rejects_wrong_tokens_with_line_number(self, pointsets, lineno, line, message):
        lines = pointset_to_text(pointsets(2, 2)).splitlines()
        lines[lineno - 1] = line
        with pytest.raises(FormatError) as info:
            pointset_from_text("\n".join(lines) + "\n")
        assert str(info.value) == message

    # int() reads each token as the canonical one beside it; the formats
    # spell an integer in ASCII digits alone, leading zeros allowed.
    @pytest.mark.parametrize(
        "canonical,token,message",
        [
            ("1/1", "+1/1", "bad vertex address '+1/1'"),
            ("1/1", "\t1/1", "bad vertex address '\\t1/1'"),
            ("1/1", "\uff11/1", "bad vertex address '\uff11/1'"),
            ("1/1", "\u0661/1", "bad vertex address '\u0661/1'"),
            ("10/1", "1_0/1", "bad vertex address '1_0/1'"),
            ("0-10", "0-1_0", "bad interval '0-1_0'"),
        ],
    )
    def test_integer_tokens_are_ascii_digits(self, pointsets, canonical, token, message):
        lines = pointset_to_text(pointsets(5, 2)).splitlines()
        i = next(i for i, line in enumerate(lines) if canonical in line.split(" "))
        lines[i] = " ".join(token if t == canonical else t for t in lines[i].split(" "))
        with pytest.raises(FormatError) as info:
            pointset_from_text("\n".join(lines) + "\n")
        assert str(info.value) == f"line {i + 1}: {message}"

    @pytest.mark.parametrize(
        "header,field",
        [
            ("P1 k=+2 n=\uff12 N=1_2 dim=4", "k=+2"),
            ("P1 k=2 n=\uff12 N=12 dim=4", "n=\uff12"),
            ("P1 k=2 n=2 N=1_2 dim=4", "N=1_2"),
            ("P1 k=2 n=2 N=12 dim=\u0664", "dim=\u0664"),
        ],
    )
    def test_header_fields_are_ascii_digits(self, pointsets, header, field):
        text = header + "\n" + pointset_to_text(pointsets(2, 2)).partition("\n")[2]
        with pytest.raises(FormatError) as info:
            pointset_from_text(text)
        assert str(info.value) == f"bad P1 header field {field!r}"

    def test_address_parsing(self):
        params = GraphParams(2, 3)
        assert parse_address("L", params) == "L"
        assert parse_address("1.4/3", params) == "1.4/3"
        assert parse_address("/3", params) == "/3"
        for bad in ("x", "1.9/3", "/2", "1/0", "1/5", "1.2.3/1"):
            with pytest.raises(FormatError):
                parse_address(bad, params)


def test_importing_pointset_loads_only_the_package_root():
    code = (
        "import sys, l1cert.pointset\n"
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'l1cert'))\n"
        "print(hasattr(sys.modules['l1cert'], 'certify'))\n"
    )
    assert fresh_interpreter(code) == "['l1cert', 'l1cert.pointset']\nFalse\n"
