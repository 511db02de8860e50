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
    - vertex_names equals str() of every vertex; the vertices tuple and the
      edges dict are built only when read, and neither point_set, the P1
      writer nor a canonical P1 parse builds the vertices
    - the P1 export format round-trips byte-identically and parses strictly,
      accepting valid non-canonical spellings

Label distances here are checked against an independent dense oracle
(explicit ones-sets), not the library's merge-based distance. The packed
bitset distance matrix is checked against both the merge-based distance
and a dense 0/1 product, and the packed words against numpy's packbits.
"""

import collections
import itertools

import numpy as np
import pytest

from l1cert import pointset
from l1cert.certifier import constraint_report
from l1cert.l1metric import l1_interval_distance, make_embedding
from l1cert.pointset import (
    CapacityError,
    FormatError,
    GraphParams,
    IntervalLabel,
    PointSet,
    ROOT_LEFT,
    ROOT_RIGHT,
    VertexAddress,
    antipodal_pairs,
    build_graph,
    edge_endpoints,
    parse_address,
    point_set,
    pointset_from_text,
    pointset_to_text,
    vertex_count,
    vertex_label,
)


def ones_set(label):
    """Independent dense view of a label: the set of one-bit positions."""
    return {i for a, b in label.intervals for i in range(a, b)}


def dense_distance(a, b):
    return len(ones_set(a) ^ ones_set(b))


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
        # Parameters are fine for label queries but too big to materialize.
        params = GraphParams(2, 14)
        with pytest.raises(CapacityError):
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
        assert edge_endpoints(graph, ()) == (ROOT_LEFT, ROOT_RIGHT)

    def test_first_top_edge_leaves_root_left(self):
        graph = build_graph(GraphParams(2, 1))
        tail, head = edge_endpoints(graph, (1,))
        assert tail == ROOT_LEFT
        assert head == VertexAddress("inner", (), 1)

    def test_bottom_edge_orientation(self):
        # Edge k+1 runs from the bottom vertex adjacent to the right
        # endpoint into the right endpoint itself.
        graph = build_graph(GraphParams(2, 1))
        tail, head = edge_endpoints(graph, (3,))
        assert tail == VertexAddress("inner", (), 3)
        assert head == ROOT_RIGHT

    def test_last_bottom_edge_leaves_root_left(self):
        graph = build_graph(GraphParams(2, 1))
        tail, head = edge_endpoints(graph, (4,))
        assert tail == ROOT_LEFT
        assert head == VertexAddress("inner", (), 3)

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
    @pytest.mark.parametrize("k,n", [(2, 4), (3, 3), (4, 3), (9, 2)])
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
        ps = point_set(build_graph(GraphParams(3, 3)))
        text = pointset_to_text(ps)
        assert "vertices" not in ps.graph.__dict__
        again = pointset_from_text(text)
        assert "vertices" not in again.graph.__dict__
        rng = np.random.default_rng(5)
        emb = make_embedding({v: rng.standard_normal(2) for v in again.addresses})
        constraint_report(again.graph, emb)
        assert "edges" not in ps.graph.__dict__
        assert "edges" not in again.graph.__dict__

    @pytest.mark.parametrize("k,n", [(2, 1), (2, 4), (3, 3), (4, 2), (9, 2)])
    def test_vertex_names_equal_str(self, k, n):
        graph = build_graph(GraphParams(k, n))
        assert graph.vertex_names == tuple(map(str, graph.vertices))

    def test_level_edges_are_read_only(self):
        tail, head = build_graph(GraphParams(2, 2)).level_edges[0]
        with pytest.raises(ValueError):
            tail[0] = 1
        with pytest.raises(ValueError):
            head[0] = 1

    @pytest.mark.parametrize("k,n", [(2, 5), (3, 4), (4, 3)])
    def test_labels_equal_recursive_reference(self, pointsets, k, n):
        ps = pointsets(k, n)
        assert len(ps.labels) == len(ps.addresses)
        for v, label in zip(ps.addresses, ps.labels):
            assert label == pointset._label_of(ps.params, v)

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
        monkeypatch.setattr(pointset, "_label_of", counting("label", pointset._label_of))
        monkeypatch.setattr(
            IntervalLabel, "make", staticmethod(counting("make", IntervalLabel.make))
        )
        ps = point_set(build_graph(GraphParams(3, 4)))
        rng = np.random.default_rng(11)
        emb = make_embedding({v: rng.standard_normal(3) for v in ps.addresses})
        report = constraint_report(ps.graph, emb)
        assert len(report.entries) == 2 * (1 + 6 + 36 + 216)
        assert calls["raw"] == 0
        assert calls["label"] == 0
        assert calls["make"] == 0


class TestVertexLabels:
    def test_depth_one_top_vertex(self):
        graph = build_graph(GraphParams(2, 1))
        label = vertex_label(graph, VertexAddress("inner", (), 1))
        assert label.intervals == ((1, 2),)

    def test_root_left_is_all_zeros(self):
        graph = build_graph(GraphParams(2, 1))
        assert vertex_label(graph, ROOT_LEFT).intervals == ()

    def test_root_right_is_all_ones(self):
        graph = build_graph(GraphParams(3, 2))
        assert vertex_label(graph, ROOT_RIGHT).intervals == ((0, 9),)

    def test_label_length_is_k_to_the_n(self, pointsets):
        ps = pointsets(3, 2)
        assert all(label.length == 9 for label in ps.labels)

    @pytest.mark.parametrize("k,n", [(2, 2), (2, 3), (3, 2), (4, 2)])
    def test_labels_distinct_and_well_formed(self, pointsets, k, n):
        ps = pointsets(k, n)
        seen = set()
        for label in ps.labels:
            assert label.intervals not in seen
            seen.add(label.intervals)
            for (a, b), nxt in itertools.zip_longest(
                label.intervals, label.intervals[1:], fillvalue=None
            ):
                assert 0 <= a < b <= label.length
                if nxt is not None:
                    assert b < nxt[0]  # disjoint and non-adjacent

    def test_unknown_vertex_rejected(self):
        graph = build_graph(GraphParams(2, 1))
        with pytest.raises(ValueError):
            vertex_label(graph, VertexAddress("inner", (1,), 1))


class TestMetricStructure:
    @pytest.mark.parametrize("k,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 2)])
    def test_every_edge_has_label_distance_one(self, pointsets, k, n):
        ps = pointsets(k, n)
        tails, heads = ps.graph.level_edges[-1]
        for tail, head in zip(tails.tolist(), heads.tolist()):
            assert dense_distance(ps.labels[tail], ps.labels[head]) == 1

    @pytest.mark.parametrize("k,n", [(2, 1), (2, 2), (2, 3), (3, 2), (4, 2)])
    def test_antipodal_distances(self, pointsets, k, n):
        ps = pointsets(k, n)
        row = {v: i for i, v in enumerate(ps.addresses)}
        for level in range(1, n + 1):
            pairs = antipodal_pairs(ps.graph, level)
            assert len(pairs) == k * (2 * k) ** (level - 1)
            expected = k ** (n - level + 1)
            for a, b in pairs:
                assert dense_distance(ps.labels[row[a]], ps.labels[row[b]]) == expected

    def test_depth_one_pairs(self):
        graph = build_graph(GraphParams(2, 1))
        pairs = antipodal_pairs(graph, 1)
        assert pairs == [
            (ROOT_LEFT, ROOT_RIGHT),
            (VertexAddress("inner", (), 1), VertexAddress("inner", (), 3)),
        ]

    def test_level_out_of_range(self):
        graph = build_graph(GraphParams(2, 2))
        with pytest.raises(ValueError):
            antipodal_pairs(graph, 0)
        with pytest.raises(ValueError):
            antipodal_pairs(graph, 3)


class TestDistanceMatrix:
    """The packed bitset matrix against the interval-merge reference."""

    @pytest.mark.parametrize("k,n", [(2, 3), (3, 4), (4, 3), (2, 6)])
    def test_bitsets_equal_dense_bit_packing(self, pointsets, k, n):
        # Reference: every label as an (N, 64 * words) bool row, packed
        # little-endian into bytes and read as uint64 words.
        ps = pointsets(k, n)
        words = -(-ps.dimension // 64)
        bits = np.zeros((len(ps), 64 * words), dtype=bool)
        for i, label in enumerate(ps.labels):
            for a, b in label.intervals:
                bits[i, a:b] = True
        want = np.packbits(bits, axis=1, bitorder="little").view("<u8")
        got = PointSet(ps.graph)._bitsets
        assert got.dtype == want.dtype and got.shape == (len(ps), words)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("k,n", [(2, 3), (3, 2), (3, 3), (4, 3)])
    def test_equals_interval_distance_on_every_pair(self, pointsets, k, n):
        # (4, 3) has labels of exactly 64 bits, one full word.
        ps = pointsets(k, n)
        labs = ps.labels
        want = np.array([[l1_interval_distance(a, b) for b in labs] for a in labs])
        got = ps.distance_matrix
        assert got.dtype == np.int64
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("block", [1, 20000, 2**30])
    def test_two_word_labels_equal_dense_product(self, pointsets, monkeypatch, block):
        # (3, 4) has 81-bit labels, spread over two words.
        ps = pointsets(3, 4)
        monkeypatch.setattr(pointset, "BLOCK_ELEMENTS", block)
        got = PointSet(ps.graph).distance_matrix
        dense = np.stack([label.to_dense() for label in ps.labels])
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
        assert again.addresses == ps.addresses
        assert again.labels == ps.labels

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
        lines[8] = "+2/3 00-1,2-4"
        again = pointset_from_text("\n".join(lines) + "\n")
        assert pointset_to_text(again) == text

    @pytest.mark.parametrize(
        "lineno,line,message",
        [
            (7, "2/3 2-3", "line 7: address '2/3' out of canonical order"),
            (7, "+1/1 2-3", "line 7: address '+1/1' out of canonical order"),
            (9, "2/3 0-1,2-3", "line 9: label does not match the construction"),
            (9, "+2/3 0-1,02-3", "line 9: label does not match the construction"),
        ],
    )
    def test_rejects_wrong_tokens_with_line_number(self, pointsets, lineno, line, message):
        lines = pointset_to_text(pointsets(2, 2)).splitlines()
        lines[lineno - 1] = line
        with pytest.raises(FormatError) as info:
            pointset_from_text("\n".join(lines) + "\n")
        assert str(info.value) == message

    def test_address_parsing(self):
        params = GraphParams(2, 3)
        assert parse_address("L", params) == ROOT_LEFT
        assert parse_address("1.4/3", params) == VertexAddress("inner", (1, 4), 3)
        assert parse_address("/3", params) == VertexAddress("inner", (), 3)
        for bad in ("x", "1.9/3", "/2", "1/0", "1/5", "1.2.3/1"):
            with pytest.raises(FormatError):
                parse_address(bad, params)
