"""Recursive-cycle graphs and their binary-label point sets.

The family is parameterized by a half-cycle length k >= 2 and a recursion
depth n >= 1. Depth 1 is a single cycle of length 2k with two distinguished
antipodal vertices ("left" and "right"); every deeper level replaces each
edge with a fresh cycle of length 2k whose distinguished vertices are
identified with the edge's endpoints. We treat the whole structure as the
n-fold refinement of a single virtual root edge (left, right), which gives
every vertex a canonical address: the edge path of the cycle that created
it plus its position along that cycle.

Each vertex carries a bit vector of length k**n, stored sparsely as
disjoint ones-intervals. Adjacent vertices differ in exactly one bit, and
the two ends of any level-l cycle diameter differ in exactly k**(n-l+1)
bits. The set of all labels is the point set consumed by the certifier.

Edges are labeled by coordinate tuples in [2k]**n (outermost level first)
and oriented toward the local right vertex: on a cycle refining the
oriented edge (tail, head), edge b in 1..k runs up the top path and edge
b+k runs along the bottom path toward the head. All types are immutable
after construction and all operations are pure.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Reject parameters whose edge count would leave the exact 64-bit range.
MAX_EDGE_CAPACITY = 2**48
# Largest graph build_graph will materialize; label queries work far beyond.
MAX_MATERIALIZED_EDGES = 2**22
# Elements in one row block's temporary in the all-pairs passes: 128 KB of
# 8-byte values stays in cache, which measured faster than larger blocks.
BLOCK_ELEMENTS = 2**14


class CapacityError(ValueError):
    """Requested size exceeds a capacity bound."""


class FormatError(ValueError):
    """A text payload does not conform to the expected file format."""


@dataclass(frozen=True)
class GraphParams:
    """Half-cycle length k >= 2 and recursion depth n >= 1."""

    k: int
    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or not isinstance(self.n, int):
            raise TypeError("k and n must be integers")
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        # 2k >= 4, so n > 24 gives (2k)**n >= 4**25 > 2**48: no need to take the power.
        if self.n > 24 or (2 * self.k) ** self.n > MAX_EDGE_CAPACITY:
            raise CapacityError(f"(2k)^n for k={self.k}, n={self.n} exceeds capacity 2^48")

    @property
    def cycle_length(self) -> int:
        return 2 * self.k

    @property
    def label_length(self) -> int:
        return self.k**self.n


@dataclass(frozen=True)
class VertexAddress:
    """Canonical vertex identity.

    kind is "L" or "R" for the two root-edge endpoints, or "inner" for a
    vertex created when the cycle refining edge `path` was inserted;
    `position` is its place along that cycle (1..2k-1, excluding k, since
    positions 0 and k are the refined edge's endpoints).
    """

    kind: str
    path: tuple[int, ...] = ()
    position: int = 0

    def __str__(self) -> str:
        if self.kind == "L":
            return "L"
        if self.kind == "R":
            return "R"
        return ".".join(str(c) for c in self.path) + f"/{self.position}"

    @property
    def level(self) -> int:
        """Creation level: 0 for the root endpoints, len(path)+1 otherwise."""
        return 0 if self.kind != "inner" else len(self.path) + 1


ROOT_LEFT = VertexAddress("L")
ROOT_RIGHT = VertexAddress("R")


def parse_address(text: str, params: GraphParams) -> VertexAddress:
    """Parse an address string ("L", "R", or "e1.e2/<pos>") and validate it."""
    if text == "L":
        return ROOT_LEFT
    if text == "R":
        return ROOT_RIGHT
    if "/" not in text:
        raise FormatError(f"bad vertex address {text!r}")
    head, _, tail = text.rpartition("/")
    try:
        path = tuple(int(c) for c in head.split(".")) if head else ()
        position = int(tail)
    except ValueError as exc:
        raise FormatError(f"bad vertex address {text!r}") from exc
    cyc = params.cycle_length
    if len(path) >= params.n or any(not 1 <= c <= cyc for c in path):
        raise FormatError(f"edge path out of range in address {text!r}")
    if not 1 <= position <= cyc - 1 or position == params.k:
        raise FormatError(f"position out of range in address {text!r}")
    return VertexAddress("inner", path, position)


@dataclass(frozen=True)
class IntervalLabel:
    """A bit vector in {0,1}**length stored as sorted disjoint ones-intervals.

    Intervals are half-open [a, b) and kept maximal (no two adjacent), so
    equality of labels is equality of the interval tuples.
    """

    length: int
    intervals: tuple[tuple[int, int], ...]

    @staticmethod
    def make(length: int, raw: "list[tuple[int, int]] | tuple") -> "IntervalLabel":
        """Normalize raw intervals: sort, merge overlaps/adjacency, validate."""
        ivs = sorted((int(a), int(b)) for a, b in raw)
        merged: list[tuple[int, int]] = []
        for a, b in ivs:
            if not 0 <= a < b <= length:
                raise ValueError(f"interval [{a},{b}) out of range [0,{length})")
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        return IntervalLabel(length, tuple(merged))

    @cached_property
    def measure(self) -> int:
        """Number of one bits."""
        return sum(b - a for a, b in self.intervals)

    def to_dense(self) -> np.ndarray:
        """Materialize the bit vector as a float array."""
        if self.length > 2**24:
            raise CapacityError(f"label of length {self.length} too large to densify")
        out = np.zeros(self.length)
        for a, b in self.intervals:
            out[a:b] = 1.0
        return out


@dataclass(frozen=True, eq=False)
class RecursiveCycleGraph:
    """The graph of P(k, n), determined by its params and flip_bottom alone.

    `flip_bottom` is a debug hook that reverses every bottom-path edge, so
    the self test can show that the identity-embedding equality check pins
    the orientation convention. All else is built on first read: `vertices`
    and `vertex_names` in export order (creation level, then lexicographic
    edge path, then position), `level_edges` and `edges`.
    """

    params: GraphParams
    flip_bottom: bool = False

    @cached_property
    def vertices(self) -> tuple[VertexAddress, ...]:
        """Every vertex address in export order."""
        k, cyc, n = self.params.k, self.params.cycle_length, self.params.n
        paths = [p for m in range(n) for p in itertools.product(range(1, cyc + 1), repeat=m)]
        inner = [VertexAddress("inner", p, q) for p in paths for q in range(1, cyc) if q != k]
        vertices = (ROOT_LEFT, ROOT_RIGHT, *inner)
        assert len(vertices) == vertex_count(self.params)
        return vertices

    @cached_property
    def vertex_names(self) -> tuple[str, ...]:
        """str(v) for every vertex in export order, built from path-prefix strings."""
        k, cyc, n = self.params.k, self.params.cycle_length, self.params.n
        positions = [f"/{q}" for q in range(1, cyc) if q != k]
        coords = [str(b) for b in range(1, cyc + 1)]
        names = ["L", "R"]
        paths = [""]
        for level in range(1, n + 1):
            names += [path + pos for path in paths for pos in positions]
            if level < n:
                paths = [f"{path}.{c}" if path else c for path in paths for c in coords]
        return tuple(names)

    @cached_property
    def level_edges(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per level l = 1..n, read-only (tail, head) vertex-index arrays.

        Entry l-1 holds the (2k)**l level-l edges in lexicographic
        coordinate order, as indices into `vertices`, oriented as
        edge_endpoints orients them (flip_bottom included).
        """
        k = self.params.k
        out = []
        for cycles in _level_cycles(self.params):
            tail, head = _cycle_edges(cycles, k, self.flip_bottom)
            tail.flags.writeable = False
            head.flags.writeable = False
            out.append((tail, head))
        return tuple(out)

    @cached_property
    def edges(self) -> dict[tuple[int, ...], tuple[VertexAddress, VertexAddress]]:
        """Every full-depth coordinate tuple mapped to its oriented (tail, head).

        Built from the last level of `level_edges` on first read; the
        generate, parse and certify paths never read it.
        """
        tail, head = self.level_edges[-1]
        v = self.vertices
        coords = itertools.product(range(1, self.params.cycle_length + 1), repeat=self.params.n)
        return dict(zip(coords, zip([v[i] for i in tail.tolist()], [v[i] for i in head.tolist()])))


def vertex_count(params: GraphParams) -> int:
    """Closed-form vertex count; always an exact integer."""
    k, n = params.k, params.n
    num = (2 * k - 2) * (2 * k) ** n + 2 * k
    count, rem = divmod(num, 2 * k - 1)
    assert rem == 0, "vertex-count closed form must be integral"
    return count


def _cycle_vertex(params: GraphParams, path: tuple[int, ...], q: int) -> VertexAddress:
    """Address of cycle position q (0..2k-1) on the cycle refining `path`.

    Positions 0 and k are the refined edge's own endpoints, which keep
    their older addresses.
    """
    if q == 0:
        return _edge_endpoints_raw(params, path)[0]
    if q == params.k:
        return _edge_endpoints_raw(params, path)[1]
    return VertexAddress("inner", tuple(path), q)


def _edge_endpoints_raw(
    params: GraphParams, prefix: tuple[int, ...]
) -> tuple[VertexAddress, VertexAddress]:
    """Oriented endpoints of the level-len(prefix) edge, canonical convention."""
    if not prefix:
        return ROOT_LEFT, ROOT_RIGHT
    parent, b = tuple(prefix[:-1]), prefix[-1]
    k = params.k
    if 1 <= b <= k:
        # Top-path edge b: runs from cycle position b-1 to b.
        return _cycle_vertex(params, parent, b - 1), _cycle_vertex(params, parent, b)
    if k < b <= 2 * k:
        # Bottom-path edge: oriented toward the right vertex, which walks
        # against the cycle direction (positions b -> b-1, with wraparound).
        tail_pos = 0 if b == 2 * k else b
        head_pos = k if b == k + 1 else b - 1
        return (
            _cycle_vertex(params, parent, tail_pos),
            _cycle_vertex(params, parent, head_pos),
        )
    raise ValueError(f"edge coordinate {b} out of range 1..{2 * k}")


def _level_cycles(params: GraphParams) -> list[np.ndarray]:
    """Vertex indices around every cycle: one ((2k)**(l-1), 2k) matrix per level l.

    Row p is the cycle refining the p-th level-(l-1) edge in lexicographic
    order (the root edge for l = 1) and column q is cycle position q. Columns
    0 and k hold that edge's canonical (never flipped) tail and head; the
    other columns are the cycle's new inner vertices, numbered in export
    order. This is the array form of _cycle_vertex for a whole level.
    """
    k, cyc = params.k, params.cycle_length
    inner = [q for q in range(1, cyc) if q != k]
    tail, head = np.array([0]), np.array([1])
    created = 2
    out = []
    for _ in range(params.n):
        rows = tail.size
        cycles = np.empty((rows, cyc), dtype=np.intp)
        cycles[:, 0] = tail
        cycles[:, k] = head
        cycles[:, inner] = np.arange(created, created + rows * (cyc - 2)).reshape(rows, -1)
        created += rows * (cyc - 2)
        out.append(cycles)
        tail, head = _cycle_edges(cycles, k, False)
    return out


def _cycle_edges(
    cycles: np.ndarray, k: int, flip_bottom: bool
) -> tuple[np.ndarray, np.ndarray]:
    """(tail, head) of edge b = 1..2k of every cycle, flattened cycle-major.

    Top edge b runs from position b-1 to b, bottom edge b from position
    b mod 2k to b-1 (see _edge_endpoints_raw); flip_bottom swaps the latter.
    """
    tails = list(range(k)) + [b % (2 * k) for b in range(k + 1, 2 * k + 1)]
    heads = list(range(1, k + 1)) + list(range(k, 2 * k))
    if flip_bottom:
        tails, heads = tails[:k] + heads[k:], heads[:k] + tails[k:]
    return cycles[:, tails].ravel(), cycles[:, heads].ravel()


def _validate_prefix(params: GraphParams, prefix: tuple[int, ...]) -> tuple[int, ...]:
    prefix = tuple(int(c) for c in prefix)
    if len(prefix) > params.n:
        raise ValueError(f"prefix longer than depth n={params.n}: {prefix}")
    for c in prefix:
        if not 1 <= c <= params.cycle_length:
            raise ValueError(f"edge coordinate {c} out of range 1..{params.cycle_length}")
    return prefix


def edge_endpoints(
    graph: RecursiveCycleGraph, prefix: tuple[int, ...]
) -> tuple[VertexAddress, VertexAddress]:
    """Oriented (tail, head) of the level-l edge named by a coordinate prefix.

    The empty prefix names the root edge (L, R). The head is the endpoint
    geometrically closer to the right vertex along its own path.
    """
    prefix = _validate_prefix(graph.params, prefix)
    tail, head = _edge_endpoints_raw(graph.params, prefix)
    if graph.flip_bottom and prefix and prefix[-1] > graph.params.k:
        tail, head = head, tail
    return tail, head


def edge_coordinate_block(
    params: GraphParams, prefix: tuple[int, ...]
) -> tuple[int, int]:
    """(start, length) of the label coordinates on which the edge's endpoints differ.

    A level-l edge controls a block of k**(n-l) coordinates; the tail is
    all zeros there and the head all ones.
    """
    prefix = _validate_prefix(params, prefix)
    k, n = params.k, params.n
    start = 0
    for depth, b in enumerate(prefix, start=1):
        m = b if b <= k else b - k
        start += (k - m) * k ** (n - depth)
    return start, k ** (n - len(prefix))


def _label_of(params: GraphParams, addr: VertexAddress) -> IntervalLabel:
    total = params.label_length
    if addr.kind == "L":
        return IntervalLabel(total, ())
    if addr.kind == "R":
        return IntervalLabel(total, ((0, total),))
    k = params.k
    q = addr.position
    if not (1 <= q <= 2 * k - 1 and q != k):
        raise ValueError(f"invalid cycle position {q} for k={k}")
    tail, _ = _edge_endpoints_raw(params, addr.path)
    base = _label_of(params, tail)
    start, block = edge_coordinate_block(params, addr.path)
    sub = block // k
    if q < k:
        # Top position q: ones on the last q sub-blocks of the edge's block.
        ones = (start + (k - q) * sub, start + block)
    else:
        # Bottom position q is the (2k-q)-th bottom vertex: ones on the
        # first 2k-q sub-blocks.
        ones = (start, start + (2 * k - q) * sub)
    return IntervalLabel.make(total, list(base.intervals) + [ones])


def vertex_label(graph: RecursiveCycleGraph, v: VertexAddress) -> IntervalLabel:
    """Label of a vertex as a sparse ones-interval bit vector of length k**n."""
    try:
        known = parse_address(str(v), graph.params) == v
    except FormatError:
        known = False
    if not known:
        raise ValueError(f"unknown vertex {v}")
    return _label_of(graph.params, v)


def build_graph(params: GraphParams, *, flip_bottom: bool = False) -> RecursiveCycleGraph:
    """Construct the depth-n recursive cycle graph with labeled oriented edges.

    flip_bottom reverses the orientation of every bottom-path edge; it is a
    debug hook only (see RecursiveCycleGraph).
    """
    cyc = params.cycle_length
    edge_total = cyc**params.n
    if edge_total > MAX_MATERIALIZED_EDGES:
        raise CapacityError(
            f"{edge_total} edges is too large to materialize "
            f"(limit {MAX_MATERIALIZED_EDGES}); use label queries instead"
        )
    return RecursiveCycleGraph(params, flip_bottom)


def antipodal_pairs(
    graph: RecursiveCycleGraph, level: int
) -> list[tuple[VertexAddress, VertexAddress]]:
    """All diameter pairs of every level-`level` cycle.

    Each cycle contributes k pairs (positions q and q+k); their labels are
    at distance k**(n-level+1). Pair order is deterministic: cycles in
    lexicographic path order, q ascending.
    """
    params = graph.params
    if not 1 <= level <= params.n:
        raise ValueError(f"level must be in 1..{params.n}, got {level}")
    cyc = params.cycle_length
    pairs = []
    for path in itertools.product(range(1, cyc + 1), repeat=level - 1):
        for q in range(params.k):
            pairs.append(
                (_cycle_vertex(params, path, q), _cycle_vertex(params, path, q + params.k))
            )
    return pairs


@dataclass(frozen=True, eq=False)
class PointSet:
    """The labels of a built graph, with fast distance access.

    Everything is derived from the graph on first read. `labels` is the
    tuple of IntervalLabel objects in export order (row i is the label of
    `graph.vertices[i]`); only the packed bitsets, `identity_embedding`,
    a non-canonical P1 line, the references and the tests read it. The P1
    writer and reader build no label object: the writer splices the
    canonical text from the same walk, and the reader compares with it.
    """

    graph: RecursiveCycleGraph

    @property
    def addresses(self) -> tuple[VertexAddress, ...]:
        return self.graph.vertices

    @property
    def params(self) -> GraphParams:
        return self.graph.params

    @property
    def dimension(self) -> int:
        return self.params.label_length

    def __len__(self) -> int:
        return vertex_count(self.params)

    @cached_property
    def labels(self) -> tuple[IntervalLabel, ...]:
        """Every vertex label in export order, from one walk of _cycle_spans."""
        total = self.dimension
        labels = [IntervalLabel(total, ()), IntervalLabel(total, ((0, total),))]
        for base, spans in _cycle_spans(self.params):
            labels += [
                IntervalLabel(total, base[:lo] + ((a, b),) + base[hi:]) for lo, a, b, hi in spans
            ]
        return tuple(labels)

    @cached_property
    def _bitsets(self) -> np.ndarray:
        """Labels packed as little-endian uint64 words in export order, shape (N, words)."""
        words = -(-self.dimension // 64)
        # Each label as one Python int: the interval [a, b) is (1 << b) - (1 << a).
        ints = (sum((1 << b) - (1 << a) for a, b in label.intervals) for label in self.labels)
        packed = b"".join(x.to_bytes(8 * words, "little") for x in ints)
        return np.frombuffer(packed, dtype="<u8").reshape(len(self), words)

    @cached_property
    def _bitplanes(self) -> np.ndarray:
        """_bitsets word-major, shape (words, N), so per-word popcounts add as whole planes."""
        return np.ascontiguousarray(self._bitsets.T)

    def label_distances(self, i0: int, i1: int, j0: int = 0) -> np.ndarray:
        """Label distances of rows i0..i1-1 against columns j0..N-1.

        Popcounts of XORed packed labels, added over words as whole planes;
        l1metric.l1_interval_distance is the interval-merge reference.
        """
        bits = self._bitplanes
        return np.bitwise_count(bits[:, i0:i1, None] ^ bits[:, None, j0:]).sum(axis=0)

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        """Exact pairwise label distances in export order (int64), one row block at a time."""
        n, words = self._bitsets.shape
        out = np.empty((n, n), dtype=np.int64)
        step = max(1, BLOCK_ELEMENTS // (n * words))
        for i0 in range(0, n, step):
            out[i0 : i0 + step] = self.label_distances(i0, i0 + step)
        return out


def point_set(graph: RecursiveCycleGraph) -> PointSet:
    """The point set of a built graph; its labels are computed on first read."""
    return PointSet(graph)


def _cycle_spans(params: GraphParams):
    """Walk every cycle in export order: its tail's intervals and one interval per inner vertex.

    An inner vertex's label is its cycle's tail label, built at an earlier
    level, plus one ones-interval inside the cycle's coordinate block. The
    tail is all zeros on that block, so the interval is inserted at its
    bisected place and merged only with a neighbour it touches: no sort and
    no recursion. Yields (base, spans) per cycle, where base is the tail's
    interval tuple and the cycle's i-th inner vertex has the intervals
    base[:lo] + ((a, b),) + base[hi:] for (lo, a, b, hi) = spans[i]. Only
    the interval tuples of vertices above depth n are kept, as the next
    level's bases. _label_of is the per-vertex reference it is tested against.
    """
    k, n, total = params.k, params.n, params.label_length
    inner = [q for q in range(1, 2 * k) if q != k]
    # Block offset of edge b inside its parent's block, in sub-block units.
    offsets = np.array([k - (b if b <= k else b - k) for b in range(1, 2 * k + 1)])
    bases = [(), ((0, total),)]
    starts = np.zeros(1, dtype=np.int64)
    for level, cycles in enumerate(_level_cycles(params), start=1):
        sub = k ** (n - level)
        block = k * sub
        # Ones of inner position q relative to the block start: top q < k
        # has the last q sub-blocks, bottom q the first 2k-q.
        ones = [((k - q) * sub, block) if q < k else (0, (2 * k - q) * sub) for q in inner]
        for tail, start in zip(cycles[:, 0].tolist(), starts.tolist()):
            base = bases[tail]
            at = bisect.bisect_left(base, (start,))
            left_end = base[at - 1][1] if at else -1
            right_start = base[at][0] if at < len(base) else -1
            spans = []
            for a, b in ones:
                a, b, lo, hi = a + start, b + start, at, at
                if a == left_end:
                    lo -= 1
                    a = base[lo][0]
                if b == right_start:
                    b = base[hi][1]
                    hi += 1
                spans.append((lo, a, b, hi))
            if level < n:
                bases += [base[:lo] + ((a, b),) + base[hi:] for lo, a, b, hi in spans]
            yield base, spans
        starts = (starts[:, None] + offsets * sub).ravel()


def _parse_intervals(text: str, length: int) -> IntervalLabel:
    if text == "-":
        return IntervalLabel(length, ())
    parts = []
    for chunk in text.split(","):
        a, sep, b = chunk.partition("-")
        if not sep:
            raise FormatError(f"bad interval {chunk!r}")
        try:
            parts.append((int(a), int(b)))
        except ValueError as exc:
            raise FormatError(f"bad interval {chunk!r}") from exc
    try:
        label = IntervalLabel.make(length, parts)
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    if label.intervals != tuple(parts):
        raise FormatError(f"intervals not sorted/disjoint/maximal: {text!r}")
    return label


def pointset_to_text(ps: PointSet) -> str:
    """Serialize in the P1 text format (header plus one vertex per line).

    The text is spliced from the _cycle_spans walk: each cycle's interval
    runs left and right of the inserted interval are formatted once per
    variant (with the touching interval merged or not), and each inner
    vertex's line is its name, those runs and its own interval.
    """
    p = ps.params
    total = p.label_length
    names = iter(ps.graph.vertex_names)
    lines = [f"P1 k={p.k} n={p.n} N={len(ps)} dim={total}"]
    lines += [f"{next(names)} -", f"{next(names)} 0-{total}"]
    for base, spans in _cycle_spans(p):
        # The top vertices share one (lo, hi) and the bottom ones another,
        # so each run is formatted at most twice per cycle. spans goes
        # first: zip must not draw a name past the cycle's last vertex.
        lo_done = hi_done = None
        for (lo, a, b, hi), name in zip(spans, names):
            if lo != lo_done:
                lo_done, left = lo, "".join([f"{x}-{y}," for x, y in base[:lo]])
            if hi != hi_done:
                hi_done, right = hi, "".join([f",{x}-{y}" for x, y in base[hi:]])
            lines.append(f"{name} {left}{a}-{b}{right}")
    return "\n".join(lines) + "\n"


def _parse_header(line: str, magic: str, keys: tuple[str, ...]) -> dict[str, int]:
    """Integer fields `keys` of a header line that starts with the words of `magic`."""
    tokens = line.split()
    words = magic.split()
    fmt = words[0]
    if len(tokens) != len(words) + len(keys) or tokens[: len(words)] != words:
        raise FormatError(f"bad {fmt} header: {line!r}")
    out = {}
    for token, key in zip(tokens[len(words) :], keys):
        name, sep, value = token.partition("=")
        if name != key or not sep:
            raise FormatError(f"bad {fmt} header field {token!r} (expected {key}=)")
        try:
            out[key] = int(value)
        except ValueError as exc:
            raise FormatError(f"bad {fmt} header field {token!r}") from exc
    return out


def pointset_from_text(text: str) -> PointSet:
    """Parse a P1 file, rebuilding and verifying against the canonical construction.

    The returned point set is the in-memory construction; any divergence of
    the file from it (order, addresses, labels, counts) is a FormatError. A
    file equal to the canonical text is accepted with one comparison and no
    label object; any other file is checked line by line, which accepts
    valid non-canonical spellings and names the first bad line.
    """
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty point-set file")
    head = _parse_header(lines[0], "P1", ("k", "n", "N", "dim"))
    try:
        params = GraphParams(head["k"], head["n"])
    except ValueError as exc:
        raise FormatError(f"bad parameters in header: {exc}") from exc
    if head["N"] != vertex_count(params) or head["dim"] != params.label_length:
        raise FormatError("header N/dim inconsistent with k and n")
    if len(lines) != head["N"] + 1:
        raise FormatError(f"expected {head['N']} vertex lines, found {len(lines) - 1}")
    ps = point_set(build_graph(params))
    canonical = pointset_to_text(ps)
    if text == canonical:
        return ps
    rows = zip(canonical.splitlines()[1:], lines[1:])
    for lineno, (want, line) in enumerate(rows, start=2):
        if line == want:
            continue
        tokens = line.split(" ")
        if len(tokens) != 2:
            raise FormatError(f"line {lineno}: expected '<address> <intervals>'")
        # Canonical tokens need no parse; any other spelling must parse equal.
        name, intervals = want.split(" ")
        if tokens[0] != name and parse_address(tokens[0], params) != ps.addresses[lineno - 2]:
            raise FormatError(f"line {lineno}: address {tokens[0]!r} out of canonical order")
        if (
            tokens[1] != intervals
            and _parse_intervals(tokens[1], params.label_length) != ps.labels[lineno - 2]
        ):
            raise FormatError(f"line {lineno}: label does not match the construction")
    return ps
