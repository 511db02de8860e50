"""The recursive-cycle point set P(k, n): one graph object and its binary labels.

The family is parameterized by a half-cycle length k >= 2 and a recursion
depth n >= 1. Depth 1 is a single cycle of length 2k with two distinguished
antipodal vertices ("left" and "right"); every deeper level replaces each
edge with a fresh cycle of length 2k whose distinguished vertices are
identified with the edge's endpoints. We treat the whole structure as the
n-fold refinement of a single virtual root edge (left, right), which gives
every vertex a canonical address: the edge path of the cycle that created
it plus its position along that cycle.

Each vertex carries a bit vector of length k**n, held as packed uint64
words (oracle's references give it as ones-intervals). Adjacent vertices
differ in exactly one bit, and the two ends of any level-l cycle diameter
differ in exactly k**(n-l+1) bits. The set of all labels is the point
set consumed by the certifier; one RecursiveCycleGraph holds it beside
the names and edges, all derived from (k, n) on first read.

Edges are labeled by coordinate tuples in [2k]**n (outermost level first)
and oriented toward the local right vertex: on a cycle refining the
oriented edge (tail, head), edge b in 1..k runs up the top path and edge
b+k runs along the bottom path toward the head. All types are immutable
after construction and all operations are pure.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Reject parameters whose edge count would leave the exact 64-bit range.
MAX_EDGE_CAPACITY = 2**48
# Largest graph build_graph will materialize. The parameters, vertex_count
# and the dimension bound need no graph and work far beyond it.
MAX_MATERIALIZED_EDGES = 2**22
# Elements in one tile or row block's temporary in the all-pairs passes:
# 512 KB of 8-byte values, which fits a 2 MB L2 cache beside the tile's
# label distances. At d=16 (8 x 512 tiles) the distortion pass ran faster
# with it than with 2**14 or 2**15 at both N=2,732 and N=10,924; 2**17 was
# faster still but held more than N*N/4 floats at N=684.
BLOCK_ELEMENTS = 2**16
# Characters (the formats are ASCII: bytes) in one block of whole lines of
# the P1 writer and the P1 and L1EMB readers; only a last block is
# shorter. A file of one block holds a copy of itself beside its lines and
# its rows twice: at 2**20 the 0.9 MB L1EMB read of P(2,6), d=16 peaked
# 0.8 MB above a single np.loadtxt of its lines, at 2**18 0.1 MB below it.
TEXT_BLOCK = 2**18


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


def _decimal(token: str) -> int:
    """The value of a token of ASCII digits; int() also reads signs, "_", spaces, other digits."""
    if not (token.isascii() and token.isdigit()):
        raise ValueError(f"not a decimal number: {token!r}")
    return int(token)


def _split(name: str) -> tuple[tuple[int, ...], int]:
    """The (edge path, cycle position) of an inner vertex name "e1.e2/<pos>"."""
    head, _, q = name.rpartition("/")
    return tuple(_decimal(c) for c in head.split(".")) if head else (), _decimal(q)


def _name(path: tuple[int, ...], q: int) -> str:
    """The canonical name of cycle position q on the cycle refining `path`."""
    return ".".join(map(str, path)) + f"/{q}"


def parse_address(text: str, params: GraphParams) -> str:
    """The canonical spelling of an address ("L", "R", or "e1.e2/<pos>"), validated."""
    if text in ("L", "R"):
        return text
    if "/" not in text:
        raise FormatError(f"bad vertex address {text!r}")
    try:
        path, position = _split(text)
    except ValueError as exc:
        raise FormatError(f"bad vertex address {text!r}") from exc
    cyc = params.cycle_length
    if len(path) >= params.n or any(not 1 <= c <= cyc for c in path):
        raise FormatError(f"edge path out of range in address {text!r}")
    if not 1 <= position <= cyc - 1 or position == params.k:
        raise FormatError(f"position out of range in address {text!r}")
    return _name(path, position)


def check_address(token: str, name: str, params: GraphParams) -> None:
    """Raise FormatError unless `token` spells the address whose canonical form is `name`.

    The canonical spelling needs no parse; any other must parse to it.
    """
    if token != name and parse_address(token, params) != name:
        raise FormatError(f"address {token!r} out of canonical order")


@dataclass(frozen=True, eq=False)
class RecursiveCycleGraph:
    """P(k, n): the graph and its labels, determined by its params and flip_bottom alone.

    `flip_bottom` is a debug hook that reverses every bottom-path edge, so
    the self test can show that the identity-embedding equality check pins
    the orientation convention. A vertex is row i of every array,
    `vertices[i]`, its canonical address ("L" and "R" for the root edge's
    ends, "e1.e2/<q>" for position q of the cycle refining edge path
    e1.e2), and column i of `_bitplanes`, its label. All else is derived
    from `params` on first read: the names `vertices` in export order
    (creation level, then lexicographic edge path, then position), the
    edges `level_edges` and `edges`, and the labels `_bitplanes`. The
    labels are held in one form, packed bits, built from the level walk
    _levels, so no program path builds a label object: `certify`,
    `identity_embedding` and the self test read the bits, the P1 writer
    builds the canonical text from the same walk, and the P1 reader
    compares with it. Per-vertex `oracle.IntervalLabel`s come only from
    the reference `oracle._label_of`.
    """

    params: GraphParams
    flip_bottom: bool = False

    # perfbench/harness.py's check_files and EdgesLarge read `.graph` of a parsed P1 file.
    graph = property(lambda self: self)
    # perfbench/harness.py's run_ladder keys make_embedding's dict by `.addresses`.
    addresses = property(lambda self: self.vertices)

    def __len__(self) -> int:
        return vertex_count(self.params)

    @cached_property
    def vertices(self) -> tuple[str, ...]:
        """Every vertex name in export order, built from path-prefix strings."""
        k, cyc, n = self.params.k, self.params.cycle_length, self.params.n
        positions = [f"/{q}" for q in range(1, cyc) if q != k]
        names = ["L", "R"]
        for paths in level_prefixes(k, n):
            names += [path + pos for path in paths for pos in positions]
        return tuple(names)

    @cached_property
    def level_edges(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Per level l = 1..n, read-only (tail, head) vertex-index arrays.

        Entry l-1 holds the (2k)**l level-l edges in lexicographic
        coordinate order, as indices into `vertices`, oriented as
        edge_endpoints orients them (flip_bottom included).
        """
        k = self.params.k
        ends = _edge_ends(k, self.flip_bottom)
        out = []
        for _, first, tails, heads, _, _ in _levels(self.params):
            tail, head = _edge_rows(first, tails.astype(np.intp), heads.astype(np.intp), k, ends)
            tail.flags.writeable = False
            head.flags.writeable = False
            out.append((tail, head))
        return tuple(out)

    @cached_property
    def edges(self) -> dict[tuple[int, ...], tuple[str, str]]:
        """Every full-depth coordinate tuple mapped to its oriented (tail, head).

        Built from the last level of `level_edges` on first read; the
        generate, parse and certify paths never read it.
        """
        tail, head = self.level_edges[-1]
        v = self.vertices
        coords = itertools.product(range(1, self.params.cycle_length + 1), repeat=self.params.n)
        return dict(zip(coords, zip([v[i] for i in tail.tolist()], [v[i] for i in head.tolist()])))

    @cached_property
    def _bitplanes(self) -> np.ndarray:
        """Labels as little-endian uint64 words, shape (words, N): one column per vertex.

        Word-major, so per-word popcounts add as whole planes. Built level
        by level from _levels without a label object: an inner
        vertex's words are its tail's ORed with the mask of its interval.
        A level is taken in slices of cycles whose words take about
        TEXT_BLOCK bytes, as the P1 writer takes them, so the masks and
        tail gathers beside the planes stay a few slices' size.
        """
        total = self.params.label_length
        bit = 64 * np.arange(-(-total // 64))[:, None]
        # low[m] has the m lowest bits set, m = 0..64.
        low = np.array([(1 << m) - 1 for m in range(65)], dtype="<u8")

        def masks(a: np.ndarray, b: np.ndarray) -> np.ndarray:
            """The words of the ones-intervals [a, b), one column each."""
            out = low[np.clip(b - bit, 0, 64)]
            out &= ~low[np.clip(a - bit, 0, 64)]
            return out

        planes = np.empty((len(bit), len(self)), dtype="<u8")
        planes[:, :2] = masks(np.array([0, 0]), np.array([0, total]))
        for _, first, tails, _, starts, ones in _levels(self.params):
            step = max(1, TEXT_BLOCK // (8 * len(bit) * len(ones)))
            for c0 in range(0, tails.size, step):
                a, b = (starts[c0 : c0 + step, None, None] + ones).reshape(-1, 2).T
                words = masks(a, b)
                words |= planes[:, tails[c0 : c0 + step].repeat(len(ones))]
                row = first + c0 * len(ones)
                planes[:, row : row + a.size] = words
        return planes

    def label_distances(
        self, i0: int, i1: int, j0: int = 0, j1: int | None = None, dtype=np.float64
    ) -> np.ndarray:
        """Label distances of rows i0..i1-1 against columns j0..j1-1 (j1 None: N), as floats.

        Popcounts of XORed packed labels, converted to `dtype` once; each
        further word's plane is added into the first in place, so no ufunc
        casts. The float64 values are exact (at most k**n < 2**48), the
        float32 ones while k**n < 2**24.
        oracle.l1_interval_distance is the interval-merge reference.
        """
        bits = self._bitplanes
        planes = np.bitwise_count(bits[:, i0:i1, None] ^ bits[:, None, j0:j1]).astype(dtype)
        total = planes[0]
        for word in range(1, len(planes)):
            total += planes[word]
        return total

    @cached_property
    def distance_matrix(self) -> np.ndarray:
        """Exact pairwise label distances in export order (int64), one row block at a time."""
        words, n = self._bitplanes.shape
        out = np.empty((n, n), dtype=np.int64)
        step = max(1, BLOCK_ELEMENTS // (n * words))
        for i0 in range(0, n, step):
            out[i0 : i0 + step] = self.label_distances(i0, i0 + step)
        return out


def vertex_count(params: GraphParams) -> int:
    """Closed-form vertex count; always an exact integer."""
    k, n = params.k, params.n
    num = (2 * k - 2) * (2 * k) ** n + 2 * k
    count, rem = divmod(num, 2 * k - 1)
    assert rem == 0, "vertex-count closed form must be integral"
    return count


def _cycle_vertex(params: GraphParams, path: tuple[int, ...], q: int) -> str:
    """Name of cycle position q (0..2k-1) on the cycle refining `path`.

    Positions 0 and k are the refined edge's own endpoints, which keep
    their older names.
    """
    if q == 0:
        return _edge_endpoints_raw(params, path)[0]
    if q == params.k:
        return _edge_endpoints_raw(params, path)[1]
    return _name(path, q)


def _edge_endpoints_raw(params: GraphParams, prefix: tuple[int, ...]) -> tuple[str, str]:
    """Oriented endpoints of the level-len(prefix) edge, canonical convention."""
    if not prefix:
        return "L", "R"
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


def level_prefixes(k: int, levels: int):
    """Each level's dotted edge-coordinate prefixes in lexicographic order ("" for level 1)."""
    coords = [str(b) for b in range(1, 2 * k + 1)]
    prefixes = [""]
    for level in range(1, levels + 1):
        yield prefixes
        if level < levels:
            prefixes = [f"{p}.{c}" if p else c for p in prefixes for c in coords]


def _levels(params: GraphParams):
    """Every level's cycles as arrays: (level, first, tails, heads, starts, ones) for l = 1..n.

    Cycle c of level l refines the c-th level-(l-1) edge in lexicographic order; its
    2k-2 inner vertices are rows first + c*(2k-2) onward. tails[c] and heads[c] are the
    rows of that edge's canonical (never flipped) tail and head, and starts[c] the start
    of its coordinate block, where the tail's label is all zeros; the i-th inner vertex's
    label adds [starts[c] + a, starts[c] + b) for (a, b) = ones[i]. The next level's tails
    and heads are this level's edge ends (_edge_rows). The three arrays are int32:
    build_graph's graphs have under 2**22 rows and label bits.
    """
    assert max(vertex_count(params), params.label_length) <= np.iinfo(np.int32).max
    k, n, cyc = params.k, params.n, params.cycle_length
    inner = [q for q in range(1, cyc) if q != k]
    ends = _edge_ends(k, False)
    # Block offset of edge b inside its parent's block, in sub-block units.
    offsets = np.array([k - (b if b <= k else b - k) for b in range(1, cyc + 1)], np.int32)
    tails, heads = np.zeros(1, dtype=np.int32), np.ones(1, dtype=np.int32)
    starts, first = np.zeros(1, dtype=np.int32), 2
    for level in range(1, n + 1):
        sub = k ** (n - level)
        # Top q < k has the last q sub-blocks, bottom q the first 2k-q.
        ones = [((k - q) * sub, k * sub) if q < k else (0, (cyc - q) * sub) for q in inner]
        yield level, first, tails, heads, starts, np.array(ones)
        if level < n:
            starts = (starts[:, None] + offsets * sub).ravel()
            tails, heads = _edge_rows(first, tails, heads, k, ends)
            first += tails.size // cyc * (cyc - 2)  # the new rows of the level just walked


def _edge_rows(first: int, tails: np.ndarray, heads: np.ndarray, k: int, ends) -> tuple:
    """(tail, head) rows of edge b = 1..2k of each cycle of a level of _levels, cycle-major.

    Taken at `ends` (_edge_ends) from the level's cycle rows (_cycle_vertex for a level):
    position q at [q // k, q % k] of a (cycles, 2, k) array holds the tails at 0, heads at
    k, new rows from `first` on elsewhere; take, not a fancy index, so ravel copies nothing.
    """
    rows = tails.size
    cycles = np.empty((rows, 2, k), dtype=tails.dtype)
    cycles[:, 0, 0], cycles[:, 1, 0] = tails, heads
    cycles[:, :, 1:] = np.arange(first, first + rows * (2 * k - 2)).reshape(rows, 2, -1)
    cycles = cycles.reshape(rows, 2 * k)
    return cycles.take(ends[0], axis=1).ravel(), cycles.take(ends[1], axis=1).ravel()


def _edge_ends(k: int, flip_bottom: bool) -> tuple[list[int], list[int]]:
    """The cycle positions of the tail and head of edge b = 1..2k.

    Top edge b runs from position b-1 to b, bottom edge b from position
    b mod 2k to b-1 (see _edge_endpoints_raw); flip_bottom swaps the latter.
    """
    tails = [*range(k), *range(k + 1, 2 * k), 0]
    heads = [*range(1, k + 1), *range(k, 2 * k)]
    if flip_bottom:
        tails, heads = tails[:k] + heads[k:], heads[:k] + tails[k:]
    return tails, heads


def _validate_prefix(params: GraphParams, prefix: tuple[int, ...]) -> tuple[int, ...]:
    prefix = tuple(int(c) for c in prefix)
    if len(prefix) > params.n:
        raise ValueError(f"prefix longer than depth n={params.n}: {prefix}")
    for c in prefix:
        if not 1 <= c <= params.cycle_length:
            raise ValueError(f"edge coordinate {c} out of range 1..{params.cycle_length}")
    return prefix


def edge_endpoints(graph: RecursiveCycleGraph, prefix: tuple[int, ...]) -> tuple[str, str]:
    """Oriented (tail, head) of the level-l edge named by a coordinate prefix.

    The empty prefix names the root edge (L, R). The head is the endpoint
    geometrically closer to the right vertex along its own path.
    """
    prefix = _validate_prefix(graph.params, prefix)
    tail, head = _edge_endpoints_raw(graph.params, prefix)
    if graph.flip_bottom and prefix and prefix[-1] > graph.params.k:
        tail, head = head, tail
    return tail, head


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
            f"(limit {MAX_MATERIALIZED_EDGES}); the parameters, vertex_count "
            "and `l1cert bound` need no graph"
        )
    return RecursiveCycleGraph(params, flip_bottom)


# perfbench/harness.py's TARGETS wraps PointSet.distance_matrix.
PointSet = RecursiveCycleGraph


# perfbench/harness.py's TARGETS wraps point_set, and probe_check.py's "interpreted" probe
# times the distance_matrix of a new copy every round, so the copy caches nothing.
def point_set(graph: RecursiveCycleGraph) -> RecursiveCycleGraph:
    return RecursiveCycleGraph(graph.params, graph.flip_bottom)


def _parse_intervals(text: str) -> tuple[tuple[int, int], ...]:
    """The (a, b) pairs of a P1 interval token as written, for comparison with canonical ones."""
    if text == "-":
        return ()
    parts = []
    for chunk in text.split(","):
        a, sep, b = chunk.partition("-")
        if not sep:
            raise FormatError(f"bad interval {chunk!r}")
        try:
            parts.append((_decimal(a), _decimal(b)))
        except ValueError as exc:
            raise FormatError(f"bad interval {chunk!r}") from exc
    return tuple(parts)


def _digit_words(top: int) -> np.ndarray:
    """The decimal digits of 0..top as little-endian words, the first digit in the lowest byte."""
    # A separator byte goes below the digits, so at most 7 of them fit a word.
    assert top < 10**7, "numbers of more than 7 digits"
    x = np.arange(top + 1, dtype="<u8")
    words = x % 10 + ord("0")
    x //= 10
    while x.any():
        words = np.where(x > 0, words << 8 | x % 10 + ord("0"), words)
        x //= 10
    return words


def _inserted(base: np.ndarray, starts: np.ndarray, ones: np.ndarray) -> np.ndarray:
    """The ones-intervals of every inner vertex of m cycles, shape (m, 2k-2, w, 2).

    base (m, w, 2) holds the intervals of each cycle's tail, padded on the
    right with pad intervals that sort after every real one; the last
    column is always pad. Each vertex's interval [start + a, start + b)
    for (a, b) in `ones` goes in at the index of the first tail interval
    right of its block and is merged only with a neighbour it touches: a
    top vertex's interval ends at the block's end, so it can merge only
    right, and a bottom vertex's starts at the block's start, so only left.
    """
    m, w = base.shape[:2]
    tops = np.arange(len(ones)) < len(ones) // 2
    new = starts[:, None, None] + ones
    end = starts + ones[0, 1]  # the block's end, where every top interval ends
    at = (base[:, :, 0] < starts[:, None]).sum(axis=1)
    cycle = np.arange(m)
    right, left = base[cycle, at], base[cycle, at - 1]  # column -1 is pad
    merge_right, merge_left = right[:, 0] == end, left[:, 1] == starts
    new[:, tops, 1] = np.where(merge_right, right[:, 1], end)[:, None]
    new[:, ~tops, 0] = np.where(merge_left, left[:, 0], starts)[:, None]
    # Each vertex's interval lands at column `pos`; the tail intervals right
    # of it shift one column right, less the one it absorbs.
    pos = np.where(tops, at[:, None], (at - merge_left)[:, None])[..., None]
    merged = np.where(tops, merge_right[:, None], merge_left[:, None])[..., None]
    col = np.arange(w)
    src = np.where(col < pos, col, col - 1 + merged)
    src = np.where(col == pos, w + np.arange(len(ones))[:, None], src)
    return np.concatenate([base, new], axis=1)[cycle[:, None, None], src]


def _p1_blocks(graph: RecursiveCycleGraph):
    """The P1 text of `graph` in blocks of whole lines of about TEXT_BLOCK characters.

    Built level by level from _levels, in slices of cycles whose
    line words take about TEXT_BLOCK bytes; a block is yielded once it has
    TEXT_BLOCK characters. Only the vertices above depth n keep their
    intervals (`held`, padded rows), as the next level's tails; _inserted
    builds each slice's rows from its tails' rows. A line is one row of
    8-byte words, each a separator and a number in ASCII padded with NUL
    bytes, and one translate strips the NULs of a whole slice.
    oracle._label_of is the per-vertex reference.
    """
    p = graph.params
    k, n, total, cyc = p.k, p.n, p.label_length, p.cycle_length
    digits = _digit_words(max(total, cyc))
    # Interval words: row 0 " a" (a first start), row 1 ",a" (a later one),
    # row 2 "-b" (an end); column pad = total + 1 is the empty word.
    pad = total + 1
    table = np.zeros((3, pad + 1), dtype="<u8")
    table[:, :pad] = digits[:pad] << 8 | np.array([ord(" "), ord(","), ord("-")], "<u8")[:, None]
    # Every number is below 10**7 (see _digit_words), so int32 holds it.
    above = vertex_count(GraphParams(k, n - 1)) if n > 1 else 2
    held = np.full((above, n, 2), pad, dtype=np.int32)
    held[1, 0] = 0, total
    # "/q" for the inner cycle positions q in export order.
    slash = digits[[q for q in range(1, cyc) if q != k]] << 8 | ord("/")
    chunks = [f"P1 k={k} n={n} N={len(graph)} dim={total}\n", "L -\n", f"R 0-{total}\n"]
    size = sum(map(len, chunks))
    for level, first, tails, _, starts, ones in _levels(p):
        # A line: level - 1 path words ("c", ".c", ...), "/q", 2 * level
        # interval words (pad after the last interval) and "\n".
        width = 3 * level + 1
        powers = cyc ** np.arange(level - 2, -1, -1)
        dots = np.full(level - 1, ord("."), dtype="<u8")
        dots[:1] = 0
        seps = np.array([[0, 2]] + [[1, 2]] * (level - 1))
        step = max(1, TEXT_BLOCK // (8 * width * (cyc - 2)))
        for c0 in range(0, tails.size, step):
            cycles = np.arange(c0, min(c0 + step, tails.size))
            iv = _inserted(held[tails[cycles], :level], starts[cycles], ones)
            if level < n:
                row = first + c0 * (cyc - 2)
                held[row : row + iv.shape[0] * (cyc - 2), :level] = iv.reshape(-1, level, 2)
            words = np.empty((cycles.size, cyc - 2, width), dtype="<u8")
            path = digits[cycles[:, None] // powers % cyc + 1] << 8 | dots
            words[:, :, : level - 1] = path[:, None]
            words[:, :, level - 1] = slash
            words[:, :, level:-1] = table[seps, iv].reshape(cycles.size, cyc - 2, -1)
            words[:, :, -1] = ord("\n")
            chunks.append(words.tobytes().translate(None, b"\0").decode("ascii"))
            size += len(chunks[-1])
            if size >= TEXT_BLOCK:
                yield "".join(chunks)
                chunks, size = [], 0
    yield "".join(chunks)


def pointset_to_text(graph: RecursiveCycleGraph) -> str:
    """Serialize in the P1 text format (header plus one vertex per line).

    Beside the text it holds the intervals of the vertices above depth n,
    the last level's per-cycle arrays and a few blocks of about TEXT_BLOCK
    characters.
    """
    return "".join(_p1_blocks(graph))


def pointset_to_file(graph: RecursiveCycleGraph, path) -> None:
    """Write the P1 text of `graph` to `path`, holding one block of it at a time."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(_p1_blocks(graph))


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
            out[key] = _decimal(value)
        except ValueError as exc:
            raise FormatError(f"bad {fmt} header field {token!r}") from exc
    return out


def _p1_params(line: str) -> GraphParams:
    """The parameters of a P1 header line, checked against its N and dim."""
    head = _parse_header(line, "P1", ("k", "n", "N", "dim"))
    try:
        params = GraphParams(head["k"], head["n"])
    except ValueError as exc:
        raise FormatError(f"bad parameters in header: {exc}") from exc
    if head["N"] != vertex_count(params) or head["dim"] != params.label_length:
        raise FormatError("header N/dim inconsistent with k and n")
    return params


# The line breaks str.splitlines knows; CRLF comes first, so it is matched whole.
_LINE_BREAK = re.compile("\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def _line_at(text: str, pos: int) -> tuple[str, int]:
    """The line at pos < len(text) as str.splitlines ends it, and where the next line starts."""
    end = _LINE_BREAK.search(text, pos)
    return (text[pos:], len(text)) if end is None else (text[pos : end.start()], end.end())


def _line_blocks(text: str, pos: int):
    """text[pos:].splitlines(), a list per block of whole lines of at least TEXT_BLOCK characters.

    A block ends just after the first line break splitlines knows that ends
    at or past its TEXT_BLOCK-th character, whatever the file's line ends;
    a CRLF is matched whole, so none is cut at a block's edge.
    """
    while pos < len(text):
        end = _LINE_BREAK.search(text, pos + TEXT_BLOCK - 1)
        end = len(text) if end is None else end.end()
        yield text[pos:end].splitlines()
        pos = end


def _check_line_count(text: str, total: int, kind: str) -> None:
    """Raise the FormatError of a text of other than `total` lines, as str.splitlines counts them."""
    found = sum(map(len, _line_blocks(text, 0)))
    if found != total:
        raise FormatError(f"expected {total - 1} {kind} lines, found {found - 1}")


def pointset_from_text(text: str) -> RecursiveCycleGraph:
    """Parse a P1 file, rebuilding and verifying against the canonical construction.

    The returned graph is the in-memory construction; any divergence of
    the file from it (order, addresses, labels, counts) is a FormatError.
    The file is compared in place with the blocks of _p1_blocks, one block
    at a time; only the lines of a block that differs are compared line by
    line (_check_p1_lines), and the next block is compared in place again,
    so one respelled token costs one block's line checks. A wrong line
    count is reported before any line error.
    """
    if not text:
        raise FormatError("empty point-set file")
    params = _p1_params(_line_at(text, 0)[0])
    total = vertex_count(params) + 1
    # A short file naming a large graph is refused before the graph is built.
    if text.count("\n") + (text[-1] != "\n") != total:
        _check_line_count(text, total, "vertex")
    graph = build_graph(params)
    pos, start = 0, 1
    try:
        for block in _p1_blocks(graph):
            if text.startswith(block, pos):
                pos += len(block)
            else:
                pos = _check_p1_lines(text, pos, block, params, start)
            start += block.count("\n")
    except FormatError:
        _check_line_count(text, total, "vertex")
        raise
    if pos < len(text):
        _check_line_count(text, total, "vertex")  # a line past line N + 1
    return graph


def _check_p1_lines(text: str, pos: int, block: str, params: GraphParams, start: int) -> int:
    """Check the lines of `text` from `pos` against those of the canonical `block`; where they end.

    The file's lines are split, breaks kept, off a slice one character a
    line longer than the block (room for CRLF ends), twice as long until
    it holds one line more than the block, so that the block's m lines
    end whole in it; pointset_from_text's line count makes sure there are
    enough. They end at `pos` plus the lengths of the first m lines, and
    are compared one by one, the first being line `start` of the file. A
    token that differs from its canonical one is parsed and compared with
    it, which accepts valid non-canonical spellings, names the bad line and
    builds no label and at most one address a line. The header, line 1,
    is checked by its fields.
    """
    wants = block.splitlines()
    size = len(block) + len(wants) + 2
    lines = text[pos : pos + size].splitlines(keepends=True)
    while len(lines) <= len(wants) and pos + size < len(text):
        size *= 2
        lines = text[pos : pos + size].splitlines(keepends=True)
    end = pos + sum(map(len, lines[: len(wants)]))
    haves = text[pos:end].splitlines()
    if haves == wants:  # one comparison where only the line breaks differ
        return end
    for lineno, (want, line) in enumerate(zip(wants, haves), start=start):
        if line == want or lineno == 1:
            continue
        try:
            tokens = line.split(" ")
            if len(tokens) != 2:
                raise FormatError("expected '<address> <intervals>'")
            # Canonical tokens need no parse; any other spelling must parse equal.
            name, intervals = want.split(" ")
            address, spans = tokens
            check_address(address, name, params)
            if spans != intervals and _parse_intervals(spans) != _parse_intervals(intervals):
                raise FormatError("label does not match the construction")
        except FormatError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
    return end
