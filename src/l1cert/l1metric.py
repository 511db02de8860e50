"""L1 distances, embeddings of a point set, distortion reports, and the search.

Label distances are exact integers; embedded distances are floats.
Distortion is the scale-invariant product of the worst expansion ratio
and the worst contraction ratio over all vertex pairs, so distortion 1
means an isometry up to scale. The local search for low-distortion
embeddings runs on the same all-pairs kernel, so this module alone knows
the kernel's plane layout, summation order and ufunc buffer.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .pointset import (
    BLOCK_ELEMENTS,
    CapacityError,
    FormatError,
    GraphParams,
    RecursiveCycleGraph,
    _check_line_count,
    _line_at,
    _line_blocks,
    _name,
    _parse_header,
    _split,
    build_graph,
    check_address,
    vertex_count,
)


class DegenerateEmbeddingError(ValueError):
    """Two distinct points share an embedded vector (or all points do)."""


@dataclass(frozen=True, eq=False)
class Embedding:
    """Vectors in R**dimension: one row of the read-only (N, d) `matrix` per vertex.

    Row i is the vector of the vertex named `graph.vertices[i]`: the
    rows follow the graph's export order, so no name is looked up to read
    them. The matrix is held as float64, so an embedding certifies the
    same as its L1EMB text; a float64 matrix is kept without a copy. A
    shape other than (vertex count, d >= 1) and non-finite entries are
    rejected.
    `vectors` is the name-keyed view that the slow references and the
    tests read; the array paths never build it.
    """

    matrix: np.ndarray
    graph: RecursiveCycleGraph

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=np.float64))
        if self.matrix.ndim != 2 or self.matrix.shape[1] < 1:
            shape = self.matrix.shape
            raise ValueError(f"embedding matrix must be (N, d) with d >= 1, got shape {shape}")
        rows = vertex_count(self.graph.params)
        if self.matrix.shape[0] != rows:
            raise ValueError(f"embedding has {self.matrix.shape[0]} rows for {rows} vertices")
        # NaN propagates through min and max; the row mask is built only on failure.
        if not (math.isfinite(self.matrix.min()) and math.isfinite(self.matrix.max())):
            finite = np.isfinite(self.matrix).all(axis=1)
            name = self.graph.vertices[int(finite.argmin())]
            raise ValueError(f"non-finite entries in vector for {name}")
        self.matrix.flags.writeable = False

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def vectors(self) -> Mapping[str, np.ndarray]:
        """Read-only vertex name -> row view, built on first read (for references and tests)."""
        return MappingProxyType(dict(zip(self.graph.vertices, self.matrix)))


def _inner_shape(key) -> tuple[int, int] | None:
    """(creation level, position) of a key spelled as a canonical inner vertex name, else None."""
    if not isinstance(key, str):
        return None
    try:
        path, q = _split(key)
    except ValueError:
        return None
    if min((*path, q)) < 1 or _name(path, q) != key:
        return None
    return len(path) + 1, q


def make_embedding(vectors) -> Embedding:
    """Stack a mapping vertex name -> vector into rows in the export order of its P(k, n).

    n is the deepest creation level among the keys spelled as canonical
    inner names, and k follows from their largest position, which is
    2k - 1. The mapping's own order does not matter; a mapping that misses
    a vertex of that graph or has any other key (another graph's name, a
    non-canonical spelling, a non-string) is a ValueError.
    """
    inner = [shape for shape in map(_inner_shape, vectors) if shape]
    if not inner:
        raise ValueError("embedding must cover at least one inner vertex")
    k = (max(q for _, q in inner) + 1) // 2
    graph = build_graph(GraphParams(k, max(level for level, _ in inner)))
    missing = [v for v in graph.vertices if v not in vectors]
    if missing:
        raise ValueError(f"embedding does not cover {len(missing)} vertices, e.g. {missing[0]}")
    if len(vectors) != len(graph.vertices):
        known = set(graph.vertices)
        foreign = [a for a in vectors if a not in known]
        raise ValueError(
            f"embedding names {len(foreign)} vertices outside P({k}, {graph.params.n}), "
            f"e.g. {foreign[0]}"
        )
    rows = []
    for name in graph.vertices:
        arr = np.asarray(vectors[name], dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError(f"vector for {name} must be one-dimensional and non-empty")
        if rows and arr.size != rows[0].size:
            raise ValueError("embedding vectors have inconsistent lengths")
        rows.append(arr)
    return Embedding(np.stack(rows), graph)


def identity_embedding(graph: RecursiveCycleGraph) -> Embedding:
    """The packed labels unpacked as vectors in R**(k**n); an isometry by construction."""
    rows = np.ascontiguousarray(graph._bitplanes.T).view(np.uint8)
    bits = np.unpackbits(rows, axis=1, count=graph.params.label_length, bitorder="little")
    return Embedding(bits.astype(np.float64), graph)


def scale_embedding(emb: Embedding, factor: float) -> Embedding:
    return Embedding(emb.matrix * factor, emb.graph)


def vertex_matrix(graph: RecursiveCycleGraph, emb: Embedding) -> np.ndarray:
    """The embedding's matrix, once its graph is checked to have `graph`'s params.

    The rows are in export order, so equal params mean the same vertices
    in the same order; an embedding of another P(k, n) is a ValueError.
    """
    have, want = emb.graph.params, graph.params
    if have != want:
        raise ValueError(
            f"embedding is for k={have.k} n={have.n}, graph has k={want.k} n={want.n}"
        )
    return emb.matrix


# The order of numpy's eight partial sums within a group of 8 terms, bit-reversed:
# ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)) pairs r[p] with r[p + 4], then r[p]
# with r[p + 2], then r[0] with r[1] when r is stored in this order.
_BIT_REVERSED = (0, 4, 2, 6, 1, 5, 3, 7)


def _plane_order(d: int) -> np.ndarray:
    """The coordinate stored as each of the d coordinate planes of the all-pairs passes.

    The identity, except that each full group of 8 planes, 8g to 8g + 7,
    holds its coordinates in _BIT_REVERSED order, so that _sum_planes
    adds contiguous halves; a last group of fewer than 8 planes is in
    natural order. The order is its own inverse: planes[_plane_order(d)]
    is in natural order again.
    """
    order = np.arange(d)
    full = d - d % 8
    order[:full] = (np.arange(0, full, 8)[:, None] + _BIT_REVERSED).ravel()
    return order


def _coordinate_planes(points: np.ndarray) -> np.ndarray:
    """The (N, d) `points` as a contiguous (d, N) array of coordinate planes in _plane_order."""
    return np.ascontiguousarray(points.T[_plane_order(points.shape[1])])


def _sum_planes(planes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The sum of planes stored in _plane_order, in the order numpy sums a contiguous axis.

    numpy >= 2.0's add.reduce sums fewer than 8 terms of a contiguous axis
    in sequence; 8 to 128 terms as eight stride-8 partial sums r0..r7,
    combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then the remaining
    terms in sequence; more terms as two halves split at a multiple of 8,
    each summed so, then added. Following it plane by plane makes every
    entry bit-identical to the sum of that entry's terms laid out
    contiguously in natural order, that is, to `np.abs(a - b).sum()` for a
    pair of vectors. The partial sums are stored bit-reversed, so their
    pairs are the contiguous halves r[:4] + r[4:], then r[:2] + r[2:4],
    then r[0] + r[1]: the same pairs as numpy's, without strided views.
    With `out`, the sum is written there and `out` is returned. Without
    it, one plane is its own sum, returned as planes[0]; 2 to 7 planes are
    one add.reduce over the plane axis, which numpy sums in sequence, into
    a new array; more are added into planes[0] in place, and the sum is
    planes[0]. From 8 planes on, the planes are overwritten.
    """
    n = len(planes)
    if n == 1 and out is None:
        return planes[0]
    if n < 8:
        return np.add.reduce(planes, axis=0, out=out)
    if n > 128:
        half = n // 2 - n // 2 % 8
        head = _sum_planes(planes[:half])
        return np.add(head, _sum_planes(planes[half:]), out=head if out is None else out)
    rest = n - n % 8
    r = planes[:8]
    for i in range(8, rest, 8):
        np.add(r, planes[i : i + 8], out=r)
    np.add(r[:4], r[4:], out=r[:4])
    np.add(r[:2], r[2:4], out=r[:2])
    acc = np.add(r[0], r[1], out=r[0] if out is None else out)
    for plane in planes[rest:]:
        np.add(acc, plane, out=acc)
    return acc


def _tile_shape(n: int, d: int, words: int = 0) -> tuple[int, int]:
    """(rows, cols) of the tiles of the all-pairs passes over n points in R**d.

    Tiles are 512 columns wide: numpy pays a fixed cost per call and per
    tile row, small next to rows of 512, where rows of 64 made the
    subtraction three times slower per element. The rows take what is
    left of BLOCK_ELEMENTS for max(d, words) planes, words being the label
    words per pair a caller holds beside each tile; there is at least one
    row, and neither side exceeds the n - 1 rows or columns there are.
    These are the float64 tiles; distortion screens in float32 tiles of
    _screen_rows rows, up to twice as tall, in the same buffer.
    """
    cols = max(1, min(n - 1, 512))
    return max(1, min(n - 1, BLOCK_ELEMENTS // (max(d, words) * cols))), cols


def _screen_rows(n: int, rows: int, cols: int, words: int) -> int:
    """Rows of distortion's float32 screen tiles, for float64 tiles of _tile_shape (rows, cols).

    Twice the float64 rows, so that a float32 tile fills the d * rows * cols
    float64 buffer it is taken in, within the n - 1 rows there are; at
    most cols, so that a tile side meets at most two of _screen_points'
    weight blocks and a strip's first tile holds both orders of each pair
    j < i it reaches; and at most BLOCK_ELEMENTS // (words * cols), so that
    a screen tile's XORed label words, `words` uint64 a pair, take no more
    than BLOCK_ELEMENTS, as a float64 tile's do, where words > d / 2.
    Never fewer than rows.
    """
    return max(rows, min(n - 1, 2 * rows, cols, BLOCK_ELEMENTS // (words * cols)))


def _l1_tile(planes: np.ndarray, flat: np.ndarray, i0: int, i1: int, j0: int, j1: int):
    """L1 distances of columns i0..i1-1 against j0..j1-1 of coordinate-major `planes`.

    `planes` holds the coordinates in _plane_order (_coordinate_planes).
    The (d, rows, cols) differences are taken in the flat buffer `flat`
    of planes' dtype (subtract, then abs in place) and their d planes are
    added by _sum_planes, so each pair's distance equals
    np.abs(points[i] - points[j]).sum() bit for bit in that dtype. The
    result is a new array for 1 < d < 8 and otherwise a view of `flat`
    (at d = 1 the differences themselves), valid until `flat` is next
    written: every caller reads it before its next tile.
    """
    buf = flat[: planes.shape[0] * (i1 - i0) * (j1 - j0)].reshape(-1, i1 - i0, j1 - j0)
    np.subtract(planes[:, i0:i1, None], planes[:, None, j0:j1], out=buf)
    return _sum_planes(np.abs(buf, out=buf))


def _tile_bounds(n: int, rows: int, cols: int):
    """Yield (i0, i1, j0, j1) over the tiles of the pairs i < j of n points.

    A strip of rows i0..i1-1 is met against the columns from i0 + 1 on,
    cols at a time, so only a strip's first tile, the one with
    j0 == i0 + 1, holds pairs with j <= i.
    """
    for i0 in range(0, n - 1, rows):
        i1 = min(i0 + rows, n)
        for j0 in range(i0 + 1, n, cols):
            yield i0, i1, j0, min(j0 + cols, n)


@contextmanager
def _tile_numerics(**errors: str):
    """np.errstate(**errors) with numpy's smallest ufunc buffer, for the tile passes.

    numpy copies a broadcast operand through its ufunc buffer (8192
    elements by default) when the operand's rows are shorter than about a
    third of it, which made the tile subtraction three times slower. With
    a 16-element buffer that copy never pays, so the tiles are read in
    place. So small a buffer would slow a ufunc that casts; the passes use
    none. Leaving the errstate restores the buffer size.
    """
    with np.errstate(**errors):
        np.setbufsize(16)
        yield


def pairwise_l1(points: np.ndarray) -> np.ndarray:
    """All pairwise L1 distances of the rows of `points`, tile by tile.

    The tiles of _tile_bounds, each from _l1_tile over the points'
    coordinate planes in _plane_order, cover the upper triangle and are
    mirrored below it. |a - b| == |b - a| exactly and each pair is summed
    in numpy's order for a contiguous axis, so this equals
    np.abs(points[:, None] - points[None]).sum(axis=-1).
    """
    n, d = points.shape
    rows, cols = _tile_shape(n, d)
    planes = _coordinate_planes(points)
    flat = np.empty(d * rows * cols)
    out = np.zeros((n, n))
    with _tile_numerics():
        for i0, i1, j0, j1 in _tile_bounds(n, rows, cols):
            tile = _l1_tile(planes, flat, i0, i1, j0, j1)
            out[i0:i1, j0:j1] = tile
            out[j0:j1, i0:i1] = tile.T
    return out


@dataclass(frozen=True)
class DistortionReport:
    """Worst expansion, worst contraction, and their product.

    expansion  = max over pairs of embedded/original distance,
    contraction = max over pairs of original/embedded distance
    (infinite when two distinct points coincide in the embedding).
    """

    expansion: float
    contraction: float
    distortion: float


def _screen_points(planes: np.ndarray, label_length: int, flat: np.ndarray, cols: int):
    """The float32 screen's inputs for coordinate-major `planes`: (points, weights), or None.

    points is the (d, N) float32 copy of the points less each coordinate's
    midrange, the subtraction made in float64, its planes in the order of
    `planes` (_plane_order). weights[b] is
    2(d+3) * 2**-24 times the largest L1 norm of the centred rows
    b * cols to (b + 1) * cols - 1: a tile side of at most cols rows or
    columns spans at most two such blocks. The blocks are centred in
    `flat`, the float64 tile buffer. None when float32 cannot bound the
    input (see distortion): d >= 2**22, labels of 2**24 bits or more, a
    nonzero centred coordinate below float32's smallest normal 2**-126,
    or a centred row norm of 2**125 or more (which includes one past the
    float range).
    """
    d, n = planes.shape
    if d >= 2**22 or label_length >= 2**24:
        return None
    centre = (planes.max(axis=1) * 0.5 + planes.min(axis=1) * 0.5)[:, None]
    points = np.empty((d, n), dtype=np.float32)
    norms = []
    smallest = math.inf
    for j0 in range(0, n, cols):
        block = flat[: d * min(cols, n - j0)].reshape(d, -1)
        np.subtract(planes[:, j0 : j0 + cols], centre, out=block)
        points[:, j0 : j0 + cols] = block
        np.abs(block, out=block)
        smallest = min(smallest, float(block.min(where=block > 0.0, initial=math.inf)))
        norms.append(float(block.sum(axis=0).max()))
    if not (smallest >= 2.0**-126 and max(norms) < 2.0**125):
        return None
    return points, [2 * (d + 3) * 2.0**-24 * norm for norm in norms]


def _screen_range(
    graph: RecursiveCycleGraph, points: np.ndarray, flat: np.ndarray, tile
) -> tuple[float, float]:
    """The least and largest float32 ratio of tile (i0, i1, j0, j1), from _screen_points' points.

    Its L1 distances come from _l1_tile in float32 in `flat`, its label
    distances from popcounts converted to float32, and the quotient is
    taken in place. Diagonal entries are 0 / 0, which fmin and fmax pass
    over; the pairs j < i of a strip's first tile repeat pairs i < j of
    the same tile bit for bit.
    """
    i0, i1, j0, j1 = tile
    ratio = graph.label_distances(i0, i1, j0, j1, np.float32)
    np.divide(_l1_tile(points, flat, i0, i1, j0, j1), ratio, out=ratio)
    return float(np.fmin.reduce(ratio, axis=None)), float(np.fmax.reduce(ratio, axis=None))


def distortion(graph: RecursiveCycleGraph, emb: Embedding) -> DistortionReport:
    """Distortion of an embedding relative to the exact label metric.

    One streaming pass over the tiles of _tile_bounds. An exact tile's
    embedded distances come from _l1_tile in float64 over the coordinate
    planes in _plane_order and equal `pairwise_l1`'s bit for bit, its
    label distances are popcounts of XORed packed labels, and both are
    folded into the worst ratios over i < j at once. Only a tile that
    reaches the diagonal is masked to its pairs i < j. Each pair's ratio
    embedded / original is taken once; rounding is monotone, so only the
    pairs at the lowest ratio so far can hold the worst contraction, and
    only they are divided the other way.
    A zero embedded distance makes the contraction infinite: a tile whose
    worst contraction is infinite is looked at for one, and counts as
    coincident points if it has one. An embedded distance or a ratio past
    float range raises OverflowError: the report would be meaningless, and
    a ratio could pass for a coincident pair.

    When there is more than one tile, the pass runs over tiles of
    _screen_rows rows, twice the float64 rows where there are enough and
    their label words fit BLOCK_ELEMENTS, and
    every tile after the first is first screened in float32: _screen_range
    takes its least and largest ratio r32 over the centred float32 points
    of _screen_points, in the bytes of the float64 tile buffer, whose
    float32 view holds a tile twice as tall. The tile is skipped only when
    max r32 + M < expansion and min r32 - M > lowest, strictly, against
    the running extremes of the exact tiles, with M the largest weight of
    the row blocks its rows meet plus that of its columns'. Otherwise it
    is folded as above in float64 sub-tiles of at most `rows` rows, r0 on,
    each from column max(j0, r0 + 1), so that a sub-tile reaching the
    diagonal is masked like a strip's first tile; a sub-tile with no pair
    i < j (the last row of the points) is not folded. Without a screen the
    tiles are the float64 ones.

    Why M bounds |r32 - r64| for a pair i, j, r64 being the exact pass's
    ratio: with u = 2**-24, D the real L1 distance, B = A'[i] + A'[j]
    and L >= 1 the label distance (exact in float32 below 2**24), every
    nonzero centred coordinate is a float32 normal, so each conversion,
    subtraction and division errs by at most u relatively, and the d-term
    sum of nonnegative terms by gamma = (d-1)u / (1 - (d-1)u) <= 4/3 (d-1)u
    for d < 2**22; D <= B (1 + 2**-52) since the centring rounds in
    float64. So |r32 - D/L| <= 5/3 (d+2) u B, plus 2**-150 if the
    quotient is subnormal. The float64 pass subtracts the raw coordinates,
    each difference rounding relative to itself, so |r64 - D/L| <= (d+1)
    2**-53 D + 2**-1075, not relative to the raw magnitudes. Both fit in
    2(d+3) u B, with room for the float64 rounding of the norms and of M,
    whenever B > 0 (then B >= 2**-126); when B = 0 both ratios are 0 and
    the strict test keeps the tile. gamma bounds a sum of d nonnegative
    terms in any order, so the bound does not depend on the order in which
    the planes are stored and added. A sum in float64 that meets
    expansion rounds to at least it, so the float comparisons
    hold for the real values: a skipped tile's exact ratios are all below
    the running expansion, which only grows, and all above the running
    lowest, which only falls.

    So skipping keeps the report bit-identical: no skipped pair holds the
    largest ratio, and none sits at the final lowest ratio; by monotone
    rounding, every pair's original / embedded is at most that of the
    pairs at the final lowest ratio, which are all folded, so the
    contraction is the same largest label / embedded over all pairs.
    Ties need the strict comparison: a pair tied with the lowest ratio can
    still hold a larger contraction.

    The screen stops paying when its redone tiles leave the extremes as
    they were: a tile that sets a new extreme had to be computed anyway,
    and those grow rare once the extremes settle, but on an exact isometry
    every ratio ties and every screened tile is redone for nothing. So it
    turns itself off for the rest of the call when a strip starts with
    more than half of the tiles screened so far redone without moving
    expansion, lowest or contraction, and it is never set up when
    _screen_points finds that float32 cannot bound the input. No N x N
    matrix is built; memory beyond the inputs is the (d, N)
    coordinate-major copy and its float32 copy, O(N * words) packed
    labels and one tile buffer of at most BLOCK_ELEMENTS float64 elements,
    shared by the float32 screen tiles and the float64 tiles. Beside it,
    a tile's label distances hold its XORed label words and their
    popcount bytes at once, then the popcounts and their float
    conversion, each at most BLOCK_ELEMENTS elements wherever one row of
    them fits, for the float64 tiles (_tile_shape) and the screen's taller
    ones (_screen_rows) alike; the fold also holds two float64 arrays over
    a float64 tile's pairs.
    """
    if len(graph) < 2:
        raise ValueError("need at least two points")
    points = vertex_matrix(graph, emb)
    n, d = points.shape
    words = graph._bitplanes.shape[0]
    rows, cols = _tile_shape(n, d, words)
    planes = _coordinate_planes(points)
    flat = np.empty(d * rows * cols)
    worst = _Worst(0.0, math.inf, 0.0, False)
    screen = None
    screened = wasted = 0
    with _tile_numerics(over="ignore", divide="ignore", invalid="ignore"):
        if rows < n - 1 or cols < n - 1:  # more than one tile
            screen = _screen_points(planes, graph.params.label_length, flat, cols)
        wide = rows if screen is None else _screen_rows(n, rows, cols, words)
        for tile in _tile_bounds(n, wide, cols):
            i0, i1, j0, j1 = tile
            if j0 == i0 + 1 and 2 * wasted > screened:
                screen = None
            before = None
            # The first tile sets the extremes the screen compares with.
            if screen is not None and worst.lowest < math.inf:
                points32, weights = screen
                lo32, hi32 = _screen_range(graph, points32, flat.view(np.float32), tile)
                margin = max(weights[i0 // cols], weights[(i1 - 1) // cols]) + max(
                    weights[j0 // cols], weights[(j1 - 1) // cols]
                )
                screened += 1
                if hi32 + margin < worst.expansion and lo32 - margin > worst.lowest:
                    continue
                before = worst
            for r0 in range(i0, i1, rows):
                c0 = max(j0, r0 + 1)
                if c0 < j1:
                    worst = _fold_tile(graph, planes, flat, (r0, min(r0 + rows, i1), c0, j1), worst)
            if worst == before:
                wasted += 1
    if math.isinf(worst.expansion):
        raise OverflowError("an embedded distance overflows the float range")
    if worst.coincident:
        return DistortionReport(worst.expansion, math.inf, math.inf)
    if math.isinf(worst.contraction):
        raise OverflowError("a label to embedded distance ratio overflows the float range")
    return DistortionReport(
        worst.expansion, worst.contraction, worst.expansion * worst.contraction
    )


class _Worst(NamedTuple):
    """The running extremes of the distortion pass over the exact tiles so far."""

    expansion: float
    lowest: float  # the lowest ratio embedded / original
    contraction: float
    coincident: bool


def _fold_tile(
    graph: RecursiveCycleGraph, planes: np.ndarray, flat: np.ndarray, tile, worst: _Worst
) -> _Worst:
    """`worst` with the exact tile (i0, i1, j0, j1) of _tile_bounds folded in (see distortion)."""
    i0, i1, j0, j1 = tile
    embedded = _l1_tile(planes, flat, i0, i1, j0, j1)
    original = graph.label_distances(i0, i1, j0, j1)
    if j0 < i1:
        upper = np.arange(j0, j1) > np.arange(i0, i1)[:, None]
        embedded, original = embedded[upper], original[upper]
    ratio = embedded / original
    expansion = max(worst.expansion, float(ratio.max()))
    low = float(ratio.min())
    if low > worst.lowest:
        return _Worst(expansion, worst.lowest, worst.contraction, worst.coincident)
    at = ratio == low
    most = float((original[at] / embedded[at]).max())
    if math.isinf(most) and (embedded[at] == 0.0).any():
        return _Worst(expansion, low, worst.contraction, True)
    return _Worst(expansion, low, max(worst.contraction, most), worst.coincident)


def normalize_lipschitz(graph: RecursiveCycleGraph, emb: Embedding) -> Embedding:
    """Rescale so no pairwise distance expands (worst expansion becomes 1)."""
    report = distortion(graph, emb)
    if report.expansion <= 0.0:
        raise DegenerateEmbeddingError("all-constant embedding cannot be normalized")
    return scale_embedding(emb, 1.0 / report.expansion)


# The search's step damping: a step covers min(1, STEP_SCALE / sqrt(t)) of its pair's residual.
STEP_SCALE = 32.0


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the local search; identical config and seed give identical output."""

    target_dimension: int
    iterations: int
    restarts: int
    seed: int

    def __post_init__(self) -> None:
        if self.target_dimension < 1:
            raise ValueError("target_dimension must be >= 1")
        if self.iterations < 1 or self.restarts < 1:
            raise ValueError("iterations and restarts must be >= 1")


@dataclass(frozen=True)
class SearchResult:
    embedding: Embedding
    report: DistortionReport
    restart: int


def search_embedding(graph: RecursiveCycleGraph, cfg: SearchConfig) -> SearchResult:
    """Local search for a low-distortion embedding into R**target_dimension.

    Each restart starts from random points and repeatedly repairs the pair
    with the worst log distance ratio: a subgradient step along the sign
    pattern of the pair's difference, sized to the pair's residual and
    damped by min(1, STEP_SCALE/sqrt(t)). Restart r uses seed+r; the best
    restart wins (ties to the lowest index). Best effort only.

    Each restart keeps its points coordinate-major, as the (d, N) planes
    in _plane_order that `pairwise_l1` and `distortion` use, and its
    embedded distances and log-ratio violations as the two planes of one
    (2, N, N) state, built once per restart. A step moves at most points
    i and j, through the views planes[:, i] and planes[:, j]: its sign and
    step are computed in one (d,) buffer, and its jitter is drawn in
    natural order and stored as draw[order], so every point takes the
    floats it would take in natural order. One refresh recomputes both
    rows as a single (d, 2, N) block in one buffer with the tile kernel's
    steps (subtract, abs in place, _sum_planes), so each pair is summed
    exactly as `pairwise_l1` sums it, the sum going straight into the
    (2, 2, N) block of both planes' rows; it then writes the rows of both
    planes at once and their mirrored columns at once. The pair's
    distance is read from the state. O(N*d) arithmetic plus one O(N**2)
    argmax per step. Each restart is reported by `distortion` over its
    final points, taken back to natural order with the same index.
    """
    n = len(graph)
    if n > 2000:
        raise CapacityError(f"point set with {n} points too large for the searcher")
    d = cfg.target_dimension
    order = _plane_order(d)
    original = graph.distance_matrix.astype(float)
    np.fill_diagonal(original, 1.0)  # placeholder; diagonal is masked out below
    scale = float(original[np.triu_indices(n, 1)].mean())
    log_original = np.log(original)
    state = np.empty((2, n, n))
    embedded, violation = state
    diff = np.empty((d, 2, n))
    move = np.empty(d)
    block = np.empty((2, 2, n))
    l1_rows, gap_rows = block
    columns = block.transpose(0, 2, 1)

    def refresh(a: int, b: int) -> None:
        """Recompute rows a < b of both planes of `state` and their mirrored columns.

        The rows are taken by a basic slice, so no copy is made.
        """
        rows = slice(a, b + 1, b - a)
        np.subtract(planes[:, rows, None], spread, out=diff)
        _sum_planes(np.abs(diff, out=diff), out=l1_rows)
        np.maximum(l1_rows, 1e-300, out=gap_rows)
        np.log(gap_rows, out=gap_rows)
        np.subtract(gap_rows, log_original[rows], out=gap_rows)
        np.abs(gap_rows, out=gap_rows)
        gap_rows[0, a] = gap_rows[1, b] = -math.inf
        state[:, rows] = block
        state[:, :, rows] = columns

    best: SearchResult | None = None
    for restart in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed + restart)
        points = rng.standard_normal((n, d)) * (scale / (2.0 * d))
        embedded[...] = pairwise_l1(points)
        planes = _coordinate_planes(points)
        spread = planes[:, None]
        violation[...] = np.abs(np.log(np.maximum(embedded, 1e-300)) - log_original)
        np.fill_diagonal(violation, -math.inf)
        with _tile_numerics():
            for t in range(1, cfg.iterations + 1):
                # i != j: the diagonal holds -inf. A jitter moves point i
                # alone; refreshing row j as well recomputes it unchanged.
                i, j = divmod(int(violation.argmax()), n)
                dist = float(embedded[i, j])
                point_i = planes[:, i]
                if dist < 1e-12:
                    point_i += rng.standard_normal(d)[order] * (1e-6 * scale)
                else:
                    point_j = planes[:, j]
                    np.sign(np.subtract(point_i, point_j, out=move), out=move)
                    moving = int(np.count_nonzero(move))
                    residual = dist - original[i, j]
                    step = min(1.0, STEP_SCALE / math.sqrt(t)) * residual / (2.0 * moving)
                    np.multiply(move, step, out=move)
                    point_i -= move
                    point_j += move
                refresh(min(i, j), max(i, j))

        # Split coincident points so the result is a genuine embedding.
        for i, j in zip(*np.nonzero(np.triu(embedded == 0.0, 1))):
            planes[:, j] += rng.standard_normal(d)[order] * (1e-9 * scale)
        emb = Embedding(np.ascontiguousarray(planes[order].T), graph)
        report = distortion(graph, emb)
        if best is None or report.distortion < best.report.distortion:
            best = SearchResult(emb, report, restart)
    return best


def embedding_to_text(graph: RecursiveCycleGraph, emb: Embedding) -> str:
    """Serialize in the L1EMB v1 text format, one vertex per line in export order."""
    p = graph.params
    lines = [f"L1EMB v1 d={emb.dimension} N={len(graph)} k={p.k} n={p.n}"]
    for name, row in zip(graph.vertices, vertex_matrix(graph, emb).tolist()):
        lines.append(name + " " + " ".join(map(repr, row)))
    return "\n".join(lines) + "\n"


def _l1emb_dimension(line: str, graph: RecursiveCycleGraph) -> int:
    """The d of an L1EMB header line, once its N, k and n are checked against `graph`."""
    head = _parse_header(line, "L1EMB v1", ("d", "N", "k", "n"))
    p = graph.params
    if head["k"] != p.k or head["n"] != p.n:
        raise FormatError(
            f"embedding is for k={head['k']} n={head['n']}, point set has k={p.k} n={p.n}"
        )
    if head["N"] != len(graph):
        raise FormatError(f"embedding N={head['N']} but point set has {len(graph)} points")
    if head["d"] < 1:
        raise FormatError("embedding dimension must be >= 1")
    return head["d"]


def embedding_from_text(text: str, graph: RecursiveCycleGraph) -> Embedding:
    """Parse an L1EMB v1 file against the point set of `graph`.

    Rejects mismatched N/k/n, unknown or out-of-order addresses, wrong
    vector lengths, and non-finite entries. Line 2's width vouches for d
    before the (N, d) matrix is sized by it; the rows are then read in
    blocks of whole lines (_line_blocks), one block and its lines at a
    time: through _canonical_matrix, or where it refuses a block, the
    per-line reader _matrix_from_lines, which accepts valid non-canonical
    address spellings, building an address for each, and names the first
    bad line. A wrong line count is reported before any line error.
    """
    if not text:
        raise FormatError("empty embedding file")
    header, pos = _line_at(text, 0)
    d = _l1emb_dimension(header, graph)
    names = graph.vertices
    total = len(names) + 1
    try:
        if pos == len(text) or len(_line_at(text, pos)[0].split()) != d + 1:
            raise FormatError(f"line 2: expected address plus {d} coordinates")
        out = np.empty((len(names), d))
        row = 0
        for block in _line_blocks(text, pos):
            end = row + len(block)
            if end > len(names):
                _check_line_count(text, total, "vector")  # a line past line N + 1
            part = _canonical_matrix(block, names[row:end], d)
            if part is None:
                part = _matrix_from_lines(block, names[row:end], graph.params, d, row + 2)
            out[row:end] = part
            row = end
    except FormatError:
        _check_line_count(text, total, "vector")
        raise
    if row < len(names):
        _check_line_count(text, total, "vector")  # fewer than N + 1 lines
    return Embedding(out, graph)


def _canonical_matrix(lines: list[str], names: tuple[str, ...], d: int) -> np.ndarray | None:
    """The vectors of lines that all read `<canonical name> <d floats>`, or None.

    Each line is split once at its first space, and the names are checked
    with one list comparison; then np.loadtxt parses the coordinate parts
    in C. It refuses a row whose column count differs from the first's,
    and an empty field, which a doubled, leading or trailing space makes,
    so with the (lines, d) shape check every line has exactly d
    coordinates. A block with an empty coordinate part is refused before
    the parse, since loadtxt would skip that line. Its float parse is
    correctly rounded, like float(). None as soon as anything differs (a
    name, a width, a coordinate loadtxt rejects, such as `1_0` that
    float() reads, or a non-finite value), so the caller can read the
    lines one by one.
    """
    parts = [line.partition(" ") for line in lines]
    if [name for name, _, _ in parts] != list(names):
        return None
    coordinates = [rest for _, _, rest in parts]
    if not all(coordinates):
        return None
    try:
        out = np.loadtxt(coordinates, delimiter=" ", comments=None, ndmin=2)
    except ValueError:
        return None
    if out.shape != (len(lines), d) or not np.isfinite(out).all():
        return None
    return out


def _matrix_from_lines(
    lines: list[str], names: tuple[str, ...], params: GraphParams, d: int, first: int
) -> np.ndarray:
    """The per-line reader: every address spelling parse_address accepts, errors by line.

    lines[i] is line `first` + i of the file, and names[i] the vertex it must name.
    """
    out = np.empty((len(lines), d))
    for lineno, (name, line) in enumerate(zip(names, lines), start=first):
        parts = line.split()
        if len(parts) != d + 1:
            raise FormatError(f"line {lineno}: expected address plus {d} coordinates")
        try:
            check_address(parts[0], name, params)
        except FormatError as exc:
            raise FormatError(f"line {lineno}: {exc}") from exc
        try:
            out[lineno - first] = [float(x) for x in parts[1:]]
        except ValueError as exc:
            raise FormatError(f"line {lineno}: bad coordinate") from exc
        if not np.isfinite(out[lineno - first]).all():
            raise FormatError(f"line {lineno}: non-finite coordinate")
    return out
