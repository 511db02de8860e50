"""L1 distances, embeddings of a point set, and distortion reports.

Label distances are exact integers; embedded distances are floats.
Distortion is the scale-invariant product of the worst expansion ratio
and the worst contraction ratio over all vertex pairs, so distortion 1
means an isometry up to scale.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .pointset import (
    BLOCK_ELEMENTS,
    FormatError,
    IntervalLabel,
    PointSet,
    RecursiveCycleGraph,
    VertexAddress,
    _parse_header,
    parse_address,
)


class DegenerateEmbeddingError(ValueError):
    """Two distinct points share an embedded vector (or all points do)."""


def l1_interval_distance(a: IntervalLabel, b: IntervalLabel) -> int:
    """Exact L1 distance between two bit-vector labels.

    Equals the measure of the symmetric difference of the ones-sets,
    computed by a linear merge of the two interval lists.
    """
    if a.length != b.length:
        raise ValueError(f"label length mismatch: {a.length} != {b.length}")
    inter = 0
    i = j = 0
    ia, ib = a.intervals, b.intervals
    while i < len(ia) and j < len(ib):
        lo = max(ia[i][0], ib[j][0])
        hi = min(ia[i][1], ib[j][1])
        if lo < hi:
            inter += hi - lo
        if ia[i][1] <= ib[j][1]:
            i += 1
        else:
            j += 1
    return a.measure + b.measure - 2 * inter


def l1_distance(u, v) -> float:
    """Sum of coordinate-wise absolute differences of two real vectors."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise ValueError(f"vector length mismatch: {u.shape} != {v.shape}")
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise ValueError("non-finite vector entries")
    return float(np.abs(u - v).sum())


@dataclass(frozen=True, eq=False)
class Embedding:
    """Vectors in R**dimension: one row of the read-only (N, d) `matrix` per address.

    Row i is the vector of `addresses[i]`; every producer in this package
    puts the rows in point-set export order. Non-finite entries are
    rejected. `vectors` is the per-address view that the slow references
    and the tests read; the array paths never build it.
    """

    matrix: np.ndarray
    addresses: tuple[VertexAddress, ...]

    def __post_init__(self) -> None:
        finite = np.isfinite(self.matrix).all(axis=1)
        if not finite.all():
            addr = self.addresses[int(finite.argmin())]
            raise ValueError(f"non-finite entries in vector for {addr}")
        self.matrix.flags.writeable = False

    @property
    def dimension(self) -> int:
        return self.matrix.shape[1]

    @cached_property
    def vectors(self) -> Mapping[VertexAddress, np.ndarray]:
        """Read-only address -> row view, built on first read (for references and tests)."""
        return MappingProxyType(dict(zip(self.addresses, self.matrix)))


def make_embedding(vectors) -> Embedding:
    """Validate a mapping address -> vector and stack it into one matrix, in its order."""
    rows = []
    for addr, vec in vectors.items():
        arr = np.asarray(vec, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError(f"vector for {addr} must be one-dimensional and non-empty")
        if rows and arr.size != rows[0].size:
            raise ValueError("embedding vectors have inconsistent lengths")
        rows.append(arr)
    if not rows:
        raise ValueError("embedding must cover at least one vertex")
    return Embedding(np.stack(rows), tuple(vectors))


def identity_embedding(ps: PointSet) -> Embedding:
    """Labels themselves as vectors in R**(k**n); an isometry by construction."""
    return Embedding(np.stack([label.to_dense() for label in ps.labels]), ps.addresses)


def scale_embedding(emb: Embedding, factor: float) -> Embedding:
    return Embedding(emb.matrix * factor, emb.addresses)


def vertex_matrix(graph: RecursiveCycleGraph, emb: Embedding) -> np.ndarray:
    """The embedding's rows in graph.vertices order; a vertex it lacks is a ValueError."""
    if emb.addresses == graph.vertices:
        return emb.matrix
    missing = [v for v in graph.vertices if v not in emb.vectors]
    if missing:
        raise ValueError(f"embedding does not cover {len(missing)} vertices, e.g. {missing[0]}")
    return np.stack([emb.vectors[v] for v in graph.vertices])


def pairwise_l1(points: np.ndarray) -> np.ndarray:
    """All pairwise L1 distances of the rows of `points`, chunked to bound memory.

    Each row block is computed against the columns from its own start only
    and mirrored below itself. |a - b| == |b - a| exactly and each pair is
    summed in the same order, so this equals the full-square computation.
    """
    n, d = points.shape
    out = np.empty((n, n))
    step = max(1, BLOCK_ELEMENTS // max(1, n * d))
    for i0 in range(0, n, step):
        i1 = min(i0 + step, n)
        blk = np.abs(points[i0:i1, None, :] - points[None, i0:, :]).sum(axis=-1)
        out[i0:i1, i0:] = blk
        out[i1:, i0:i1] = blk[:, i1 - i0 :].T
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


def _worst_ratios(blocks: Iterable[tuple[np.ndarray, np.ndarray]]) -> DistortionReport:
    """Fold row blocks of the upper triangle into the worst ratios over i < j.

    Each block is a pair (embedded, original) of distances for rows
    i0..i1-1 against columns i0..N-1, so its pairs i < j are the entries
    right of the block diagonal. A zero embedded distance makes the
    contraction infinite without dividing by it.
    """
    expansion = contraction = 0.0
    for embedded, original in blocks:
        rows, cols = embedded.shape
        upper = np.arange(cols) > np.arange(rows)[:, None]
        de, do = embedded[upper], original[upper]
        expansion = max(expansion, float(np.max(de / do)))
        if np.any(de == 0.0):
            contraction = math.inf
        else:
            contraction = max(contraction, float(np.max(do / de)))
    if contraction == math.inf:
        return DistortionReport(expansion, math.inf, math.inf)
    return DistortionReport(expansion, contraction, expansion * contraction)


def _ratio_report(embedded: np.ndarray, original: np.ndarray) -> DistortionReport:
    """Worst ratios over the pairs i < j of two full distance matrices."""
    n = embedded.shape[0]
    step = max(1, BLOCK_ELEMENTS // n)
    return _worst_ratios(
        (embedded[i0 : i0 + step, i0:], original[i0 : i0 + step, i0:])
        for i0 in range(0, n - 1, step)
    )


def distortion(ps: PointSet, emb: Embedding) -> DistortionReport:
    """Distortion of an embedding relative to the exact label metric.

    One streaming pass over row blocks of the upper triangle: each block's
    embedded distances are summed per pair exactly as `pairwise_l1` sums
    them, its label distances are popcounts of XORed packed labels, and
    both are folded into the worst ratios at once. No N x N matrix is
    built; memory beyond the inputs is O(N * (d + words)), with words the
    number of 64-bit words per label.
    """
    if len(ps) < 2:
        raise ValueError("need at least two points")
    points = vertex_matrix(ps.graph, emb)
    n, d = points.shape
    step = max(1, BLOCK_ELEMENTS // (n * max(d, ps._bitsets.shape[1])))

    def blocks():
        for i0 in range(0, n - 1, step):
            i1 = min(i0 + step, n)
            diff = points[i0:i1, None, :] - points[None, i0:, :]
            yield np.abs(diff, out=diff).sum(axis=-1), ps.label_distances(i0, i1, i0)

    return _worst_ratios(blocks())


def normalize_lipschitz(ps: PointSet, emb: Embedding) -> Embedding:
    """Rescale so no pairwise distance expands (worst expansion becomes 1)."""
    report = distortion(ps, emb)
    if report.expansion <= 0.0:
        raise DegenerateEmbeddingError("all-constant embedding cannot be normalized")
    return scale_embedding(emb, 1.0 / report.expansion)


def embedding_to_text(ps: PointSet, emb: Embedding) -> str:
    """Serialize in the L1EMB v1 text format, one vertex per line in export order."""
    p = ps.params
    lines = [f"L1EMB v1 d={emb.dimension} N={len(ps)} k={p.k} n={p.n}"]
    for name, row in zip(ps.graph.vertex_names, vertex_matrix(ps.graph, emb).tolist()):
        lines.append(name + " " + " ".join(map(repr, row)))
    return "\n".join(lines) + "\n"


def embedding_from_text(text: str, ps: PointSet) -> Embedding:
    """Parse an L1EMB v1 file against a point set.

    Rejects mismatched N/k/n, unknown or out-of-order addresses, wrong
    vector lengths, and non-finite entries. A file written in canonical
    form is read in row blocks into one read-only (N, d) matrix whose rows
    are the vectors; any other file goes through the per-line loop, which
    accepts valid non-canonical address spellings and names the first bad
    line.
    """
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty embedding file")
    head = _parse_header(lines[0], "L1EMB v1", ("d", "N", "k", "n"))
    p = ps.params
    if head["k"] != p.k or head["n"] != p.n:
        raise FormatError(
            f"embedding is for k={head['k']} n={head['n']}, point set has k={p.k} n={p.n}"
        )
    if head["N"] != len(ps):
        raise FormatError(f"embedding N={head['N']} but point set has {len(ps)} points")
    if head["d"] < 1:
        raise FormatError("embedding dimension must be >= 1")
    if len(lines) != head["N"] + 1:
        raise FormatError(f"expected {head['N']} vector lines, found {len(lines) - 1}")
    # The first line's width vouches for d before a matrix is sized by it.
    if len(lines[1].split()) != head["d"] + 1:
        raise FormatError(f"line 2: expected address plus {head['d']} coordinates")
    matrix = _canonical_matrix(lines[1:], ps.graph.vertex_names, head["d"])
    if matrix is None:
        matrix = _matrix_from_lines(lines[1:], ps, head["d"])
    return Embedding(matrix, ps.addresses)


def _canonical_matrix(lines: list[str], names: tuple[str, ...], d: int) -> np.ndarray | None:
    """The vectors of lines that all read `<canonical name> <d floats>`, or None.

    Reads row blocks of about BLOCK_ELEMENTS tokens: each block is split,
    its token counts and names are compared, and its coordinates go through
    float() into the matrix. None as soon as a line differs in any way
    (token count, address spelling, a coordinate float() rejects, a
    non-finite value), so the caller can read the file line by line.
    """
    width = d + 1
    out = np.empty((len(lines), d))
    step = max(1, BLOCK_ELEMENTS // width)
    for i0 in range(0, len(lines), step):
        rows = [line.split() for line in lines[i0 : i0 + step]]
        if any(len(r) != width for r in rows):
            return None
        if [r[0] for r in rows] != list(names[i0 : i0 + step]):
            return None
        coords = map(float, itertools.chain.from_iterable(r[1:] for r in rows))
        try:
            block = np.fromiter(coords, float, count=len(rows) * d)
        except ValueError:
            return None
        out[i0 : i0 + len(rows)] = block.reshape(-1, d)
    if not np.isfinite(out).all():
        return None
    return out


def _matrix_from_lines(lines: list[str], ps: PointSet, d: int) -> np.ndarray:
    """The per-line reader: every address spelling parse_address accepts, exact errors."""
    out = np.empty((len(lines), d))
    for lineno, (addr, line) in enumerate(zip(ps.addresses, lines), start=2):
        parts = line.split()
        if len(parts) != d + 1:
            raise FormatError(f"line {lineno}: expected address plus {d} coordinates")
        if parts[0] != str(addr) and parse_address(parts[0], ps.params) != addr:
            raise FormatError(f"line {lineno}: address {parts[0]!r} out of canonical order")
        try:
            out[lineno - 2] = [float(x) for x in parts[1:]]
        except ValueError as exc:
            raise FormatError(f"line {lineno}: bad coordinate") from exc
        if not np.isfinite(out[lineno - 2]).all():
            raise FormatError(f"line {lineno}: non-finite coordinate")
    return out
