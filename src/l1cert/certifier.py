"""Certify embeddings of recursive-cycle point sets and bound the dimension.

Pipeline: normalize the embedding so nothing expands, form the edge
difference map f (one vector per oriented full-depth edge), evaluate the
per-level separation constraints on prefix averages of f, measure the
worst slack epsilon, and convert it into a lower bound on the embedding
dimension. A consistent certificate (actual dimension >= bound) is
guaranteed for every valid embedding; inconsistency signals a bug.

The separation constraint for a level l, a prefix of l-1 edge coordinates,
and a split point r in [k-1] is

    (1/2k) * || sum_{b<=r} (avg(prefix,b) + avg(prefix,b+k))
             - sum_{b>r}  (avg(prefix,b) + avg(prefix,b+k)) ||_1  >= 1 - eps

where avg is the uniform average of f over all completions of the prefix.
For the identity embedding every left-hand side is exactly 1, which pins
the edge-orientation convention.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .infotheory import fano_term, probability_table
from .l1metric import (
    DegenerateEmbeddingError,
    DistortionReport,
    Embedding,
    distortion,
    scale_embedding,
    vertex_matrix,
)
from .pointset import CapacityError, PointSet, RecursiveCycleGraph, edge_endpoints, level_prefixes

LIFT_NORM_SLACK = 1e-6
# Largest exponent of an exact dimension bound: its decimal form stays under
# the 4300 digits Python converts to text by default.
MAX_BOUND_BITS = 14_000


@dataclass(frozen=True)
class ConstraintEntry:
    level: int
    prefix: tuple[int, ...]
    r: int
    lhs: float


@dataclass(frozen=True, eq=False)
class ConstraintReport:
    """Every separation constraint value, with the worst slack epsilon.

    `lhs[l-1]` is the read-only ((2k)**(l-1), k-1) array of level l's
    values: row p is the p-th prefix in lexicographic order, column r-1 the
    split point r. `entries` lists the same values as ConstraintEntry
    objects in (level, prefix, r) order; it is built on first read, which
    only the benchmark harness and the tests do. `min_lhs` and `epsilon` are
    derived from `lhs` on first read.
    """

    lhs: tuple[np.ndarray, ...]

    @cached_property
    def min_lhs(self) -> float:
        return min(float(values.min()) for values in self.lhs)

    @cached_property
    def epsilon(self) -> float:
        return max(0.0, 1.0 - self.min_lhs)

    @cached_property
    def entries(self) -> tuple[ConstraintEntry, ...]:
        out = []
        for level, values in enumerate(self.lhs, start=1):
            cyc = 2 * (values.shape[1] + 1)
            prefixes = itertools.product(range(1, cyc + 1), repeat=level - 1)
            for prefix, row in zip(prefixes, values.tolist()):
                out += [ConstraintEntry(level, prefix, r, v) for r, v in enumerate(row, start=1)]
        return tuple(out)


@dataclass(frozen=True)
class BoundResult:
    """The dimension lower bound derived from a measured epsilon.

    delta = (k-1)*eps/2; the bound applies only when delta < 1/2, i.e.
    eps < 1/(k-1). Outside that regime the result is flagged vacuous with
    raw_bound 0 and min_dimension 1.
    """

    delta: float
    per_level_term: float
    raw_bound: float
    min_dimension: int

    @property
    def applicable(self) -> bool:
        return self.delta < 0.5


@dataclass(frozen=True)
class CertificateReport:
    distortion: DistortionReport
    bound: BoundResult
    embedding_dimension: int
    constraints: ConstraintReport

    @property
    def epsilon(self) -> float:
        return self.constraints.epsilon

    @property
    def consistent(self) -> bool:
        return self.embedding_dimension >= self.bound.min_dimension


def edge_difference_map(graph: RecursiveCycleGraph, emb: Embedding) -> np.ndarray:
    """The (E, d) array of F(head) - F(tail), one row per full-depth edge.

    Rows follow graph.level_edges[-1]: edge coordinates in lexicographic
    order. The embedding must already be 1-Lipschitz: an edge difference
    of L1 norm above 1 (beyond slack) is rejected.
    """
    points = vertex_matrix(graph, emb)
    tail, head = graph.level_edges[-1]
    diffs = points[head] - points[tail]
    worst = float(np.abs(diffs).sum(axis=1).max())
    if worst > 1.0 + LIFT_NORM_SLACK:
        raise ValueError(
            f"edge difference norm {worst} exceeds 1; "
            "apply normalize_lipschitz to the embedding first"
        )
    return diffs


def average_edge_vector(
    graph: RecursiveCycleGraph, emb: Embedding, prefix: tuple[int, ...]
) -> np.ndarray:
    """Uniform average of the edge difference map over completions of `prefix`.

    Telescoping collapses the average to the closed form
    (F(head) - F(tail)) / k**(n - len(prefix)) for the level-len(prefix)
    edge named by the prefix; the brute-force enumeration lives in the
    oracle module as the correctness reference.
    """
    tail, head = edge_endpoints(graph, tuple(prefix))
    scale = graph.params.k ** (graph.params.n - len(prefix))
    return (emb.vectors[head] - emb.vectors[tail]) / scale


def constraint_lhs(
    graph: RecursiveCycleGraph, emb: Embedding, prefix: tuple[int, ...], r: int
) -> float:
    """One separation-constraint left-hand side (see module docstring)."""
    k = graph.params.k
    prefix = tuple(prefix)
    level = len(prefix) + 1
    if level > graph.params.n:
        raise ValueError(f"prefix of length {len(prefix)} has no level-{level} edges")
    if not 1 <= r <= k - 1:
        raise ValueError(f"split point r={r} outside 1..{k - 1}")
    paired = [
        average_edge_vector(graph, emb, prefix + (b,))
        + average_edge_vector(graph, emb, prefix + (b + k,))
        for b in range(1, k + 1)
    ]
    expr = sum(paired[:r]) - sum(paired[r:])
    return float(np.abs(expr).sum()) / (2 * k)


def constraint_report(graph: RecursiveCycleGraph, emb: Embedding) -> ConstraintReport:
    """Evaluate every (level, prefix, r) constraint and extract epsilon.

    One numpy pass per level over graph.level_edges: the (2k)**l prefix
    averages of level l, folded per prefix and accumulated over b, so the
    arithmetic is O(E*d) for all levels together and the report holds one
    float per constraint. Each lhs is |2*partial - total|_1 / 2k with the
    partial sums accumulated over b in order; constraint_lhs, the
    per-prefix reference, sums the two sides separately and so agrees to
    rounding.

    The paired edge sums telescope around each cycle: lhs(l, p, r) is
    ||F(c_r) - F(c_{r+k})||_1 / k**(n-l+1), the embedded over label distance
    of the antipodal pair (r, r+k) on prefix p's cycle c (to rounding).
    """
    params = graph.params
    k, n, cyc = params.k, params.n, params.cycle_length
    points = vertex_matrix(graph, emb)
    levels = []
    for level, (tail, head) in enumerate(graph.level_edges, start=1):
        avg = (points[head] - points[tail]) / k ** (n - level)
        avg = avg.reshape(-1, cyc, emb.dimension)
        partial = np.cumsum(avg[:, :k] + avg[:, k:], axis=1)
        lhs = np.abs(2 * partial[:, :-1] - partial[:, -1:]).sum(axis=-1) / (2 * k)
        lhs.flags.writeable = False
        levels.append(lhs)
    return ConstraintReport(tuple(levels))


def nonneg_lift(vec) -> np.ndarray:
    """Lift a vector of L1 norm at most 1 to a probability vector on [2d+1].

    Concatenates the positive part, the negative part, and the leftover
    mass 1 - ||v||_1. Tiny norm overshoot (float dust) is clamped to 1.
    Lifts along the last axis; the first bad vector raises its own error.
    """
    arr = np.ascontiguousarray(vec, dtype=float)
    norm = np.abs(arr).sum(axis=-1)
    bad = np.flatnonzero(~(norm <= 1.0 + LIFT_NORM_SLACK))
    if bad.size:
        first = float(np.ravel(norm)[bad[0]])
        if math.isnan(first):
            raise ValueError("probability vector has non-finite entries")
        raise ValueError(f"vector has L1 norm {first} > 1; cannot lift")
    scale = np.maximum(norm, 1.0)[..., None]
    pos = np.maximum(arr, 0.0) / scale
    neg = np.maximum(-arr, 0.0) / scale
    return np.concatenate([pos, neg, 1.0 - np.minimum(norm, 1.0)[..., None]], axis=-1)


def lift_recover(y) -> np.ndarray:
    """Undo the lift: y in R**(2d+1) maps to (y_j - y_{j+d}) in R**d.

    Never increases the L1 norm, and recovers the original vector exactly
    on lifted inputs. Undoes each lift along the last axis of a stack.
    """
    arr = np.ascontiguousarray(y, dtype=float)
    size = arr.shape[-1]
    if size < 3 or size % 2 == 0:
        raise ValueError(f"lifted vector must have odd length >= 3, got {size}")
    d = (size - 1) // 2
    return arr[..., :d] - arr[..., d : 2 * d]


def dimension_bound(k: int, n: int, eps: float) -> BoundResult:
    """Dimension lower bound for a depth-n instance with measured slack eps.

    With delta = (k-1)*eps/2 < 1/2, any conforming edge map needs

        d >= 2**((log2 k - delta*log2(k-1) - H(delta))*n - 1) - 1/2.

    min_dimension rounds up (minus a 1e-9 guard against float overshoot)
    since dimensions are integers. When the power 2**e, e = per_level*n - 1,
    is past float range, raw_bound is inf and min_dimension is an exact int
    m <= 2**e, with 2**e's leading 52 bits rounded down, so still a lower
    bound; exponents past MAX_BOUND_BITS raise CapacityError instead.
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k}")
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be an integer >= 1, got {n}")
    if not eps >= 0:  # also NaN, which every comparison rejects
        raise ValueError(f"epsilon must be a number >= 0, got {eps}")
    delta = (k - 1) * eps / 2.0
    if delta >= 0.5:
        return BoundResult(delta, 0.0, 0.0, 1)
    per_level = fano_term(k, delta)
    exponent = per_level * n - 1.0
    try:
        raw = 2.0**exponent - 0.5
    except OverflowError:
        return BoundResult(delta, per_level, math.inf, _power_floor(exponent))
    min_dim = max(1, math.ceil(raw - 1e-9))
    return BoundResult(delta, per_level, raw, min_dim)


def _power_floor(exponent: float) -> int:
    """An exact int m <= 2**exponent for an exponent past float range.

    The fractional power is rounded down to a float in [1, 2), whose 52
    fraction bits are then shifted into place; an integral exponent gives
    2**exponent exactly.
    """
    whole = math.floor(exponent)
    if whole > MAX_BOUND_BITS:
        raise CapacityError(f"dimension bound 2**{exponent!r} exceeds 2**{MAX_BOUND_BITS}")
    frac = 2.0 ** (exponent - whole)
    if exponent != whole:
        frac = math.nextafter(frac, 0.0)  # the power rounds to nearest; never round up
    return int(frac * 2**52) << (whole - 52)


def bound_for_distortion(k: int, n: int, dist: float) -> BoundResult:
    """Dimension bound implied by a distortion-`dist` embedding (eps = 1 - 1/D)."""
    if not dist >= 1.0:  # also NaN
        raise ValueError(f"distortion must be a number >= 1, got {dist}")
    return dimension_bound(k, n, 1.0 - 1.0 / dist)


def choose_k(eps: float) -> int:
    """Half-cycle length giving near-optimal bounds at low distortion slack.

    Rounds 1/(eps*log2(1/eps)) down, floored at 2; the target is only an
    approximation, so sweep neighbors when it matters.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must be in (0, 1/2), got {eps}")
    return max(2, math.floor(1.0 / (eps * math.log2(1.0 / eps))))


def predictor_success(distributions) -> tuple[np.ndarray, float]:
    """Best symbol-wise predictor of which of k distributions produced a sample.

    Returns (predictor, success) where predictor[j] is the 0-based index of
    the distribution maximizing the weight of symbol j (ties to the
    smallest index) and success is its probability of being right under a
    uniformly random source: (1/k) * || max(Q_1..Q_k) ||_1. A (..., k, m)
    stack gives one predictor and one success per table.

    The rows are checked by infotheory.probability_table: an error raised
    is the one the first bad row gives on its own.
    """
    table = probability_table(distributions, _at_least_two)
    predictor = table.argmax(axis=-2)
    success = table.max(axis=-2).sum(axis=-1) / table.shape[-2]
    return predictor, success


def _at_least_two(rows: int) -> None:
    if rows < 2:
        raise ValueError("need at least two distributions")


def certify(
    ps: PointSet, emb: Embedding, *, report: DistortionReport | None = None
) -> CertificateReport:
    """Full pipeline: distortion, normalization, constraints, dimension bound.

    `report`, when given, must be `distortion(ps, emb)`, already measured
    (as the search measures its winner); it is then not measured again.
    Raises DegenerateEmbeddingError when two distinct points share a
    vector (the certificate would be meaningless). `consistent` must come
    back True for every valid embedding. Memory beyond the inputs is the
    scaled (N, d) matrix, O(N * words) packed labels, O(E * d) edge arrays
    and one float per constraint; no N x N matrix is built.
    """
    if report is None:
        report = distortion(ps, emb)
    if math.isinf(report.contraction):
        raise DegenerateEmbeddingError(
            "embedding maps two distinct points to the same vector"
        )
    normalized = scale_embedding(emb, 1.0 / report.expansion)
    constraints = constraint_report(ps.graph, normalized)
    params = ps.params
    bound = dimension_bound(params.k, params.n, constraints.epsilon)
    return CertificateReport(report, bound, emb.dimension, constraints)


def certificate_to_text(cert: CertificateReport) -> str:
    """Key=value report, one line per field."""
    b = cert.bound
    lines = [
        f"epsilon={cert.epsilon!r}",
        f"delta={b.delta!r}",
        f"per_level_term={b.per_level_term!r}",
        f"raw_bound={b.raw_bound!r}",
        f"min_dimension={b.min_dimension}",
        f"embedding_dimension={cert.embedding_dimension}",
        f"distortion={cert.distortion.distortion!r}",
        f"applicable={'true' if b.applicable else 'false'}",
        f"consistent={'true' if cert.consistent else 'false'}",
    ]
    return "\n".join(lines) + "\n"


def constraint_table_csv(report: ConstraintReport) -> str:
    """Per-constraint CSV: level,prefix,r,lhs (prefix dotted, empty for level 1).

    Written from `report.lhs` level by level, with the prefixes that
    pointset.level_prefixes spells: each row's head "level,prefix,r," is
    joined with the repr of its value.
    """
    lines = ["level,prefix,r,lhs"]
    k = report.lhs[0].shape[1] + 1
    levels = zip(level_prefixes(k, len(report.lhs)), report.lhs)
    for level, (prefixes, values) in enumerate(levels, start=1):
        heads = [f"{level},{prefix},{r}," for prefix in prefixes for r in range(1, k)]
        lines += map(str.__add__, heads, map(repr, values.ravel().tolist()))
    return "\n".join(lines) + "\n"
