"""Brute-force references for the steps of the entropy argument.

They recompute, the slow way, quantities the product path obtains through
closed forms or inequalities: vertex labels as ones-intervals by recursion,
label distances by interval merge, antipodal pairs by name, completion
averages by enumeration, the prefix-split max inequality, the
mutual-information lower bound on explicit tables, the lift's inverse,
the Fano predictor and the message joint. Only the selftest, the tests
and the benchmark call them; the searcher lives beside its kernel in
`l1metric`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import infotheory
from .certifier import edge_difference_map, nonneg_lift
from .infotheory import JointDistribution, fano_term, probability_table, table_information
# search_embedding is re-exported: perfbench/harness.py's TARGETS wraps it
# under this module's name until the benchmark moves it (ROADMAP item 8).
from .l1metric import Embedding, search_embedding  # noqa: F401
from .pointset import (
    CapacityError,
    GraphParams,
    RecursiveCycleGraph,
    _cycle_vertex,
    _edge_endpoints_raw,
    _split,
    _validate_prefix,
    edge_endpoints,
)

MAX_COMPLETIONS = 10**6


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


def _label_of(params: GraphParams, name: str) -> IntervalLabel:
    total = params.label_length
    if name == "L":
        return IntervalLabel(total, ())
    if name == "R":
        return IntervalLabel(total, ((0, total),))
    k = params.k
    path, q = _split(name)
    if not (1 <= q <= 2 * k - 1 and q != k):
        raise ValueError(f"invalid cycle position {q} for k={k}")
    tail, _ = _edge_endpoints_raw(params, path)
    base = _label_of(params, tail)
    start, block = edge_coordinate_block(params, path)
    sub = block // k
    if q < k:
        # Top position q: ones on the last q sub-blocks of the edge's block.
        ones = (start + (k - q) * sub, start + block)
    else:
        # Bottom position q is the (2k-q)-th bottom vertex: ones on the
        # first 2k-q sub-blocks.
        ones = (start, start + (2 * k - q) * sub)
    return IntervalLabel.make(total, list(base.intervals) + [ones])


def antipodal_pairs(graph: RecursiveCycleGraph, level: int) -> list[tuple[str, str]]:
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


def brute_force_average(
    graph: RecursiveCycleGraph, emb: Embedding, prefix: tuple[int, ...]
) -> np.ndarray:
    """Average of F(head)-F(tail) over every completion of the prefix, enumerated."""
    params = graph.params
    prefix = tuple(prefix)
    remaining = params.n - len(prefix)
    count = params.cycle_length**remaining
    if count > MAX_COMPLETIONS:
        raise CapacityError(f"{count} completions is too many to enumerate")
    acc = np.zeros(emb.dimension)
    for completion in itertools.product(range(1, params.cycle_length + 1), repeat=remaining):
        tail, head = edge_endpoints(graph, prefix + completion)
        acc += emb.vectors[head] - emb.vectors[tail]
    return acc / count


def max_claim_gap(values) -> tuple[float, float]:
    """Both sides of the prefix-split max inequality for nonnegative entries.

    lhs = sum(p) - max(p)
    rhs = (1/2) * sum_r (sum(p) - |sum_{i<=r} p_i - sum_{i>r} p_i|)

    lhs <= rhs always; for two entries both sides collapse to min(p1, p2).
    A stack of vectors along the last axis gives an array of each side.
    """
    arr = np.ascontiguousarray(values, dtype=float)
    if arr.shape[-1] < 2:
        raise ValueError("need a one-dimensional vector with at least two entries")
    negative = (arr < 0).any(axis=-1)
    if negative.any():
        raise ValueError(f"negative entry: {arr[negative][0].min()}")
    total = arr.sum(axis=-1, keepdims=True)
    prefix = np.cumsum(arr, axis=-1)[..., :-1]
    rhs = 0.5 * (total - np.abs(2.0 * prefix - total)).sum(axis=-1)
    return total[..., 0] - arr.max(axis=-1), rhs


@dataclass(frozen=True)
class LemmaReport:
    """Result of checking the separation-to-information lower bound; each
    field is an array over the tables when lemma_check is given a stack."""

    separation: float
    delta: float
    mi_exact: float
    mi_folded: float
    bound: float
    holds: bool

    @property
    def epsilon(self) -> float:
        return 1.0 - self.separation

    @property
    def applicable(self) -> bool:
        return self.delta < 0.5


def lemma_check(distributions) -> LemmaReport:
    """Check the information bound on 2k distributions over a common alphabet.

    Folds opposite distributions into Q_a = (P_a + P_{a+k})/2, measures the
    worst prefix-split separation 1 - eps, and when delta = (k-1)*eps/2 <
    1/2 verifies that the exact mutual information I(A:B) of (A uniform on
    [2k], B ~ P_A) is at least log2(k) - delta*log2(k-1) - H(delta). Also
    checks I(A:B) >= I(A':B) where A' folds A modulo k. A (..., 2k, d)
    stack of such tables gives a report whose fields are arrays over it.
    """
    table = probability_table(distributions, _lemma_rows)
    k, d = table.shape[-2] // 2, table.shape[-1]
    if d > 16:
        raise ValueError(f"alphabet size {d} too large for exact checking (max 16)")

    folded = (table[..., :k, :] + table[..., k:, :]) / 2.0
    prefix = np.cumsum(folded, axis=-2)[..., :-1, :]
    total = folded.sum(axis=-2, keepdims=True)
    separation = np.abs(2.0 * prefix - total).sum(axis=-1).min(axis=-1) / k
    delta = (k - 1) * (1.0 - separation) / 2.0

    mi_exact = table_information(table / (2 * k))
    mi_folded = table_information(folded / k)
    applicable = delta < 0.5
    bound = np.where(applicable, fano_term(k, np.where(applicable, delta, 0.0)), 0.0)
    holds = (mi_exact >= mi_folded - 1e-9) & (~applicable | (mi_exact >= bound - 1e-9))
    return LemmaReport(separation, delta, mi_exact, mi_folded, bound[()], holds[()])


def _lemma_rows(rows: int) -> None:
    if rows < 4 or rows % 2 != 0:
        raise ValueError(f"need an even number >= 4 of distributions, got {rows}")
    if rows // 2 > 6:
        raise ValueError(f"k={rows // 2} too large for exact checking (max 6)")


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


def build_message_joint(graph: RecursiveCycleGraph, emb: Embedding) -> JointDistribution:
    """Joint of (X_1..X_n, M): X uniform over edge labels, M lifted from f(X).

    X's marginal is exactly uniform by construction; the table feeds the
    chain-rule decomposition and the per-level information bound.
    """
    edges = graph.params.cycle_length**graph.params.n
    shape = (graph.params.cycle_length,) * graph.params.n + (2 * emb.dimension + 1,)
    cells = edges * shape[-1]
    if cells > infotheory.MAX_TABLE_CELLS:
        raise CapacityError(
            f"message joint with {cells} cells exceeds {infotheory.MAX_TABLE_CELLS}"
        )
    lifted = nonneg_lift(edge_difference_map(graph, emb)) * (1.0 / edges)
    return JointDistribution(shape, lifted.reshape(shape))
