"""Brute-force references and a local-search embedding finder.

The references recompute, the slow way, quantities the certifier obtains
through closed forms or inequalities: uniform completion averages by
enumeration, the prefix-split max inequality, and the mutual-information
lower bound on explicit tables. The searcher hunts for low-distortion
embeddings; it comes with no guarantee and exists to stress the
certifier end to end.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import infotheory
from .certifier import edge_difference_map, nonneg_lift
from .infotheory import JointDistribution, fano_term, probability_table, table_information
from .l1metric import (
    DistortionReport,
    Embedding,
    _coordinate_planes,
    _plane_order,
    _sum_planes,
    _tile_numerics,
    distortion,
    pairwise_l1,
)
from .pointset import CapacityError, PointSet, RecursiveCycleGraph, edge_endpoints

MAX_COMPLETIONS = 10**6
# The search's step damping: a step covers min(1, STEP_SCALE / sqrt(t)) of its pair's residual.
STEP_SCALE = 32.0


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


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the local search; identical config and seed give identical output."""

    target_dimension: int
    iterations: int = 2000
    restarts: int = 4
    seed: int = 0

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


def search_embedding(ps: PointSet, cfg: SearchConfig) -> SearchResult:
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
    n = len(ps)
    if n > 2000:
        raise CapacityError(f"point set with {n} points too large for the searcher")
    d = cfg.target_dimension
    order = _plane_order(d)
    original = ps.distance_matrix.astype(float)
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
        emb = Embedding(np.ascontiguousarray(planes[order].T), ps.graph)
        report = distortion(ps, emb)
        if best is None or report.distortion < best.report.distortion:
            best = SearchResult(emb, report, restart)
    return best


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
