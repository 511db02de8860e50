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

from .certifier import _per_level_term, edge_difference_map, nonneg_lift
from .infotheory import JointDistribution, ProbVector, mutual_information
from .l1metric import DistortionReport, Embedding, _ratio_report, pairwise_l1
from .pointset import CapacityError, PointSet, RecursiveCycleGraph, edge_endpoints

MAX_COMPLETIONS = 10**6
MAX_JOINT_CELLS = 2**24


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
    """
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError("need a one-dimensional vector with at least two entries")
    if (arr < 0).any():
        raise ValueError(f"negative entry: {arr.min()}")
    total = float(arr.sum())
    lhs = total - float(arr.max())
    prefix = np.cumsum(arr)[:-1]
    rhs = 0.5 * float((total - np.abs(2.0 * prefix - total)).sum())
    return lhs, rhs


@dataclass(frozen=True)
class LemmaReport:
    """Result of checking the separation-to-information lower bound."""

    separation: float
    epsilon: float
    delta: float
    mi_exact: float
    mi_folded: float
    bound: float
    applicable: bool
    holds: bool


def lemma_check(distributions) -> LemmaReport:
    """Check the information bound on 2k distributions over a common alphabet.

    Folds opposite distributions into Q_a = (P_a + P_{a+k})/2, measures the
    worst prefix-split separation 1 - eps, and when delta = (k-1)*eps/2 <
    1/2 verifies that the exact mutual information I(A:B) of (A uniform on
    [2k], B ~ P_A) is at least log2(k) - delta*log2(k-1) - H(delta). Also
    checks I(A:B) >= I(A':B) where A' folds A modulo k.
    """
    ps = [p if isinstance(p, ProbVector) else ProbVector(p) for p in distributions]
    if len(ps) < 4 or len(ps) % 2 != 0:
        raise ValueError(f"need an even number >= 4 of distributions, got {len(ps)}")
    k = len(ps) // 2
    if k > 6:
        raise ValueError(f"k={k} too large for exact checking (max 6)")
    sizes = {len(p) for p in ps}
    if len(sizes) != 1:
        raise ValueError(f"alphabet mismatch among distributions: {sorted(sizes)}")
    d = sizes.pop()
    if d > 16:
        raise ValueError(f"alphabet size {d} too large for exact checking (max 16)")

    table = np.stack([p.weights for p in ps])
    folded = (table[:k] + table[k:]) / 2.0
    prefix = np.cumsum(folded, axis=0)[:-1]
    separation = float(
        np.abs(2.0 * prefix - folded.sum(axis=0)).sum(axis=1).min() / k
    )
    eps = 1.0 - separation
    delta = (k - 1) * eps / 2.0

    mi_exact = mutual_information(JointDistribution((2 * k, d), table / (2 * k)), 0, 1)
    mi_folded = mutual_information(JointDistribution((k, d), folded / k), 0, 1)
    data_processing_ok = mi_exact >= mi_folded - 1e-9

    applicable = delta < 0.5
    if applicable:
        bound = _per_level_term(k, delta)
        holds = data_processing_ok and mi_exact >= bound - 1e-9
    else:
        bound = 0.0
        holds = data_processing_ok
    return LemmaReport(separation, eps, delta, mi_exact, mi_folded, bound, applicable, holds)


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for the local search; identical config and seed give identical output."""

    target_dimension: int
    iterations: int = 2000
    restarts: int = 4
    seed: int = 0
    step_scale: float = 32.0

    def __post_init__(self) -> None:
        if self.target_dimension < 1:
            raise ValueError("target_dimension must be >= 1")
        if self.iterations < 1 or self.restarts < 1:
            raise ValueError("iterations and restarts must be >= 1")
        if self.step_scale <= 0:
            raise ValueError("step_scale must be positive")


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
    damped by min(1, c/sqrt(t)). Restart r uses seed+r; the best restart
    wins (ties to the lowest index). Best effort only.

    The embedded distances and the violation matrix are built once per
    restart. A step moves at most points i and j, so only their rows (and
    mirrored columns) are refreshed, each summed per pair exactly as
    `pairwise_l1` does: O(N*d) arithmetic plus one O(N**2) argmax per step.
    """
    n = len(ps)
    if n > 2000:
        raise CapacityError(f"point set with {n} points too large for the searcher")
    d = cfg.target_dimension
    original = ps.distance_matrix.astype(float)
    np.fill_diagonal(original, 1.0)  # placeholder; diagonal is masked out below
    scale = float(original[np.triu_indices(n, 1)].mean())
    log_original = np.log(original)

    def refresh(m: int) -> None:
        """Recompute row and column m of `embedded` and `violation`."""
        row = np.abs(points[m] - points).sum(axis=-1)
        embedded[m] = embedded[:, m] = row
        worst = np.abs(np.log(np.maximum(row, 1e-300)) - log_original[m])
        worst[m] = -math.inf
        violation[m] = violation[:, m] = worst

    best: tuple[DistortionReport, int, np.ndarray] | None = None
    for restart in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed + restart)
        points = rng.standard_normal((n, d)) * (scale / (2.0 * d))
        embedded = pairwise_l1(points)
        violation = np.abs(np.log(np.maximum(embedded, 1e-300)) - log_original)
        np.fill_diagonal(violation, -math.inf)
        for t in range(1, cfg.iterations + 1):
            i, j = np.unravel_index(int(np.argmax(violation)), violation.shape)
            diff = points[i] - points[j]
            dist = float(np.abs(diff).sum())
            if dist < 1e-12:
                points[i] = points[i] + rng.standard_normal(d) * (1e-6 * scale)
                refresh(i)
                continue
            direction = np.sign(diff)
            moving = int(np.count_nonzero(direction))
            residual = dist - original[i, j]
            step = min(1.0, cfg.step_scale / math.sqrt(t)) * residual / (2.0 * moving)
            points[i] -= step * direction
            points[j] += step * direction
            refresh(i)
            refresh(j)

        # Split coincident points so the result is a genuine embedding.
        coincident = list(zip(*np.nonzero(np.triu(embedded == 0.0, 1))))
        for i, j in coincident:
            points[j] = points[j] + rng.standard_normal(d) * (1e-9 * scale)
        if coincident:
            embedded = pairwise_l1(points)
        report = _ratio_report(embedded, original)
        if best is None or report.distortion < best[0].distortion:
            best = (report, restart, points.copy())

    report, restart, points = best
    return SearchResult(Embedding(points, ps.graph), report, restart)


def build_message_joint(graph: RecursiveCycleGraph, emb: Embedding) -> JointDistribution:
    """Joint of (X_1..X_n, M): X uniform over edge labels, M lifted from f(X).

    X's marginal is exactly uniform by construction; the table feeds the
    chain-rule decomposition and the per-level information bound.
    """
    edges = graph.params.cycle_length**graph.params.n
    shape = (graph.params.cycle_length,) * graph.params.n + (2 * emb.dimension + 1,)
    cells = edges * shape[-1]
    if cells > MAX_JOINT_CELLS:
        raise CapacityError(f"message joint with {cells} cells exceeds {MAX_JOINT_CELLS}")
    weight = 1.0 / edges
    lifted = [nonneg_lift(vec).weights * weight for vec in edge_difference_map(graph, emb)]
    return JointDistribution(shape, np.stack(lifted).reshape(shape))
