"""Seeded inputs and independent reference values for the benchmark.

Inputs: canonical vertex addresses are enumerated here, without l1cert, and
a seeded Gaussian embedding is written in the L1EMB v1 text format.

References: P1 labels and L1EMB vectors are parsed by this module's own
code, and epsilon is recomputed with vectorised numpy: label distances
from 0/1 rows by a matrix product, embedded distances by chunked absolute
differences, and all separation constraints of one level at once. Only
the edge endpoints come from l1cert (`pointset.edge_endpoints`), because
they define the orientation convention the constraints are stated in.
"""

from __future__ import annotations

import itertools

import numpy as np

from l1cert import pointset

ROW_CHUNK = 128


def canonical_addresses(k: int, n: int) -> list[str]:
    """Vertex addresses in P1/L1EMB order: L, R, then by level, path, position."""
    positions = [q for q in range(1, 2 * k) if q != k]
    out = ["L", "R"]
    for level in range(1, n + 1):
        for path in itertools.product(range(1, 2 * k + 1), repeat=level - 1):
            head = ".".join(map(str, path))
            out.extend(f"{head}/{q}" for q in positions)
    return out


def gaussian_embedding_text(k: int, n: int, d: int, seed: int) -> str:
    """A seeded standard-normal embedding of P(k, n) into R**d, as L1EMB v1 text."""
    addresses = canonical_addresses(k, n)
    rows = np.random.default_rng(seed).standard_normal((len(addresses), d)).tolist()
    lines = [f"L1EMB v1 d={d} N={len(addresses)} k={k} n={n}"]
    lines.extend(a + " " + " ".join(map(repr, row)) for a, row in zip(addresses, rows))
    return "\n".join(lines) + "\n"


def parse_embedding(text: str) -> np.ndarray:
    """The (N, d) coordinate matrix of an L1EMB v1 text, in file order."""
    return np.array([[float(x) for x in line.split()[1:]] for line in text.splitlines()[1:]])


def parse_label_bits(text: str) -> np.ndarray:
    """The (N, k**n) 0/1 label matrix of a P1 text, in file order."""
    lines = text.splitlines()
    dim = int(lines[0].split()[4].partition("=")[2])
    bits = np.zeros((len(lines) - 1, dim))
    for row, line in enumerate(lines[1:]):
        intervals = line.split(" ")[1]
        if intervals != "-":
            for chunk in intervals.split(","):
                a, _, b = chunk.partition("-")
                bits[row, int(a) : int(b)] = 1.0
    return bits


def expansion(bits: np.ndarray, points: np.ndarray) -> float:
    """Max over distinct pairs of embedded L1 distance / label L1 distance."""
    ones = bits.sum(axis=1)
    best = 0.0
    for i0 in range(0, len(bits), ROW_CHUNK):
        i1 = min(i0 + ROW_CHUNK, len(bits))
        label = ones[i0:i1, None] + ones[None, :] - 2.0 * (bits[i0:i1] @ bits.T)
        embedded = np.abs(points[i0:i1, None, :] - points[None, :, :]).sum(axis=-1)
        label[np.arange(i1 - i0), np.arange(i0, i1)] = np.inf  # skip the diagonal
        best = max(best, float((embedded / label).max()))
    return best


def min_constraint_lhs(graph, points: np.ndarray) -> float:
    """Smallest separation-constraint left-hand side over all levels.

    `points` holds one row per vertex in canonical order. Level-l averages
    are (F(head) - F(tail)) / k**(n-l), grouped as ((2k)**(l-1), 2k, d);
    the pairs b and b+k are folded, and every split r comes from a cumsum.
    """
    k, n = graph.params.k, graph.params.n
    index = {v: i for i, v in enumerate(graph.vertices)}
    best = np.inf
    for level in range(1, n + 1):
        ends = [
            pointset.edge_endpoints(graph, prefix)
            for prefix in itertools.product(range(1, 2 * k + 1), repeat=level)
        ]
        tails = np.array([index[t] for t, _ in ends])
        heads = np.array([index[h] for _, h in ends])
        avg = (points[heads] - points[tails]) / k ** (n - level)
        avg = avg.reshape(-1, 2 * k, points.shape[1])
        paired = avg[:, :k] + avg[:, k:]
        total = paired.sum(axis=1)
        partial = np.cumsum(paired, axis=1)[:, : k - 1]
        lhs = np.abs(2.0 * partial - total[:, None, :]).sum(axis=-1) / (2 * k)
        best = min(best, float(lhs.min()))
    return best


def epsilon(graph, points: np.ndarray, bits: "np.ndarray | None" = None) -> float:
    """Worst constraint slack; with label bits, after scaling out the expansion."""
    if bits is not None:
        points = points * (1.0 / expansion(bits, points))
    return max(0.0, 1.0 - min_constraint_lhs(graph, points))
