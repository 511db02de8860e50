"""Entropy, mutual information, and the Fano-type predictor bound.

Everything operates on explicit finite probability tables (no sampling,
no estimation). Logarithms are base 2 throughout, 0*log(0) is 0, and
weights below 1e-12 are treated as exact zeros before taking logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pointset import CapacityError

ZERO_WEIGHT = 1e-12
SUM_TOLERANCE = 1e-9
# Largest joint table; oracle.build_message_joint checks it before lifting any edge.
MAX_TABLE_CELLS = 2**24


def _clean_weights(raw, what: str) -> np.ndarray:
    arr = np.array(raw, dtype=float)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} has non-finite entries")
    if arr.min(initial=0.0) < -ZERO_WEIGHT:
        raise ValueError(f"{what} has a negative entry: {arr.min()}")
    arr[arr < 0.0] = 0.0
    total = arr.sum()
    if abs(total - 1.0) > SUM_TOLERANCE:
        raise ValueError(f"{what} sums to {total}, expected 1")
    arr.flags.writeable = False
    return arr


def stochastic_table(rows) -> np.ndarray | None:
    """The rows as one C-ordered (..., k >= 2, m >= 1) stack of tables of
    nonnegative rows, each summing to 1 within SUM_TOLERANCE, or None.

    A one-pass form of _clean_weights for a stack of probability vectors.
    None covers every table with a row ProbVector rejects, and also ragged
    rows, too few rows and negative entries _clean_weights would clip to 0.
    NaN fails both comparisons, an infinite entry the sum's. The table is
    copied to C order, so each row sum runs over a contiguous last axis
    and is the one _clean_weights gives for that row alone.
    """
    try:
        table = np.array(rows, dtype=float, order="C")
    except (TypeError, ValueError):
        return None
    if table.ndim < 2 or table.shape[-2] < 2 or table.shape[-1] < 1:
        return None
    if not (table.min() >= 0.0 and (np.abs(table.sum(axis=-1) - 1.0) <= SUM_TOLERANCE).all()):
        return None
    return table


def probability_table(rows, check_count) -> np.ndarray:
    """The rows as a (..., k, m) stack of probability tables, checked by
    stochastic_table; else one table at a time, each row into a ProbVector
    then check_count(k), so an error is the one the first bad table gives
    alone, and rows ProbVector clips are clipped. Alphabets are compared last.
    """
    if not isinstance(rows, np.ndarray):
        rows = [q.weights if isinstance(q, ProbVector) else q for q in rows]
    table = stochastic_table(rows)
    if table is not None:
        check_count(table.shape[-2])
        return table
    stacked = isinstance(rows, np.ndarray) and rows.ndim > 2
    cases = rows.reshape((math.prod(rows.shape[:-2]),) + rows.shape[-2:]) if stacked else [rows]
    qs = []
    for case in cases:
        qs += [ProbVector(q) for q in case]
        check_count(len(case))
    sizes = {len(q) for q in qs}
    if len(sizes) != 1:
        raise ValueError(f"alphabet mismatch among distributions: {sorted(sizes)}")
    table = np.stack([q.weights for q in qs])
    return table.reshape(rows.shape) if stacked else table


@dataclass(frozen=True, eq=False)
class ProbVector:
    """A probability distribution over a finite alphabet."""

    weights: np.ndarray

    def __init__(self, weights) -> None:
        arr = _clean_weights(weights, "probability vector")
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("probability vector must be one-dimensional and non-empty")
        object.__setattr__(self, "weights", arr)

    def __len__(self) -> int:
        return self.weights.size


@dataclass(frozen=True, eq=False)
class JointDistribution:
    """A joint distribution over a product of finite alphabets, stored densely."""

    alphabet_sizes: tuple[int, ...]
    table: np.ndarray

    def __init__(self, alphabet_sizes, table) -> None:
        sizes = tuple(int(s) for s in alphabet_sizes)
        if any(s < 1 for s in sizes):
            raise ValueError("alphabet sizes must be positive")
        cells = math.prod(sizes)
        if cells > MAX_TABLE_CELLS:
            raise CapacityError(f"joint table with {cells} cells exceeds {MAX_TABLE_CELLS}")
        arr = _clean_weights(table, "joint table")
        if arr.shape != sizes:
            raise ValueError(f"table shape {arr.shape} does not match alphabets {sizes}")
        object.__setattr__(self, "alphabet_sizes", sizes)
        object.__setattr__(self, "table", arr)

    @property
    def num_coordinates(self) -> int:
        return len(self.alphabet_sizes)

    def _coords(self, spec) -> tuple[int, ...]:
        coords = (spec,) if isinstance(spec, int) else tuple(spec)
        seen = []
        for c in coords:
            if not 0 <= c < self.num_coordinates:
                raise ValueError(f"coordinate {c} out of range")
            if c not in seen:
                seen.append(c)
        return tuple(sorted(seen))

    def marginal(self, coords) -> np.ndarray:
        """Marginal table over a coordinate subset (ascending coordinate order)."""
        keep = self._coords(coords)
        drop = tuple(c for c in range(self.num_coordinates) if c not in keep)
        return self.table.sum(axis=drop) if drop else self.table

    def entropy_of(self, coords) -> float:
        return float(_entropy_bits(self.marginal(coords).ravel()))


def _entropy_bits(weights: np.ndarray) -> np.ndarray:
    """Entropy in bits of each distribution along the last axis; weights at
    most ZERO_WEIGHT count as exact zeros, masked before the log."""
    w = np.asarray(weights, dtype=float)
    logs = np.log2(w, out=np.zeros_like(w), where=w > ZERO_WEIGHT)
    return -(w * logs).sum(axis=-1)


def binary_entropy(x):
    """-x*log2(x) - (1-x)*log2(1-x) on [0, 1], 0*log(0) = 0; elementwise on an array."""
    arr = np.asarray(x, dtype=float)
    outside = ~((arr >= -ZERO_WEIGHT) & (arr <= 1.0 + ZERO_WEIGHT))
    if outside.any():
        raise ValueError(f"binary entropy argument {arr[outside][0]} outside [0, 1]")
    arr = np.clip(arr, 0.0, 1.0)
    h = _entropy_bits(np.stack([arr, 1.0 - arr], axis=-1))
    return h if h.ndim else float(h)


def entropy(p) -> float:
    """Shannon entropy in bits; at most log2 of the alphabet size."""
    if not isinstance(p, ProbVector):
        p = ProbVector(p)
    return float(_entropy_bits(p.weights))


def table_information(tables) -> np.ndarray:
    """I(A:B) = H(A) + H(B) - H(A, B) of each (..., a, b) joint table, unchecked."""
    t = np.ascontiguousarray(tables, dtype=float)
    joint = t.reshape(t.shape[:-2] + (t.shape[-2] * t.shape[-1],))
    return _entropy_bits(t.sum(axis=-1)) + _entropy_bits(t.sum(axis=-2)) - _entropy_bits(joint)


def mutual_information(joint: JointDistribution, i, j) -> float:
    """H(X_i) + H(X_j) - H(X_i X_j) for disjoint coordinate groups i and j."""
    gi, gj = joint._coords(i), joint._coords(j)
    if set(gi) & set(gj):
        raise ValueError(f"coordinate groups overlap: {gi} and {gj}")
    return joint.entropy_of(gi) + joint.entropy_of(gj) - joint.entropy_of(gi + gj)


def conditional_mutual_information(joint: JointDistribution, i, j, given=()) -> float:
    """Expected mutual information of groups i and j given the `given` coordinates.

    Computed as H(i,Z) + H(j,Z) - H(i,j,Z) - H(Z); i and j may overlap with
    each other (I(X:X|Z) collapses to H(X|Z)) but not with Z.
    """
    gi, gj, gz = joint._coords(i), joint._coords(j), joint._coords(given)
    if (set(gi) | set(gj)) & set(gz):
        raise ValueError("conditioning coordinates overlap the variable groups")
    h_z = joint.entropy_of(gz) if gz else 0.0
    return (
        joint.entropy_of(tuple(sorted(set(gi) | set(gz))))
        + joint.entropy_of(tuple(sorted(set(gj) | set(gz))))
        - joint.entropy_of(tuple(sorted(set(gi) | set(gj) | set(gz))))
        - h_z
    )


def fano_term(k: int, delta):
    """log2 k - delta*log2(k-1) - H(delta): fano_bound at error delta = 1 - p,
    unchecked; elementwise on an array of delta."""
    log_km1 = 0.0 if k == 2 else math.log2(k - 1)
    return math.log2(k) - delta * log_km1 - binary_entropy(delta)


def fano_bound(k: int, p: float) -> float:
    """Lower bound on I(X:Y) when X is uniform on [k] and some predictor
    recovers X from Y with success probability p >= 1/2:

        log2(k) - (1-p)*log2(k-1) - H(p).
    """
    if not isinstance(k, int) or k < 2:
        raise ValueError(f"k must be an integer >= 2, got {k}")
    if not 0.5 <= p <= 1.0:
        raise ValueError(f"success probability {p} outside [1/2, 1]")
    return fano_term(k, 1.0 - p)


def chain_rule_terms(joint: JointDistribution) -> list[float]:
    """Decompose I(X_1..X_n : M) where M is the last coordinate.

    Returns [I(X_1:M), I(X_2:M | X_1), ..., I(X_n:M | X_1..X_{n-1})];
    the terms sum to the total mutual information.
    """
    total = joint.num_coordinates
    if total < 2:
        raise ValueError("joint must have at least one X coordinate plus M")
    message = total - 1
    return [
        conditional_mutual_information(joint, c, message, tuple(range(c)))
        for c in range(message)
    ]
