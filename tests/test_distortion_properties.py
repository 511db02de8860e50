"""Property test of the screened distortion pass against the full-matrix fold.

Core claim: on inputs that stress the float32 screen's margin, `distortion`
equals `full_matrix_report` over the naive pairwise sums and the label
distance matrix field for field, with warnings as errors, at
BLOCK_ELEMENTS 1, 1025 and the default; where that fold overflows, it
raises OverflowError. The inputs: offsets of 1e6 to 1e12, scales of
2**-120 to 2**120, coordinates near 1e308, integer lattices with tied
ratios, coincident and near-coincident pairs, a pair at the lowest ratio
and a later one whose ratio is within float32's precision of it, and the
identity embedding with and without noise, at d in {1, 2, 8, 16, 130} on labels of one word
and of two.
"""

import math
import warnings
from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from conftest import full_matrix_report, naive_pairwise  # noqa: E402
from l1cert import l1metric  # noqa: E402
from l1cert.l1metric import Embedding, distortion, identity_embedding  # noqa: E402
from l1cert.pointset import BLOCK_ELEMENTS  # noqa: E402

# N = 12, 44, 30, 172 and 56 on one-word labels; P(9,2) has 81-bit labels
# in two words and N = 306.
SIZES = [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (9, 2)]
DEPTHS = [1, 2, 8, 16, 130]
KINDS = ["gaussian", "lattice", "identity", "noisy_identity", "huge", "near_max"]
# The naive reference holds N * N * d floats; past this many it is not drawn.
MAX_REFERENCE = 2**21


def rows_of(ps, kind, d, rng):
    if kind in ("identity", "noisy_identity"):
        rows = identity_embedding(ps).matrix.copy()
        if kind == "noisy_identity":
            rows += rng.standard_normal(rows.shape) * 2.0 ** float(rng.integers(-40, -10))
        return rows
    if kind == "lattice":
        return rng.integers(-2, 3, (len(ps), d)).astype(float)
    if kind == "huge":  # spreads past the float range: the pass must overflow
        return rng.uniform(-1.0, 1.0, (len(ps), d)) * 1.7e308
    rows = rng.standard_normal((len(ps), d))
    if kind == "near_max":  # close to 1e308: centred, past float32's range
        return 1e308 * (1.0 + 1e-3 * rows)
    return rows


def twin_pairs(ps, points, rng, eps):
    """Give a pair in the first half of the rows the lowest ratio, and a later pair of
    the same label distance a ratio 1 + eps times it: within float32's precision of it.
    """
    n = len(ps)
    i, j = rng.choice(n // 2, 2, replace=False)
    later = np.argwhere(np.triu(ps.distance_matrix == ps.distance_matrix[i, j], 1)[n // 2 :])
    if len(later):
        p, q = later[rng.integers(len(later))] + [n // 2, 0]
        step = rng.standard_normal(points.shape[1]) * (1e-6 * np.abs(points).max())
        points[j] = points[i] + step
        points[q] = points[p] + step * (1.0 + eps)


def expected(points, original):
    """full_matrix_report, or OverflowError where a distance or a ratio overflows."""
    with np.errstate(all="ignore"):
        report = full_matrix_report(points, original)
        coincident = (naive_pairwise(points)[np.triu_indices(len(points), 1)] == 0.0).any()
    if math.isinf(report.expansion) or (math.isinf(report.contraction) and not coincident):
        return OverflowError
    return report


@settings(max_examples=200)
@given(
    size=st.sampled_from(SIZES),
    d=st.sampled_from(DEPTHS),
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
    scale=st.sampled_from([0, -120, 120]) | st.integers(-120, 120),
    offset=st.sampled_from([0.0, 1e6, 1e12]) | st.floats(1e6, 1e12),
    ties=st.integers(0, 3),
    twin=st.sampled_from([None, -1, 0, 1]),
)
def test_distortion_equals_the_full_matrix_fold(
    pointsets, size, d, kind, seed, scale, offset, ties, twin
):
    ps = pointsets(*size)
    rng = np.random.default_rng(seed)
    points = rows_of(ps, kind, d, rng)
    assume(len(ps) ** 2 * points.shape[1] <= MAX_REFERENCE)
    if kind not in ("huge", "near_max"):
        points = (points + offset * rng.uniform(0.5, 1.0, points.shape[1])) * 2.0**scale
    # Coincident (even draws) and near-coincident (odd draws) pairs of rows.
    for t in range(ties):
        i, j = rng.choice(len(ps), 2, replace=False)
        points[j] = points[i] if t % 2 == 0 else np.nextafter(points[i], math.inf)
    if twin is not None:
        twin_pairs(ps, points, rng, twin * 2.0**-30)
    assume(np.isfinite(points).all())
    want = expected(points, ps.distance_matrix)
    emb = Embedding(points, ps.graph)
    for block in (1, 1025, BLOCK_ELEMENTS):
        with mock.patch.object(l1metric, "BLOCK_ELEMENTS", block), warnings.catch_warnings():
            warnings.simplefilter("error")
            if want is OverflowError:
                with pytest.raises(OverflowError):
                    distortion(ps, emb)
            else:
                assert distortion(ps, emb) == want
