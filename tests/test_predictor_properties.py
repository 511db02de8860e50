"""Property test of predictor_success's one-pass table validation.

Core claim: on any table of rows, valid or not (non-finite, negative,
off-sum, ragged, too few rows, rows given as ProbVectors), predictor_success
raises exactly the exception a ProbVector built per row raises, with the
same message, or returns the same (predictor, success) bit for bit.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from l1cert.oracle import predictor_success  # noqa: E402
from l1cert.infotheory import ProbVector, stochastic_table  # noqa: E402

# Most rows are left valid, so that whole tables often pass and the
# returned values are compared too.
FAULTS = ["none"] * 10 + [
    "nan", "inf", "-inf", "clipped negative", "negative", "off sum", "ragged", "probvector",
]
# Relative sum offsets on both sides of SUM_TOLERANCE (1e-9) and far past it.
SUM_OFFSETS = [-1.5e-9, -1e-9, -5e-10, 5e-10, 1e-9, 1.1e-9, 2e-9, 1e-3, -0.5]


def _per_row_reference(distributions):
    """predictor_success as it was: one validated ProbVector per row, then stacked."""
    qs = [q if isinstance(q, ProbVector) else ProbVector(q) for q in distributions]
    if len(qs) < 2:
        raise ValueError("need at least two distributions")
    sizes = {len(q) for q in qs}
    if len(sizes) != 1:
        raise ValueError(f"alphabet mismatch among distributions: {sorted(sizes)}")
    stacked = np.stack([q.weights for q in qs])
    return stacked.argmax(axis=0), float(stacked.max(axis=0).sum()) / len(qs)


@st.composite
def tables(draw):
    k = draw(st.integers(min_value=0, max_value=6))
    # Up to 40 symbols, so row sums take numpy's 8-way pairwise branch too.
    m = draw(st.integers(min_value=1, max_value=40))
    weights = st.floats(min_value=0.0, max_value=1.0)
    rows = []
    for _ in range(k):
        row = np.array(draw(st.lists(weights, min_size=m, max_size=m)))
        row = row / row.sum() if row.sum() > 0 else np.full(m, 1.0 / m)
        fault = draw(st.sampled_from(FAULTS))
        cell = draw(st.integers(min_value=0, max_value=m - 1))
        if fault in ("nan", "inf", "-inf"):
            row[cell] = float(fault)
        elif fault == "clipped negative":
            row[cell] = -1e-12
        elif fault == "negative":
            row[cell] = -draw(st.sampled_from([2e-12, 1e-6, 0.5]))
        elif fault == "off sum":
            row = row * (1.0 + draw(st.sampled_from(SUM_OFFSETS)))
        elif fault == "ragged":
            # A uniform row one symbol shorter or longer, or an empty one.
            size = draw(st.sampled_from([0, m - 1, m + 1]))
            row = np.full(size, 1.0 / size) if size else row[:0]
        if fault == "probvector":
            rows.append(ProbVector(row))
        else:
            rows.append(row.tolist() if draw(st.booleans()) else row)
    if rows and draw(st.booleans()):
        try:
            table = np.array(rows, dtype=float)
        except (TypeError, ValueError):
            return rows
        # A transposed (F-ordered) copy holds the same rows with strided
        # storage, whose row sums need not add in a row's own order.
        return np.asfortranarray(table) if draw(st.booleans()) else table
    return rows


@settings(max_examples=400)
@given(tables())
def test_matches_one_probvector_per_row(distributions):
    if not any(isinstance(q, ProbVector) for q in distributions):
        _assert_rows_accepted_alone(distributions)
    try:
        want = _per_row_reference(distributions)
    except Exception as exc:
        with pytest.raises(type(exc)) as info:
            predictor_success(distributions)
        assert str(info.value) == str(exc)
        return
    predictor, success = predictor_success(distributions)
    assert predictor.dtype == want[0].dtype
    assert np.array_equal(predictor, want[0])
    assert success == want[1]


def _assert_rows_accepted_alone(distributions):
    """stochastic_table accepts a table only if ProbVector accepts each row
    alone, and then holds exactly the stacked ProbVector weights."""
    table = stochastic_table(distributions)
    if table is not None:
        stacked = np.stack([ProbVector(q).weights for q in distributions])
        assert table.flags.c_contiguous and np.array_equal(table, stacked)


def test_transposed_tables_at_the_tolerance_edge():
    """Rows scaled to within a few ulps of a 1 + SUM_TOLERANCE sum, stored
    F-ordered: a table's row sum taken in another order than the row's own
    can fall on the other side of the tolerance."""
    rng = np.random.default_rng(7)
    m = 40
    for _ in range(20):
        row = rng.random(m)
        row /= row.sum()
        for ulps in range(-4, 5):
            scaled = row * (1.0 + 1e-9 + ulps * 1e-16)
            table = np.asfortranarray(np.stack([scaled, np.full(m, 1.0 / m)]))
            _assert_rows_accepted_alone(table)
            try:
                want = _per_row_reference(table)
            except ValueError as exc:
                with pytest.raises(ValueError, match=f"^{exc}$"):
                    predictor_success(table)
                continue
            predictor, success = predictor_success(table)
            assert np.array_equal(predictor, want[0]) and success == want[1]
