"""Property test: each stacked proof-step primitive equals its one-case call.

Core claims, on stacks of mixed shapes (d = 1, zero rows, norms at the
lift's slack, dyadic pairs): row by row, nonneg_lift, lift_recover, both
sides of max_claim_gap, predictor_success's success and lemma_check's
separation, delta and applicable are bit for bit the call on that row
alone, and also the value the one-case code computed before it took
stacks; lemma_check's mutual informations agree within 1e-12. A stack
that holds a bad row raises exactly the ValueError that row raises alone.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from l1cert.certifier import (  # noqa: E402
    LIFT_NORM_SLACK,
    lift_recover,
    nonneg_lift,
    predictor_success,
)
from l1cert.infotheory import JointDistribution, mutual_information  # noqa: E402
from l1cert.oracle import lemma_check, max_claim_gap  # noqa: E402


def _bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def _lift_before(vec):
    """nonneg_lift's weights as the one-case code computed them."""
    arr = np.asarray(vec, dtype=float)
    norm = float(np.abs(arr).sum())
    pos, neg = np.maximum(arr, 0.0), np.maximum(-arr, 0.0)
    if norm > 1.0:
        pos, neg, norm = pos / norm, neg / norm, 1.0
    return np.concatenate([pos, neg, [1.0 - norm]])


def _gap_before(values):
    """max_claim_gap as the one-case code computed it."""
    arr = np.asarray(values, dtype=float)
    total = float(arr.sum())
    prefix = np.cumsum(arr)[:-1]
    return total - float(arr.max()), 0.5 * float((total - np.abs(2.0 * prefix - total)).sum())


def _separation_before(table):
    """lemma_check's separation as the one-case code computed it."""
    k = len(table) // 2
    folded = (table[:k] + table[k:]) / 2.0
    prefix = np.cumsum(folded, axis=0)[:-1]
    return float(np.abs(2.0 * prefix - folded.sum(axis=0)).sum(axis=1).min() / k)


def _raised(call, arg):
    try:
        call(arg)
    except ValueError as exc:
        return str(exc)
    return None


def _assert_raises_first_bad(call, cases, stack) -> bool:
    """If some case raises alone, the stack raises the first one's error."""
    errors = [e for e in (_raised(call, case) for case in cases) if e is not None]
    if errors:
        with pytest.raises(ValueError) as info:
            call(stack)
        assert str(info.value) == errors[0]
    return bool(errors)


@st.composite
def lift_stacks(draw):
    d = draw(st.integers(min_value=1, max_value=9))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        kind = draw(st.sampled_from(["inside", "inside", "zero", "at slack"]))
        vec = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
        norm = np.abs(vec).sum()
        if kind == "zero" or norm == 0.0:
            vec = np.zeros(d)
        elif kind == "inside":
            vec = vec / (norm * draw(st.sampled_from([1.0, 1.5, 4.0])))
        else:
            vec = vec / norm * (1.0 + LIFT_NORM_SLACK)
        rows.append(vec)
    stack = np.array(rows)
    # One stack in three gets a bad row: a norm past the slack, or a NaN.
    fault = draw(st.sampled_from(["none", "none", "over", "nan"]))
    row, col = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, d - 1))
    if fault == "over":
        stack[row, col] = 1.01 + np.abs(stack[row]).sum()
    elif fault == "nan":
        stack[row, col] = np.nan
    return stack


@settings(max_examples=200)
@given(lift_stacks())
def test_lift_and_recover_equal_the_one_row_calls(stack):
    if _assert_raises_first_bad(nonneg_lift, list(stack), stack):
        return
    lifted = nonneg_lift(stack)
    recovered = lift_recover(lifted)
    for row, vec in enumerate(stack):
        alone = nonneg_lift(vec)
        assert _bits(lifted[row]) == _bits(alone) == _bits(_lift_before(vec))
        assert _bits(recovered[row]) == _bits(lift_recover(alone))
        assert _bits(lift_recover(alone)) == _bits(alone[: len(vec)] - alone[len(vec) : -1])


@st.composite
def gap_stacks(draw):
    if draw(st.booleans()):
        # Dyadic pairs, on which both sides are exact and equal.
        pairs = draw(st.lists(st.integers(0, 2**20), min_size=2, max_size=12))
        return np.array(pairs[: len(pairs) // 2 * 2], dtype=float).reshape(-1, 2) / 2.0**20
    m = draw(st.integers(min_value=2, max_value=12))
    entry = st.one_of(st.floats(0.0, 5.0), st.just(0.0))
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=6))):
        zero = draw(st.integers(0, 5)) == 0
        rows.append([0.0] * m if zero else draw(st.lists(entry, min_size=m, max_size=m)))
    stack = np.array(rows)
    if draw(st.integers(0, 3)) == 0:  # a negative entry in one row
        row, col = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, m - 1))
        stack[row, col] = -draw(st.sampled_from([1e-300, 0.5]))
    return stack


@settings(max_examples=200)
@given(gap_stacks())
def test_claim_gap_equals_the_one_row_calls(stack):
    if _assert_raises_first_bad(max_claim_gap, list(stack), stack):
        return
    lhs, rhs = max_claim_gap(stack)
    for row, values in enumerate(stack):
        alone = max_claim_gap(values)
        assert _bits((lhs[row], rhs[row])) == _bits(alone) == _bits(_gap_before(values))
        if values.size == 2:
            assert lhs[row] <= rhs[row]


@st.composite
def lemma_stacks(draw):
    k = draw(st.sampled_from([2, 3, 4, 5, 6] * 3 + [7]))
    d = draw(st.integers(min_value=1, max_value=17))
    count = draw(st.integers(min_value=1, max_value=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    stack = rng.random((count, 2 * k, d))
    stack[rng.random(stack.shape) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    sums = stack.sum(axis=-1, keepdims=True)
    stack = np.where(sums > 0, stack / np.where(sums > 0, sums, 1.0), 1.0 / d)
    pulled = rng.random(count) < 0.25  # opposite rows made equal
    stack[pulled, k:] = stack[pulled, :k]
    sharp = np.zeros((2 * k, d))
    sharp[np.arange(2 * k), np.arange(2 * k) % k % d] = 1.0
    near = rng.random(count) < 0.4  # most mass on one point per opposite pair
    stack[near] = 0.9 * sharp + 0.1 * stack[near]
    # One stack in three gets a bad row: a negative entry, a sum off 1, or a NaN.
    fault = draw(st.sampled_from(["none"] * 6 + ["negative", "off sum", "nan"]))
    cell = (draw(st.integers(0, count - 1)), draw(st.integers(0, 2 * k - 1)))
    col = draw(st.integers(0, d - 1))
    if fault == "negative":
        stack[cell + (col,)] = -0.25
    elif fault == "off sum":
        stack[cell] *= 1.5
    elif fault == "nan":
        stack[cell + (col,)] = np.nan
    return stack


@settings(max_examples=200)
@given(lemma_stacks())
def test_lemma_equals_the_one_table_calls(stack):
    if _assert_raises_first_bad(lemma_check, list(stack), stack):
        return
    report = lemma_check(stack)
    _, success = predictor_success(stack)
    k, d = stack.shape[1] // 2, stack.shape[2]
    for row, table in enumerate(stack):
        alone = lemma_check(table)
        assert _bits(report.separation[row]) == _bits(alone.separation)
        assert _bits(report.separation[row]) == _bits(_separation_before(table))
        assert _bits(report.delta[row]) == _bits(alone.delta)
        assert report.applicable[row] == alone.applicable
        assert report.holds[row] == alone.holds
        assert _bits(report.bound[row]) == _bits(alone.bound)
        exact = mutual_information(JointDistribution((2 * k, d), table / (2 * k)), 0, 1)
        assert abs(report.mi_exact[row] - exact) <= 1e-12
        assert abs(report.mi_exact[row] - alone.mi_exact) <= 1e-12
        assert abs(report.mi_folded[row] - alone.mi_folded) <= 1e-12
        assert _bits(success[row]) == _bits(predictor_success(table)[1])
