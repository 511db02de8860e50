"""Property tests of dimension_bound's monotonicity.

Core claims: for fixed k and eps, raw_bound and min_dimension never
decrease as n grows, inside float range and past it. For fixed k and n,
they never increase as eps grows, whenever the per-level terms come out in
order. binary_entropy rounds, so two nearby eps can give per-level terms
up to about one ulp of log2(k) out of order; the properties bound that
rise and check everything computed after it exactly.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from l1cert.certifier import dimension_bound  # noqa: E402

KS = st.integers(min_value=2, max_value=8)
# n up to 3000 crosses the float range (2**1024) for every k.
NS = st.integers(min_value=1, max_value=3000)
# eps past 1/(k-1) gives the vacuous result, which must also order.
EPS = st.floats(min_value=0.0, max_value=1.5, allow_nan=False)


@given(KS, EPS, NS, NS)
def test_bound_never_decreases_with_n(k, eps, n1, n2):
    lo, hi = sorted((n1, n2))
    shallow, deep = dimension_bound(k, lo, eps), dimension_bound(k, hi, eps)
    assert shallow.raw_bound <= deep.raw_bound
    assert shallow.min_dimension <= deep.min_dimension


@given(KS, NS, EPS, EPS)
def test_bound_never_increases_with_eps(k, n, eps1, eps2):
    lo, hi = sorted((eps1, eps2))
    tight, loose = dimension_bound(k, n, lo), dimension_bound(k, n, hi)
    assert loose.per_level_term <= tight.per_level_term + 4 * math.ulp(math.log2(k))
    if loose.per_level_term <= tight.per_level_term:
        assert loose.raw_bound <= tight.raw_bound
        assert loose.min_dimension <= tight.min_dimension


@given(KS, NS, EPS)
def test_past_float_range_exceeds_every_float(k, n, eps):
    result = dimension_bound(k, n, eps)
    if result.raw_bound == math.inf:
        assert result.min_dimension >= 2**1024
    else:
        assert result.min_dimension < 2**1024
