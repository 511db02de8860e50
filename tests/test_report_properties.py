"""Property test of the vectorized constraint report against its reference.

Core claim: for small (k, n, d) and any embedding read back through
embedding_from_text, whose rows are named by the graph and not by
addresses, every constraint_report entry equals constraint_lhs, the
per-prefix reference that looks each row up by address, to 1e-12.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from l1cert.certifier import constraint_lhs, constraint_report  # noqa: E402
from l1cert.l1metric import Embedding, embedding_from_text, embedding_to_text  # noqa: E402

SIZES = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 2), (4, 3)]


@given(
    size=st.sampled_from(SIZES),
    d=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    decades=st.integers(-3, 3),
)
def test_report_equals_the_per_prefix_reference(pointsets, size, d, seed, decades):
    ps = pointsets(*size)
    rows = np.random.default_rng(seed).standard_normal((len(ps), d)) * 10.0**decades
    emb = embedding_from_text(embedding_to_text(ps, Embedding(rows, ps)), ps)
    assert emb.graph is ps
    report = constraint_report(ps, emb)
    for e in report.entries:
        reference = constraint_lhs(ps, emb, e.prefix, e.r)
        assert e.lhs == pytest.approx(reference, rel=1e-12, abs=1e-12)
