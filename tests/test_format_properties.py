"""Property tests of the P1 and L1EMB parsers against mutated files.

Core claim: any single-token or single-line mutation of a valid file for
P(2,2) or P(3,2) is either rejected with FormatError alone, or accepted
and written back as the canonical form of what it says. For P1 that is
the original file, since only the construction itself is accepted; for
L1EMB it is the canonical addresses with every coordinate as
repr(float(token)). The L1EMB reader's canonical path (one np.loadtxt
parse) accepts only what the per-line float() reader accepts, with the
same bits.
"""

import functools

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from l1cert.l1metric import (  # noqa: E402
    _canonical_matrix,
    _matrix_from_lines,
    embedding_from_text,
    embedding_to_text,
    make_embedding,
)
from l1cert.pointset import (  # noqa: E402
    FormatError,
    GraphParams,
    build_graph,
    point_set,
    pointset_from_text,
    pointset_to_text,
)

SIZES = [(2, 2), (3, 2)]
# Tokens that are valid somewhere in one of the two formats, or nearly so.
NEAR_TOKENS = [
    "", "L", "R", "/1", "/01", "1/1", "01/1", "+2/3", "2/3", "1.2/3", "7/1", "1/2/3",
    "-", "0-1", "2-4", "0-1,2-4", "00-1", "4-2", "0-99", "1-1", "0--1", "0-1,1-2",
    "0.5", "-0.0", "1e400", "nan", "-inf", "1_0", "１２", "0x1p3", "1,5", "+.5",
    "P1", "L1EMB", "v1", "v2", "k=2", "k=3", "n=1", "n=2", "N=12", "N=30", "d=2", "d=0",
    "d=99999999999", "dim=4", "dim=9", "=", "k=", "k=x", "\t", "\r", "\x0c", " ",
    "1e5_0", "\u0661\u0662", "4.9e-324", "1e-400", "0.5\t-1",
]
TOKENS = st.one_of(
    st.sampled_from(NEAR_TOKENS),
    st.text(alphabet="0123456789.-+/,=eLRkndNvx_ \t", max_size=8),
)


@functools.lru_cache(maxsize=None)
def p1_text(k, n):
    return pointset_to_text(point_set(build_graph(GraphParams(k, n))))


@functools.lru_cache(maxsize=None)
def l1emb_text(k, n):
    ps = pointset_from_text(p1_text(k, n))
    rng = np.random.default_rng(k * 10 + n)
    return embedding_to_text(ps, make_embedding({a: rng.standard_normal(2) for a in ps.addresses}))


@st.composite
def mutated(draw, text):
    """`text` with one token replaced, respelled, deleted or inserted, or one line changed."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    tokens = lines[i].split(" ")
    ops = ["replace", "respell", "respell", "respell", "delete", "insert", "drop", "repeat", "line"]
    op = draw(st.sampled_from(ops))
    if op == "replace":
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(TOKENS)
    elif op == "respell":
        # Edits that often keep a token valid: "01/1", "+0.5", "0.50", "-0.5".
        j = draw(st.integers(0, len(tokens) - 1))
        prefix = draw(st.sampled_from(["", "0", "00", "+", "-"]))
        suffix = draw(st.sampled_from(["", "0", "e0", "_0", ".", "1"]))
        tokens[j] = prefix + tokens[j] + suffix
    elif op == "delete":
        del tokens[draw(st.integers(0, len(tokens) - 1))]
    elif op == "insert":
        tokens.insert(draw(st.integers(0, len(tokens))), draw(TOKENS))
    if op in ("replace", "respell", "delete", "insert"):
        lines[i] = " ".join(tokens)
    elif op == "drop":
        del lines[i]
    elif op == "repeat":
        lines.insert(i, lines[i])
    else:
        lines[i] = " ".join(draw(st.lists(TOKENS, max_size=4)))
    return "\n".join(lines) + "\n"


@given(data=st.data(), size=st.sampled_from(SIZES))
def test_mutated_p1_is_rejected_or_reads_back_as_the_original(data, size):
    original = p1_text(*size)
    text = data.draw(mutated(original))
    try:
        ps = pointset_from_text(text)
    except FormatError:
        return
    assert pointset_to_text(ps) == original


@given(data=st.data(), size=st.sampled_from(SIZES))
def test_mutated_l1emb_is_rejected_or_reads_back_canonically(data, size):
    ps = pointset_from_text(p1_text(*size))
    original = l1emb_text(*size)
    text = data.draw(mutated(original))
    try:
        emb = embedding_from_text(text, ps)
    except FormatError:
        return
    header = original.splitlines()[0]
    rows = [line.split()[1:] for line in text.splitlines()[1:]]
    want = [header] + [
        name + " " + " ".join(repr(float(x)) for x in row)
        for name, row in zip(ps.graph.vertices, rows)
    ]
    assert embedding_to_text(ps, emb) == "\n".join(want) + "\n"


@given(data=st.data(), size=st.sampled_from(SIZES))
def test_canonical_l1emb_path_reads_the_bits_of_the_per_line_reader(data, size):
    ps = pointset_from_text(p1_text(*size))
    lines = data.draw(mutated(l1emb_text(*size))).splitlines()[1:]
    fast = _canonical_matrix(lines, ps.graph.vertices, 2)
    if fast is None:
        return
    slow = _matrix_from_lines(lines, ps.graph.vertices, ps.params, 2, 2)
    assert np.array_equal(fast.view(np.int64), slow.view(np.int64))


def test_mixed_spellings_read_the_same_bits_both_ways():
    ps = pointset_from_text(p1_text(3, 2))
    rng = np.random.default_rng(41)
    values = rng.standard_normal((len(ps), 6)) * 10.0 ** rng.integers(-300, 300, (len(ps), 6))
    values[:, 5] = np.arange(len(ps)) * 5e-324  # subnormals, zero included
    spellings = ["%r", "%.17e", "%.5g", "%.25f", "%r", "%.17e"]
    lines = [
        name + "".join(" " + (spell % float(v)) for spell, v in zip(spellings, row))
        for name, row in zip(ps.graph.vertices, values)
    ]
    fast = _canonical_matrix(lines, ps.graph.vertices, 6)
    slow = _matrix_from_lines(lines, ps.graph.vertices, ps.params, 6, 2)
    assert fast is not None
    assert np.array_equal(fast.view(np.int64), slow.view(np.int64))
    header = f"L1EMB v1 d=6 N={len(ps)} k=3 n=2"
    emb = embedding_from_text("\n".join([header, *lines]) + "\n", ps)
    assert np.array_equal(emb.matrix.view(np.int64), slow.view(np.int64))
