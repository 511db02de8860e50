"""The P1 and L1EMB text paths, streamed in blocks of whole lines.

Core claims:
    - with the block size also patched down to a few characters, the P1 writer
      gives the bytes of the per-vertex reference, and both readers accept
      their canonical text without reaching a per-line check and read the
      same point set and the same float bits, on P(2,3), P(3,2) and P(2,6);
      the P1 paths also on sizes that reach each width of the writer's
      words: one and two levels, two-digit edge coordinates, endpoints of
      four digits
    - `generate` writes the bytes the per-cycle writer wrote at P(3,6),
      P(2,8) and P(2,10)
    - every FormatError message names the bad line, whether the defect
      sits in the first, a middle or the last block or on a line that
      straddles a block boundary, with LF or CRLF line ends
    - CRLF, CR-only and mixed line ends, CRLF in the first half only and a
      missing final newline read as the canonical file does; text after
      line N+1 is a line-count error;
      blocks end after any line break str.splitlines knows, never inside
      a CRLF
    - memory: the L1EMB read of a pre-read text, canonical, with one
      respelled token or with CRLF or CR-only line ends, holds the matrix, its
      finiteness mask and a few blocks; the P1 writer holds its text, the
      intervals of the vertices above depth n, the last level's per-cycle
      arrays and a few blocks; `generate`, which writes the blocks as they
      come, holds less than its text; the canonical P1 read holds less
      than the writer less half the text, and a P1 read of such a
      differing file the canonical read and a few blocks
    - a P1 read checks line by line only the blocks that differ: one
      respelled header field at P(2,7) costs the first block's lines
"""

import hashlib
import tracemalloc

import numpy as np
import pytest

from l1cert import l1metric, pointset
from l1cert.cli import main
from l1cert.l1metric import Embedding, embedding_from_text, embedding_to_text
from l1cert.pointset import (
    TEXT_BLOCK,
    FormatError,
    GraphParams,
    build_graph,
    point_set,
    pointset_from_text,
    pointset_to_text,
    vertex_count,
)

SIZES = [(2, 3), (3, 2), (2, 6)]
# The P1 writer's words at each width: P(2,1) and P(2,2) have one and two
# levels, P(5,2) two-digit edge coordinates (names like 10/3), P(10,3) the
# first four-digit endpoints (dim 1000) and P(32,2) dim 1024.
P1_SIZES = SIZES + [(2, 1), (2, 2), (5, 2), (10, 3), (32, 2), (3, 5)]
D = 3


@pytest.fixture(params=[1, 300, TEXT_BLOCK])
def block(request, monkeypatch):
    """Both text paths with their block size set to the parameter, in characters."""
    monkeypatch.setattr(pointset, "TEXT_BLOCK", request.param)
    return request.param


@pytest.fixture
def no_line_checks(monkeypatch):
    """Make the per-line checks raise, so that a read that reaches one fails."""

    def refuse(*args, **kwargs):
        raise AssertionError("a canonical file reached a per-line check")

    for module, name in [
        (pointset, "check_address"),
        (pointset, "_parse_intervals"),
        (l1metric, "check_address"),
        (l1metric, "_matrix_from_lines"),
    ]:
        monkeypatch.setattr(module, name, refuse)


def reference_p1(ps):
    """The P1 text from the recursive per-vertex label reference."""
    p = ps.params
    lines = [f"P1 k={p.k} n={p.n} N={len(ps)} dim={p.label_length}"]
    for v in ps.addresses:
        intervals = pointset._label_of(p, v).intervals
        lines.append(f"{v} " + (",".join(f"{a}-{b}" for a, b in intervals) or "-"))
    return "\n".join(lines) + "\n"


def l1emb(ps, d=D, seed=1):
    rng = np.random.default_rng(seed)
    return embedding_to_text(ps, Embedding(rng.standard_normal((len(ps), d)), ps.graph))


def per_line_floats(text):
    return np.array([[float(x) for x in line.split()[1:]] for line in text.splitlines()[1:]])


def defect_lines(text, block):
    """Line numbers of a defect in the first, a middle and the last block, and one straddling.

    The straddling line holds the character `block` places past the
    header's newline, where a block boundary falls.
    """
    lines = text.count("\n")
    straddle = text.count("\n", 0, text.find("\n") + block) + 1
    return sorted({2, lines // 2, lines, max(2, min(straddle, lines))})


def read_error(read, text):
    with pytest.raises(FormatError) as info:
        read(text)
    return str(info.value)


@pytest.mark.parametrize("k,n", P1_SIZES)
def test_p1_round_trip_is_byte_identical(block, no_line_checks, pointsets, k, n):
    ps = pointsets(k, n)
    text = pointset_to_text(ps)
    assert text == reference_p1(ps)
    blocks = list(pointset._p1_blocks(ps))
    assert all(b.endswith("\n") and len(b) >= block for b in blocks[:-1])
    assert pointset_from_text(text).params == ps.params
    assert pointset_to_text(pointset_from_text(text)) == text


@pytest.mark.parametrize("k,n", SIZES)
def test_l1emb_round_trip_is_bit_identical(block, no_line_checks, pointsets, k, n):
    ps = pointsets(k, n)
    text = l1emb(ps)
    want = per_line_floats(text)
    emb = embedding_from_text(text, ps)
    assert np.array_equal(emb.matrix.view(np.int64), want.view(np.int64))
    assert embedding_to_text(ps, emb) == text


# sha256 of the P1 files that `generate` wrote with the per-cycle writer
# that the level-array writer replaced.
GENERATE_SHA256 = {
    (3, 6): "46b9b3063cfa325260bf6e049e6ed9b7c28f29eec9926ab9d90395374115f144",
    (2, 8): "fbca58fb0d7666f6bd768f612a557045832e9137c916c843e177497579d56b4b",
    (2, 10): "dae20961983d13cc019a2ad3189fb96d83d9cdfd1eabdb4ef0da438dfde5115c",
}


@pytest.mark.parametrize("k,n", sorted(GENERATE_SHA256))
def test_generate_writes_the_per_cycle_writers_bytes(tmp_path, k, n):
    out = tmp_path / "p1.txt"
    assert main(["generate", "-k", str(k), "-n", str(n), "-o", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GENERATE_SHA256[(k, n)]


P1_DEFECTS = [
    (lambda line: line.split(" ")[0] + " 0-99999", "line {}: label does not match the construction"),
    (lambda line: "x/1 " + line.split(" ")[1], "line {}: bad vertex address 'x/1'"),
    (lambda line: line + " -", "line {}: expected '<address> <intervals>'"),
    (lambda line: line.split(" ")[0] + " 0-x", "line {}: bad interval '0-x'"),
]


@pytest.mark.parametrize("brk", ["\n", "\r\n"], ids=["lf", "crlf"])
@pytest.mark.parametrize("defect,message", P1_DEFECTS)
def test_p1_errors_name_the_line_in_any_block(block, pointsets, defect, message, brk):
    text = pointset_to_text(pointsets(2, 6))
    for lineno in defect_lines(text, block):
        lines = text.splitlines()
        lines[lineno - 1] = defect(lines[lineno - 1])
        got = read_error(pointset_from_text, brk.join(lines) + brk)
        assert got == message.format(lineno)


def test_p1_line_count_errors_in_any_block(block, pointsets):
    text = pointset_to_text(pointsets(2, 6))
    for lineno in defect_lines(text, block):
        lines = text.splitlines()
        dropped = "\n".join(lines[: lineno - 1] + lines[lineno:]) + "\n"
        assert read_error(pointset_from_text, dropped) == "expected 2732 vertex lines, found 2731"
        repeated = "\n".join(lines[:lineno] + lines[lineno - 1 :]) + "\n"
        assert read_error(pointset_from_text, repeated) == "expected 2732 vertex lines, found 2733"


L1EMB_DEFECTS = [
    (lambda line: line.rpartition(" ")[0] + " abc", "line {}: bad coordinate"),
    (lambda line: line.rpartition(" ")[0] + " inf", "line {}: non-finite coordinate"),
    (lambda line: line.rpartition(" ")[0], "line {}: expected address plus 3 coordinates"),
    (lambda line: line + " 1.0", "line {}: expected address plus 3 coordinates"),
    (lambda line: "x/1 " + line.partition(" ")[2], "line {}: bad vertex address 'x/1'"),
    (lambda line: "R " + line.partition(" ")[2], "line {}: address 'R' out of canonical order"),
]


@pytest.mark.parametrize("defect,message", L1EMB_DEFECTS)
def test_l1emb_errors_name_the_line_in_any_block(block, pointsets, defect, message):
    ps = pointsets(2, 6)
    text = l1emb(ps)
    for lineno in defect_lines(text, block):
        lines = text.splitlines()
        if lines[lineno - 1].startswith("R "):
            continue  # the address defect would leave line 3 as it is
        lines[lineno - 1] = defect(lines[lineno - 1])
        got = read_error(lambda t: embedding_from_text(t, ps), "\n".join(lines) + "\n")
        assert got == message.format(lineno)


def test_l1emb_line_count_errors_in_any_block(block, pointsets):
    ps = pointsets(2, 6)
    text = l1emb(ps)
    read = lambda t: embedding_from_text(t, ps)  # noqa: E731
    for lineno in defect_lines(text, block):
        lines = text.splitlines()
        dropped = "\n".join(lines[: lineno - 1] + lines[lineno:]) + "\n"
        assert read_error(read, dropped) == "expected 2732 vector lines, found 2731"
        repeated = "\n".join(lines[:lineno] + lines[lineno - 1 :]) + "\n"
        assert read_error(read, repeated) == "expected 2732 vector lines, found 2733"


def after_header(respell):
    """Respell only the lines after the header, which the readers take in blocks."""
    return lambda t: t[: t.find("\n") + 1] + respell(t[t.find("\n") + 1 :])


CRLF = lambda t: t.replace("\n", "\r\n")  # noqa: E731
CR = lambda t: t.replace("\n", "\r")  # noqa: E731


def mixed_ends(text):
    """The lines of `text` ending in LF, CRLF and CR in turn."""
    ends = ("\n", "\r\n", "\r")
    return "".join(line + ends[i % 3] for i, line in enumerate(text.splitlines()))


def half_crlf(text):
    """`text` with CRLF line ends in its first half and LF in the rest."""
    half = text.find("\n", len(text) // 2) + 1
    return CRLF(text[:half]) + text[half:]


@pytest.mark.parametrize(
    "respell",
    [CRLF, CR, after_header(CRLF), after_header(CR), lambda t: t[:-1], mixed_ends, half_crlf],
)
def test_other_line_ends_read_as_the_canonical_file(block, pointsets, respell):
    ps = pointsets(2, 3)
    text = pointset_to_text(ps)
    assert pointset_to_text(pointset_from_text(respell(text))) == text
    emb_text = l1emb(ps)
    emb = embedding_from_text(respell(emb_text), ps)
    assert np.array_equal(emb.matrix.view(np.int64), per_line_floats(emb_text).view(np.int64))


@pytest.mark.parametrize("tail", ["x\n", "x", "\n"])
def test_text_after_the_last_line_is_a_line_count_error(block, pointsets, tail):
    ps = pointsets(2, 3)
    got = read_error(pointset_from_text, pointset_to_text(ps) + tail)
    assert got == "expected 44 vertex lines, found 45"
    got = read_error(lambda t: embedding_from_text(t, ps), l1emb(ps) + tail)
    assert got == "expected 44 vector lines, found 45"


def test_a_line_past_n_plus_1_with_n_plus_1_newlines_is_a_line_count_error(block, pointsets):
    # Line 3 ends in CR, so the newlines of N + 1 lines hold one line more.
    ps = pointsets(2, 3)
    respell = lambda t: t.replace("\n", "\r", 3).replace("\r", "\n", 2) + "x\n"  # noqa: E731
    got = read_error(pointset_from_text, respell(pointset_to_text(ps)))
    assert got == "expected 44 vertex lines, found 45"
    got = read_error(lambda t: embedding_from_text(t, ps), respell(l1emb(ps)))
    assert got == "expected 44 vector lines, found 45"


def test_other_line_breaks_in_the_header_give_the_per_line_message(pointsets):
    # splitlines ends the header at the form feed, so the fields after it are not read.
    ps = pointsets(2, 3)
    p1_rest = pointset_to_text(ps).partition("\n")[2]
    got = read_error(pointset_from_text, "P1 k=2\x0cn=x N=44 dim=8\n" + p1_rest)
    assert got == "bad P1 header: 'P1 k=2'"
    emb_rest = l1emb(ps).partition("\n")[2]
    got = read_error(lambda t: embedding_from_text(t, ps), "L1EMB v1 d=3\x0cN=x k=2 n=3\n" + emb_rest)
    assert got == "bad L1EMB header: 'L1EMB v1 d=3'"


# Every line break str.splitlines knows, CRLF among them, and empty lines.
BREAKS = ["\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("size", [1, 2, 3, 7, 40])
def test_line_blocks_cut_after_any_line_break(monkeypatch, size):
    # A CRLF cut at a block's edge would read as two line ends, so the
    # joined blocks would hold one empty line too many.
    monkeypatch.setattr(pointset, "TEXT_BLOCK", size)
    rng = np.random.default_rng(size)
    for _ in range(50):
        words = ["ab" * int(rng.integers(0, 4)) for _ in range(12)]
        ends = [BREAKS[i] for i in rng.integers(0, len(BREAKS), 12)]
        text = "".join(map(str.__add__, words, ends))[: int(rng.integers(1, 80))]
        for pos in range(len(text)):
            lines = text[pos:].splitlines(keepends=True)
            blocks = list(pointset._line_blocks(text, pos))
            assert sum(blocks, []) == text[pos:].splitlines()
            # A block ends with the first line that ends at or past its
            # TEXT_BLOCK-th character, or with the text.
            for block in blocks:
                taken, lines = lines[: len(block)], lines[len(block) :]
                assert len("".join(taken[:-1])) < size
                assert len("".join(taken)) >= size or not lines
            first = text[pos:].splitlines(keepends=True)[0]
            assert pointset._line_at(text, pos) == (first.splitlines()[0], pos + len(first))


def test_short_file_naming_a_large_graph_is_refused_unbuilt(monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("the graph was built")

    monkeypatch.setattr(pointset, "build_graph", no_build)
    got = read_error(pointset_from_text, "P1 k=2 n=10 N=699052 dim=1024\nL -\n")
    assert got == "expected 699052 vertex lines, found 1"


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# A file differs from the canonical text in one respelled token, or in every line end.
RESPELL = lambda t: t.replace("\n/1 ", "\n/01 ", 1)  # noqa: E731
EDITS = [lambda t: t, RESPELL, CRLF, CR]
EDIT_IDS = ["canonical", "respelled", "crlf", "cr"]


@pytest.mark.parametrize("edit", EDITS, ids=EDIT_IDS)
def test_l1emb_read_holds_the_matrix_and_a_few_blocks(monkeypatch, edit):
    # P(2,7) at d=16 is a 3.6 MB text, so blocks of 64 KB make it many blocks long.
    monkeypatch.setattr(pointset, "TEXT_BLOCK", 2**16)
    ps = point_set(build_graph(GraphParams(2, 7)))
    text = edit(l1emb(ps, d=16))
    ps.graph.vertices  # built and kept by the P1 read that comes first
    # 8 bytes an entry for the matrix and 1 for Embedding's finiteness mask.
    bound = 9 * len(ps) * 16 + 4 * 2**16
    assert traced_peak(lambda: embedding_from_text(text, ps)) <= bound


def test_p1_writer_holds_its_text_the_upper_intervals_and_a_few_blocks(monkeypatch):
    # P(2,7) is a 0.3 MB text, so blocks of 4 KB make it many blocks long.
    monkeypatch.setattr(pointset, "TEXT_BLOCK", 2**12)
    k, n = 2, 7
    ps = point_set(build_graph(GraphParams(k, n)))
    texts = []
    peak = traced_peak(lambda: texts.append(pointset_to_text(ps)))
    # n padded int32 intervals of every vertex above depth n, and a few
    # int64 entries per last-level cycle: its tail and block start, and the
    # temporaries they are built from.
    above = vertex_count(GraphParams(k, n - 1))
    bound = 4 * 2 * n * above + 8 * 4 * (2 * k) ** (n - 1) + 16 * 2**12
    assert peak - len(texts[0]) <= bound


def test_generate_holds_less_than_its_text(tmp_path, monkeypatch):
    # P(2,7) is a 0.3 MB text, so blocks of 4 KB make it many blocks long:
    # generate writes each block as it comes and never holds the text.
    monkeypatch.setattr(pointset, "TEXT_BLOCK", 2**12)
    out = tmp_path / "p1.txt"
    argv = ["generate", "-k", "2", "-n", "7", "-o", str(out)]
    peak = traced_peak(lambda: main(argv))
    assert peak < out.stat().st_size
    want = pointset_to_text(point_set(build_graph(GraphParams(2, 7))))
    assert out.read_text(encoding="utf-8") == want


def test_canonical_p1_read_holds_less_than_the_writer(monkeypatch):
    # Both build the same graph caches and walk; only the writer keeps the
    # text. P(2,7) is a 0.3 MB text, so blocks of 4 KB make it many blocks long.
    monkeypatch.setattr(pointset, "TEXT_BLOCK", 2**12)
    fresh = lambda: point_set(build_graph(GraphParams(2, 7)))  # noqa: E731
    text = pointset_to_text(fresh())
    write = traced_peak(lambda: pointset_to_text(fresh()))
    read = traced_peak(lambda: pointset_from_text(text))
    assert read < write - len(text) // 2


@pytest.mark.parametrize("edit", EDITS[1:], ids=EDIT_IDS[1:])
def test_differing_p1_read_holds_a_few_blocks_more_than_the_canonical_one(monkeypatch, edit):
    # A block that differs, the first here (line 4), is checked line by
    # line: the read holds that block's lines and those of the file's
    # slice of at most twice its length.
    monkeypatch.setattr(pointset, "TEXT_BLOCK", 2**12)
    text = pointset_to_text(point_set(build_graph(GraphParams(2, 7))))
    canonical = traced_peak(lambda: pointset_from_text(text))
    differing = edit(text)
    assert traced_peak(lambda: pointset_from_text(differing)) <= canonical + 8 * 2**12


def test_one_respelled_header_field_costs_one_block_of_line_checks(monkeypatch):
    # P(2,7) is a 0.3 MB text, so blocks of 4 KB make it many blocks long.
    monkeypatch.setattr(pointset, "TEXT_BLOCK", 2**12)
    ps = point_set(build_graph(GraphParams(2, 7)))
    text = pointset_to_text(ps)
    checked = []
    real = pointset._check_p1_lines

    def counting(text, pos, block, params, start):
        checked.append(block.count("\n"))
        return real(text, pos, block, params, start)

    monkeypatch.setattr(pointset, "_check_p1_lines", counting)
    first = next(pointset._p1_blocks(ps)).count("\n")
    assert 20 * first < len(ps)
    assert pointset_from_text(text.replace(" k=2 ", " k=02 ", 1)).params == ps.params
    assert checked == [first]
