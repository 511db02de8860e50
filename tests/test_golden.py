"""Golden outputs: the CLI's point-set, certificate, CSV table, search and selftest output.

The expected texts and digests were recorded from the CLI before the
embedding became a matrix, the P1 digests before the labels became a
tuple in row order, the selftest lines before the tests began to call
the selftest checks, and the d=16 and d=13 certificates before the
all-pairs pass summed coordinate planes instead of rows. Their seeds are
ones whose output changes if the per-pair sums are taken in sequence, or
with d=13's five trailing terms added before the eight partial sums are
combined. The P(2,6) and P(3,5) certificates, the certify_deep shape and
one with two-word labels, were recorded before the all-pairs pass
screened its tiles in float32. The level_edges and packed-label digests
were recorded before the graph, the packed labels and the P1 writer
shared one level walk, and the reference digests (vertex names, edge
endpoints, antipodal pairs, the full-depth edge map and the reference
labels) before a vertex was named by its address string alone. Any
refactor that keeps behaviour keeps them; a change here is a change of
output format or numerics and must be deliberate.
"""

import hashlib
import itertools
import re

import numpy as np
import pytest

from l1cert import oracle, pointset
from l1cert.cli import main
from l1cert.l1metric import embedding_from_text, embedding_to_text, make_embedding
from l1cert.oracle import antipodal_pairs
from l1cert.pointset import (
    GraphParams,
    build_graph,
    edge_endpoints,
    pointset_from_text,
    pointset_to_text,
)

CERTIFY_CASES = [
    (
        2, 4, 8, 24,
        "epsilon=0.9628326015024673\n"
        "delta=0.48141630075123365\n"
        "per_level_term=0.0009967102061223532\n"
        "raw_bound=0.0013836446864173846\n"
        "min_dimension=1\n"
        "embedding_dimension=8\n"
        "distortion=90.37645150517892\n"
        "applicable=true\n"
        "consistent=true\n"
        "constraint_table -> <table>\n"
        "certify: consistent epsilon=0.962833 min_dimension=1 d=8\n",
        "04f4b72efda50f03ed1bc088e17b73ad41daea3d87cc83baf1caf6e84aa8d52b",
    ),
    (
        3, 3, 4, 33,
        "epsilon=0.9862587483842135\n"
        "delta=0.9862587483842135\n"
        "per_level_term=0.0\n"
        "raw_bound=0.0\n"
        "min_dimension=1\n"
        "embedding_dimension=4\n"
        "distortion=642.7824752331121\n"
        "applicable=false\n"
        "consistent=true\n"
        "constraint_table -> <table>\n"
        "certify: consistent epsilon=0.986259 min_dimension=1 d=4\n",
        "0b4e308b74705224bcd1a39ce9e6e4e572dff1342acae488e3b93ee308cc82f7",
    ),
    (
        2, 5, 16, 1,
        "epsilon=0.9848644645285577\n"
        "delta=0.49243223226427885\n"
        "per_level_term=0.0001652557983693459\n"
        "raw_bound=0.00028644849819425833\n"
        "min_dimension=1\n"
        "embedding_dimension=16\n"
        "distortion=123.66068791692581\n"
        "applicable=true\n"
        "consistent=true\n"
        "constraint_table -> <table>\n"
        "certify: consistent epsilon=0.984864 min_dimension=1 d=16\n",
        "4a8252db800f84941ab3f74bb817724a4509f0028fd720afaa6f493d11430c36",
    ),
    (
        2, 4, 13, 1,
        "epsilon=0.9659884918414078\n"
        "delta=0.4829942459207039\n"
        "per_level_term=0.000834603275679302\n"
        "raw_bound=0.0011583455104597906\n"
        "min_dimension=1\n"
        "embedding_dimension=13\n"
        "distortion=61.76152240058136\n"
        "applicable=true\n"
        "consistent=true\n"
        "constraint_table -> <table>\n"
        "certify: consistent epsilon=0.965988 min_dimension=1 d=13\n",
        "dc3ab17aa5e8f4643fa5ee77ec89daecb7c0268e9eb12adcdba8ecd03483f569",
    ),
    (
        2, 6, 16, 1,
        "epsilon=0.9927564037961065\n"
        "delta=0.49637820189805326\n"
        "per_level_term=3.784920886285015e-05\n"
        "raw_bound=7.87114120653909e-05\n"
        "min_dimension=1\n"
        "embedding_dimension=16\n"
        "distortion=365.36422861845944\n"
        "applicable=true\n"
        "consistent=true\n"
        "constraint_table -> <table>\n"
        "certify: consistent epsilon=0.992756 min_dimension=1 d=16\n",
        "59649285ee9136ab294d5a74666b024ea62e6a4fbb72bec708f0cc8266e0cc33",
    ),
    (
        3, 5, 16, 1,
        "epsilon=0.9982314899815593\n"
        "delta=0.9982314899815593\n"
        "per_level_term=0.0\n"
        "raw_bound=0.0\n"
        "min_dimension=1\n"
        "embedding_dimension=16\n"
        "distortion=1568.4706029509698\n"
        "applicable=false\n"
        "consistent=true\n"
        "constraint_table -> <table>\n"
        "certify: consistent epsilon=0.998231 min_dimension=1 d=16\n",
        "e6480f4ec29616b0e1fbb12b6413d85d7918dbeb45106fa3655af38ac3d3c4ae",
    ),
]

GENERATE_SHA256 = {
    (2, 5): "e9d226b4b45ce39a124684325da3be3949ea705f7ef6de162993506b47c45074",
    (3, 4): "8db517b99a135357da41f33a67f3f4c3b315944b7c718991c92f54fa077b64a4",
    (4, 3): "f34c502549e6f8149501ab8b743be75c97d0bdbb9ad5521ae481c8dbf5ced824",
}

# sha256 over every level's tail then head indices as little-endian int64.
LEVEL_EDGES_SHA256 = {
    (3, 6, False): "8cd084ee6ac75ddfd0ce184c0e0f5e1782f0462bcfb7408abbf0136546f35df0",
    (3, 6, True): "7fcdc123fa298c956762801f25e837118623d5978f65004b4a0cef050a89a1e9",
    (2, 8, False): "de7f2dbd87b1f44307469374fd5e36fe201b93ab2195a476c308ead160b537bd",
    (2, 8, True): "cd8bc50059d2b88afe2a026421e0947b35fd89b847440a4188486b2f52b8708a",
}

# sha256 of the (words, N) little-endian uint64 packed labels.
BITPLANES_SHA256 = {
    (2, 8): "8e5da665112fc02f26a0e835c613e770c67ff6f05a22d4e4e3c68fc92946c9dc",
    (2, 10): "741937eaa8dd6cc626e674170467527e44b5b8c6c579c012b09ac0122930b25d",
}

# sha256 of newline-joined lines of the references, every vertex rendered with str.
VERTICES_SHA256 = {
    (3, 6): "5636e141dc39ea3e0a507860758780e5182bdbdd902d882767126465751943fd",
    (2, 8): "fb4b83a19aebd5eee43b19013ab71bc81bdab9c34a1ea5b2de6106c3ce0c0383",
}
ENDPOINTS_SHA256 = {
    (3, 3, False): "6687ade8175d15c803d34390f155d73d2374f3ef1d281420961067c6dee1e9ea",
    (3, 3, True): "d264cee1f1087ce6150813823d0551a3730d270a46e31858588340602f2d4213",
    (2, 4, False): "96c881ba8727c380ba5792396930f5eb8a0f9333250c83e2c206ed0ee423bcca",
    (2, 4, True): "63046bfd8dd295ba38f354adee060a81f2bfeb064ab5d492c71ee7e1a00a1ee2",
}
ANTIPODAL_SHA256 = "3606aee5ca3f0e9f4f117e7b88f05db067f65882c53c62d8276f9c6f6dab2d7a"
EDGES_SHA256 = "2d5d16af388862f470b6767ee01eafe3d652c4193a050473ec83340c1d952344"
LABELS_SHA256 = "c2d73e2791550f642d979079c46bb3573840b442e3e719533f2b897cbbbb70ee"

SEARCH_REPORT = (
    "distortion=8.909305217664155\n"
    "expansion=3.459966081254861\n"
    "contraction=2.574968947219542\n"
    "epsilon=0.8449803585218388\n"
    "min_dimension=1\n"
    "consistent=true\n"
    "restart=0\n"
    "seed=5\n"
    "iterations=200\n"
    "restarts=2\n"
)
SEARCH_STDOUT = (
    "distortion=8.90930522\n"
    "epsilon=0.844980359\n"
    "min_dimension=1\n"
    "search: ok d=4 distortion=8.90931 -> <out> (+.report)\n"
)
SEARCH_EMBEDDING_SHA256 = "be596c9fbb2a19582bfe57d23e50f2fa9c3b296dd960557a38c6b24fd2c6d031"
# From d = 8 the search's planes are stored in l1metric._plane_order; these
# were recorded with the planes in natural order. (k, n, d): sha256 of the
# embedding, sha256 of its .report, for --seed 7 --iters 200 --restarts 2.
SEARCH_PLANE_ORDER_SHA256 = {
    (2, 4, 8): (
        "c9a280215cbba970cb26230442c9cbf8377ce4250382c8b80796cb37108640db",
        "3d8efbcf73675b815eb05bd6996943c7f4f86d636fbc33cb72bcb330bbe43526",
    ),
    (3, 2, 17): (
        "501072774b1b8ba4bd9385d65c525f87b2ec0e5aa7be89c1347f82c98d2b59f5",
        "2770e34fcc652850507c482382c3981e525e01773cee86f55dc0f964a66974c7",
    ),
}

SELFTEST_STDOUT = (
    "construction: ok (72 passed, 0 failed)\n"
    "identity_equality: ok (12 passed, 0 failed)\n"
    "averaging: ok (128 passed, 0 failed)\n"
    "lift: ok (6000 passed, 0 failed)\n"
    "fano: ok (226 passed, 0 failed)\n"
    "inner_claim: ok (3500 passed, 0 failed)\n"
    "lemma: ok (801 passed, 0 failed)\n"
    "chain_per_level: ok (6 passed, 0 failed)\n"
    "distortion: ok (7 passed, 0 failed)\n"
    "bound_values: ok (8 passed, 0 failed)\n"
    "end_to_end: ok (5 passed, 0 failed)\n"
    "selftest: all 11 suites passed (<elapsed>)\n"
)
SELFTEST_FLIPPED_STDOUT = (
    "construction: ok (72 passed, 0 failed)\n"
    "identity_equality: FAIL (6 passed, 6 failed)\n"
    "averaging: FAIL (100 passed, 28 failed)\n"
    "lift: ok (6000 passed, 0 failed)\n"
    "fano: ok (226 passed, 0 failed)\n"
    "inner_claim: ok (3500 passed, 0 failed)\n"
    "lemma: ok (801 passed, 0 failed)\n"
    "chain_per_level: ok (6 passed, 0 failed)\n"
    "distortion: ok (7 passed, 0 failed)\n"
    "bound_values: ok (8 passed, 0 failed)\n"
    "end_to_end: ok (5 passed, 0 failed)\n"
    "selftest: 2 of 11 suites failed (<elapsed>)\n"
)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("k,n", sorted(GENERATE_SHA256))
def test_generate_output(tmp_path, k, n):
    out = tmp_path / "p1.txt"
    assert main(["generate", "-k", str(k), "-n", str(n), "-o", str(out)]) == 0
    assert sha256(out) == GENERATE_SHA256[(k, n)]


@pytest.mark.parametrize("k,n,flip", sorted(LEVEL_EDGES_SHA256))
def test_level_edges(k, n, flip):
    digest = hashlib.sha256()
    for tail, head in build_graph(GraphParams(k, n), flip_bottom=flip).level_edges:
        digest.update(tail.astype("<i8").tobytes())
        digest.update(head.astype("<i8").tobytes())
    assert digest.hexdigest() == LEVEL_EDGES_SHA256[(k, n, flip)]


@pytest.mark.parametrize("k,n", sorted(BITPLANES_SHA256))
def test_bitplanes(k, n):
    planes = build_graph(GraphParams(k, n))._bitplanes
    assert planes.dtype == np.dtype("<u8")
    assert hashlib.sha256(planes.tobytes()).hexdigest() == BITPLANES_SHA256[(k, n)]


def lines_sha256(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def dotted(coords):
    return ".".join(map(str, coords))


@pytest.mark.parametrize("k,n", sorted(VERTICES_SHA256))
def test_vertices(k, n):
    vertices = build_graph(GraphParams(k, n)).vertices
    assert lines_sha256(map(str, vertices)) == VERTICES_SHA256[(k, n)]


@pytest.mark.parametrize("k,n,flip", sorted(ENDPOINTS_SHA256))
def test_edge_endpoints(k, n, flip):
    """Every prefix's (tail, head) at every level, the root edge's empty prefix included."""
    graph = build_graph(GraphParams(k, n), flip_bottom=flip)
    lines = [
        f"{dotted(prefix)} {tail} {head}"
        for level in range(n + 1)
        for prefix in itertools.product(range(1, 2 * k + 1), repeat=level)
        for tail, head in [edge_endpoints(graph, prefix)]
    ]
    assert lines_sha256(lines) == ENDPOINTS_SHA256[(k, n, flip)]


def test_antipodal_pairs():
    graph = build_graph(GraphParams(3, 3))
    lines = [f"{level} {a} {b}" for level in (1, 2, 3) for a, b in antipodal_pairs(graph, level)]
    assert lines_sha256(lines) == ANTIPODAL_SHA256


def test_edges():
    edges = build_graph(GraphParams(2, 4)).edges
    lines = [f"{dotted(coords)} {tail} {head}" for coords, (tail, head) in edges.items()]
    assert lines_sha256(lines) == EDGES_SHA256


def test_reference_labels():
    graph = build_graph(GraphParams(3, 3))
    labels = [f"{v} {oracle._label_of(graph.params, v).intervals}" for v in graph.vertices]
    assert lines_sha256(labels) == LABELS_SHA256


@pytest.mark.parametrize("k,n,d,seed,stdout,table_sha256", CERTIFY_CASES)
def test_certify_output(tmp_path, pointsets, capsys, k, n, d, seed, stdout, table_sha256):
    ps = pointsets(k, n)
    rows = np.random.default_rng(seed).standard_normal((len(ps), d))
    p1, emb, table = tmp_path / "p1.txt", tmp_path / "emb.txt", tmp_path / "table.csv"
    p1.write_text(pointset_to_text(ps), encoding="utf-8")
    text = embedding_to_text(ps, make_embedding(dict(zip(ps.vertices, rows))))
    emb.write_text(text, encoding="utf-8")
    assert main(["certify", str(p1), str(emb), "--table", str(table)]) == 0
    assert capsys.readouterr().out.replace(str(table), "<table>") == stdout
    assert sha256(table) == table_sha256


def test_search_output(tmp_path, pointsets, capsys):
    p1, out = tmp_path / "p1.txt", tmp_path / "emb.txt"
    p1.write_text(pointset_to_text(pointsets(2, 3)), encoding="utf-8")
    argv = ["search", str(p1), "-d", "4", "--seed", "5", "--iters", "200", "--restarts", "2"]
    assert main(argv + ["-o", str(out)]) == 0
    assert capsys.readouterr().out.replace(str(out), "<out>") == SEARCH_STDOUT
    assert (tmp_path / "emb.txt.report").read_text(encoding="utf-8") == SEARCH_REPORT
    assert sha256(out) == SEARCH_EMBEDDING_SHA256


@pytest.mark.parametrize("k,n,d", sorted(SEARCH_PLANE_ORDER_SHA256))
def test_search_output_in_plane_order(tmp_path, pointsets, capsys, k, n, d):
    p1, out = tmp_path / "p1.txt", tmp_path / "emb.txt"
    p1.write_text(pointset_to_text(pointsets(k, n)), encoding="utf-8")
    argv = ["search", str(p1), "-d", str(d), "--seed", "7", "--iters", "200", "--restarts", "2"]
    assert main(argv + ["-o", str(out)]) == 0
    report = tmp_path / "emb.txt.report"
    assert (sha256(out), sha256(report)) == SEARCH_PLANE_ORDER_SHA256[(k, n, d)]


@pytest.mark.parametrize(
    "flags,code,stdout",
    [([], 0, SELFTEST_STDOUT), (["--flip-bottom-debug"], 1, SELFTEST_FLIPPED_STDOUT)],
    ids=["default", "flip_bottom_debug"],
)
def test_selftest_output(capsys, flags, code, stdout):
    assert main(["selftest", *flags]) == code
    assert re.sub(r"\(\d+\.\ds\)", "(<elapsed>)", capsys.readouterr().out) == stdout


# A seeded corpus of mutated P1 and L1EMB files at P(2,3) and P(3,2):
# edits of the header, of line ends and of single lines at the second, a
# middle, the last and one seeded line. Integer tokens in it are spelled
# with ASCII digits alone (leading zeros allowed) and carry no sign.
P1_LINE_EDITS = [
    lambda line: line.split(" ")[0] + " 0-99999",
    lambda line: "x/1 " + line.split(" ")[1],
    lambda line: line + " -",
    lambda line: line.split(" ")[0] + " 0-x",
    lambda line: "0" + line,  # 01/1, 01.2/3; 0L is no address
    lambda line: line.replace("/", "/0", 1),
    lambda line: line.replace(" ", " 0", 1),  # 00-4, 0- (bad)
    lambda line: line.replace("-", "-0"),
    lambda line: line.replace(",", ",0"),
    lambda line: line.replace(" ", "  "),
    lambda line: " " + line,
    lambda line: line + " ",
    lambda line: line.replace("/1", "/2"),
    lambda line: line.replace("-", "-1", 1),
    lambda line: line.replace(" ", "\x0c", 1),
    lambda line: line[:2] + "\x85" + line[2:],
    lambda line: line[:1] + " " + line[1:],
    lambda line: line + "\r",
    lambda line: "",
]
L1EMB_LINE_EDITS = [
    lambda line: line.rpartition(" ")[0] + " abc",
    lambda line: line.rpartition(" ")[0] + " inf",
    lambda line: line.rpartition(" ")[0] + " nan",
    lambda line: line.rpartition(" ")[0],
    lambda line: line + " 1.0",
    lambda line: "x/1 " + line.partition(" ")[2],
    lambda line: "R " + line.partition(" ")[2],
    lambda line: "0" + line,
    lambda line: line.replace("/", "/0", 1),
    lambda line: line.replace("/1", "/2"),
    lambda line: line + "0",
    lambda line: line + "e0",
    lambda line: line.replace(" ", " +", 1),  # +0.5, +-0.5 (bad)
    lambda line: line + "_5",
    lambda line: line.rpartition(" ")[0] + " 0x1p3",
    lambda line: line.rpartition(" ")[0] + " 1e400",
    lambda line: line.replace(" ", "\t"),
    lambda line: line.replace(" ", "  "),
    lambda line: " " + line,
    lambda line: line + " ",
    lambda line: line.replace(" ", "\x0c", 1),
    lambda line: line[:2] + "\x85" + line[2:],
    lambda line: line + "\r",
    lambda line: "",
]
HEADER_EDITS = [
    lambda h: h.replace(" ", "  ", 1),
    lambda h: h + " ",
    lambda h: " " + h,
    lambda h: h.replace(" ", "\t"),
    lambda h: h.replace("=", "=0"),
    lambda h: h.rpartition(" ")[0],
    lambda h: h + " x=1",
    lambda h: h.replace(" ", "\x0c", 1),
    lambda h: h.replace("2", "3", 1),
    lambda h: h.replace("N=", "N=1", 1),
    lambda h: h.replace("=", "=x", 1),
    lambda h: h.replace("=", "", 1),
    lambda h: h.lower(),
]
TEXT_EDITS = [
    lambda t: t.replace("\n", "\r\n"),
    lambda t: t.replace("\n", "\r"),
    lambda t: t.replace("\n", "\r\n", 1),
    lambda t: t[: t.find("\n") + 1] + t[t.find("\n") + 1 :].replace("\n", "\r\n"),
    lambda t: t[: t.find("\n") + 1] + t[t.find("\n") + 1 :].replace("\n", "\r"),
    lambda t: t[:-1],
    lambda t: t + "x\n",
    lambda t: t + "x",
    lambda t: t + "\n",
    lambda t: t + " ",
    lambda t: "\n" + t,
    lambda t: t[: t.find("\n") + 1],
    lambda t: t[: t.find("\n")],
    lambda t: "",
    lambda t: "\n",
]
READER_CORPUS_SIZES = [(2, 3), (3, 2)]


def line_mutants(text, edits, seed):
    """`text` with each edit at lines 2, middle, last and a seeded one; each line dropped,
    repeated and swapped with the next; each header edit; each whole-text edit."""
    lines = text.splitlines()
    rng = np.random.default_rng(seed)
    at = [1, len(lines) // 2, len(lines) - 1, int(rng.integers(1, len(lines)))]
    out = []
    for edit in edits:
        for i in at:
            out.append(lines[:i] + [edit(lines[i])] + lines[i + 1 :])
    for i in at:
        out.append(lines[:i] + lines[i + 1 :])
        out.append(lines[: i + 1] + lines[i:])
        out.append(lines[:i] + lines[i + 1 : i + 2] + lines[i : i + 1] + lines[i + 2 :])
    out += [[edit(lines[0])] + lines[1:] for edit in HEADER_EDITS]
    return ["\n".join(m) + "\n" for m in out] + [edit(text) for edit in TEXT_EDITS]


def reader_outcomes(pointsets):
    """Each corpus file's outcome: the sha256 of the text written back, or the error."""
    outcomes = []

    def record(read, write, text):
        try:
            back = write(read(text))
        except ValueError as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
        else:
            outcomes.append("ok " + hashlib.sha256(back.encode()).hexdigest())

    for k, n in READER_CORPUS_SIZES:
        ps = pointsets(k, n)
        p1 = pointset_to_text(ps)
        rows = np.random.default_rng(10 * k + n).standard_normal((len(ps), 3))
        emb = embedding_to_text(ps, make_embedding(dict(zip(ps.vertices, rows))))
        for text in line_mutants(p1, P1_LINE_EDITS, k + n):
            record(pointset_from_text, pointset_to_text, text)
        for text in line_mutants(emb, L1EMB_LINE_EDITS, k * n):
            record(lambda t: embedding_from_text(t, ps), lambda e: embedding_to_text(ps, e), text)
    return outcomes


# (files, accepted, sha256 of the newline-joined outcomes), recorded from
# the readers that tried a canonical block path and then read a differing
# file again as a whole, line by line.
READER_OUTCOMES = (
    504,
    187,
    "8b5d2098af44d8182f1228789420cc969d146f4739d88938766dd6cfce4eb2aa",
)


@pytest.mark.parametrize("block", [1, 97, pointset.TEXT_BLOCK])
def test_reader_outcomes(monkeypatch, pointsets, block):
    monkeypatch.setattr(pointset, "TEXT_BLOCK", block)
    outcomes = reader_outcomes(pointsets)
    accepted = sum(o.startswith("ok ") for o in outcomes)
    digest = hashlib.sha256("\n".join(outcomes).encode()).hexdigest()
    assert (len(outcomes), accepted, digest) == READER_OUTCOMES
