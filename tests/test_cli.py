"""CLI contract tests: exit codes, round trips, and report shapes.

Exit code contract: 0 success, 1 verification failure, 2 usage/input
error. Generated files must round-trip byte-identically.
"""

import warnings

import numpy as np
import pytest

from l1cert import certifier, l1metric, oracle, pointset
from l1cert.certifier import constraint_report, dimension_bound
from l1cert.cli import main
from l1cert.l1metric import (
    Embedding,
    embedding_from_text,
    embedding_to_text,
    identity_embedding,
    make_embedding,
)
from l1cert.oracle import IntervalLabel
from l1cert.pointset import (
    GraphParams,
    RecursiveCycleGraph,
    build_graph,
    pointset_from_text,
    pointset_to_text,
)
from l1cert.selftest import SUITES, run_selftest

from conftest import fresh_interpreter


@pytest.fixture()
def ps23_file(tmp_path, pointsets):
    path = tmp_path / "ps23.txt"
    path.write_text(pointset_to_text(pointsets(2, 3)), encoding="utf-8")
    return path


class TestGenerate:
    def test_small_instances(self, tmp_path):
        out = tmp_path / "p.txt"
        assert main(["generate", "-k", "2", "-n", "1", "-o", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "P1 k=2 n=1 N=4 dim=2"
        out2 = tmp_path / "q.txt"
        assert main(["generate", "-k", "3", "-n", "2", "-o", str(out2)]) == 0
        assert out2.read_text(encoding="utf-8").splitlines()[0] == "P1 k=3 n=2 N=30 dim=9"

    def test_rejects_k_one(self, tmp_path):
        assert main(["generate", "-k", "1", "-n", "1", "-o", str(tmp_path / "x.txt")]) == 2

    def test_round_trip_byte_identical(self, tmp_path):
        out = tmp_path / "p.txt"
        assert main(["generate", "-k", "2", "-n", "2", "-o", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert pointset_to_text(pointset_from_text(text)) == text


class TestAddressFreePaths:
    """generate, the P1 and L1EMB reads and certify work on rows, never on vertex names.

    They call no per-vertex reference (pointset._edge_endpoints_raw,
    oracle._label_of), build no oracle.IntervalLabel, and build neither the
    edge map graph.edges nor the name-keyed emb.vectors.
    """

    REFERENCES = ((pointset, "_edge_endpoints_raw"), (oracle, "_label_of"))

    @staticmethod
    def count_labels(monkeypatch):
        """Record each IntervalLabel built."""
        labels = []
        real = IntervalLabel.__init__

        def counting(self, *args, **kwargs):
            labels.append(args)
            return real(self, *args, **kwargs)

        monkeypatch.setattr(IntervalLabel, "__init__", counting)
        return labels

    @staticmethod
    def count_references(monkeypatch, functions=REFERENCES):
        """Record each call of the (module, name) functions and each read of a name-keyed view."""
        calls = []
        for module, name in functions:

            def counting(*args, _real=getattr(module, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        for cls, name in ((RecursiveCycleGraph, "edges"), (Embedding, "vectors")):

            def reading(self, _view=getattr(cls, name), _name=name):
                calls.append(_name)
                return _view.__get__(self, type(self))

            monkeypatch.setattr(cls, name, property(reading))
        return calls

    @pytest.mark.parametrize("k,n", [(2, 4), (3, 3)])
    def test_generate_and_certify_table_call_no_reference(
        self, tmp_path, pointsets, monkeypatch, capsys, k, n
    ):
        ps = pointsets(k, n)
        rows = np.random.default_rng([k, n]).standard_normal((len(ps), 4))
        p1, emb, table = tmp_path / "p1.txt", tmp_path / "emb.txt", tmp_path / "table.csv"
        emb.write_text(embedding_to_text(ps, Embedding(rows, ps)), encoding="utf-8")
        calls = self.count_references(monkeypatch)
        assert main(["generate", "-k", str(k), "-n", str(n), "-o", str(p1)]) == 0
        assert main(["certify", str(p1), str(emb), "--table", str(table)]) == 0
        assert calls == []
        assert "consistent=true" in capsys.readouterr().out

    def test_generate_and_parse_call_no_reference(self, tmp_path, monkeypatch):
        out = tmp_path / "p1.txt"
        calls = self.count_references(monkeypatch)
        assert main(["generate", "-k", "3", "-n", "3", "-o", str(out)]) == 0
        pointset_from_text(out.read_text(encoding="utf-8"))
        assert calls == []

    @staticmethod
    def write_embedding(path, ps, d):
        rows = np.random.default_rng(len(ps)).standard_normal((len(ps), d))
        path.write_text(embedding_to_text(ps, Embedding(rows, ps)), encoding="utf-8")

    def test_read_path_calls_no_reference_and_builds_no_label(
        self, tmp_path, pointsets, monkeypatch
    ):
        p1, emb = tmp_path / "p1.txt", tmp_path / "emb.txt"
        self.write_embedding(emb, pointsets(3, 4), 4)
        functions = (*self.REFERENCES, (pointset, "parse_address"))
        calls = self.count_references(monkeypatch, functions)
        labels = self.count_labels(monkeypatch)
        assert main(["generate", "-k", "3", "-n", "4", "-o", str(p1)]) == 0
        ps = pointset_from_text(p1.read_text(encoding="utf-8"))
        report = constraint_report(ps, embedding_from_text(emb.read_text("utf-8"), ps))
        dimension_bound(3, 4, report.epsilon)
        assert (len(calls), len(labels)) == (0, 0)
        # One non-canonical line per file goes through the per-line readers,
        # which parse its tokens but each address token at most once.
        p1_lines = p1.read_text(encoding="utf-8").splitlines()
        emb_lines = emb.read_text(encoding="utf-8").splitlines()
        assert p1_lines[7].startswith("1/1 ") and emb_lines[7].startswith("1/1 ")
        p1_lines[7] = "0" + p1_lines[7].replace(" ", " 0")  # "01/1 0<a>-<b>,..."
        emb_lines[7] = "0" + emb_lines[7]
        ps = pointset_from_text("\n".join(p1_lines) + "\n")
        embedding_from_text("\n".join(emb_lines) + "\n", ps)
        assert calls == ["parse_address", "parse_address"]
        assert len(labels) == 0

    def test_identity_and_construction_suites_build_no_label(self, monkeypatch):
        labels = self.count_labels(monkeypatch)
        identity_embedding(build_graph(GraphParams(3, 4)))
        results = run_selftest(["construction", "identity_equality"])
        assert [failed for _, _, failed in results] == [0, 0]
        assert len(labels) == 0

    def test_certify_calls_no_reference(self, tmp_path, pointsets, monkeypatch, capsys):
        p1, emb = tmp_path / "p1.txt", tmp_path / "emb.txt"
        p1.write_text(pointset_to_text(pointsets(2, 4)), encoding="utf-8")
        self.write_embedding(emb, pointsets(2, 4), 8)
        calls = self.count_references(monkeypatch)
        assert main(["certify", str(p1), str(emb)]) == 0
        assert calls == []
        assert "consistent=true" in capsys.readouterr().out

    def test_certify_builds_no_label(self, tmp_path, pointsets, monkeypatch, capsys):
        p1, emb, table = tmp_path / "p1.txt", tmp_path / "emb.txt", tmp_path / "table.csv"
        p1.write_text(pointset_to_text(pointsets(2, 4)), encoding="utf-8")
        self.write_embedding(emb, pointsets(2, 4), 8)
        labels = self.count_labels(monkeypatch)
        assert main(["certify", str(p1), str(emb), "--table", str(table)]) == 0
        assert len(labels) == 0
        assert "consistent=true" in capsys.readouterr().out


class TestCertify:
    def test_identity_is_consistent(self, tmp_path, ps23_file, pointsets, capsys):
        ps = pointsets(2, 3)
        emb_path = tmp_path / "emb.txt"
        emb_path.write_text(embedding_to_text(ps, identity_embedding(ps)), encoding="utf-8")
        assert main(["certify", str(ps23_file), str(emb_path)]) == 0
        out = capsys.readouterr().out
        assert "min_dimension=4" in out
        assert "consistent=true" in out

    def test_truncated_embedding_is_input_error(self, tmp_path, ps23_file, pointsets):
        ps = pointsets(2, 3)
        text = embedding_to_text(ps, identity_embedding(ps))
        emb_path = tmp_path / "emb.txt"
        emb_path.write_text("\n".join(text.splitlines()[:5]) + "\n", encoding="utf-8")
        assert main(["certify", str(ps23_file), str(emb_path)]) == 2

    def test_over_capacity_header_is_input_error(self, tmp_path, pointsets, capsys):
        # (2k)^n = 4**100000 has more decimal digits than Python will print.
        ps = pointsets(2, 1)
        lines = pointset_to_text(ps).splitlines()
        lines[0] = lines[0].replace("n=1", "n=100000")
        p1, emb = tmp_path / "p1.txt", tmp_path / "emb.txt"
        p1.write_text("\n".join(lines) + "\n", encoding="utf-8")
        emb.write_text(embedding_to_text(ps, identity_embedding(ps)), encoding="utf-8")
        assert main(["certify", str(p1), str(emb)]) == 2
        assert capsys.readouterr().out == (
            "error: bad parameters in header: (2k)^n for k=2, n=100000 exceeds capacity 2^48\n"
        )

    def test_constant_embedding_is_degenerate(self, tmp_path, ps23_file, pointsets):
        ps = pointsets(2, 3)
        emb = make_embedding({a: [1.0, 2.0] for a in ps.vertices})
        emb_path = tmp_path / "emb.txt"
        emb_path.write_text(embedding_to_text(ps, emb), encoding="utf-8")
        assert main(["certify", str(ps23_file), str(emb_path)]) == 2

    @pytest.mark.parametrize(
        "rows,message",
        [
            # The first point is at L1 distance past the largest float from the others.
            (
                lambda n: [[1e308, 1e308]] + [[i, -i] for i in range(1, n)],
                "an embedded distance overflows the float range",
            ),
            # Distinct subnormal points: a label distance of 1 over 2e-320 is past it too.
            (
                lambda n: [[i * 1e-320, i * 1e-320] for i in range(n)],
                "a label to embedded distance ratio overflows the float range",
            ),
        ],
    )
    def test_overflow_is_input_error(self, tmp_path, pointsets, capsys, rows, message):
        ps = pointsets(2, 2)
        p1, emb = tmp_path / "p1.txt", tmp_path / "emb.txt"
        p1.write_text(pointset_to_text(ps), encoding="utf-8")
        vectors = Embedding(np.array(rows(len(ps)), dtype=float), ps)
        emb.write_text(embedding_to_text(ps, vectors), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["certify", str(p1), str(emb)]) == 2
        assert capsys.readouterr().out == f"error: OverflowError: {message}\n"

    def test_writes_constraint_table(self, tmp_path, ps23_file, pointsets):
        ps = pointsets(2, 3)
        emb_path = tmp_path / "emb.txt"
        emb_path.write_text(embedding_to_text(ps, identity_embedding(ps)), encoding="utf-8")
        table = tmp_path / "table.csv"
        assert main(["certify", str(ps23_file), str(emb_path), "--table", str(table)]) == 0
        lines = table.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "level,prefix,r,lhs"
        assert len(lines) == 1 + 21  # 1 + 4 + 16 constraints at k=2, n=3


class TestBound:
    def test_eps_zero(self, capsys):
        assert main(["bound", "-k", "2", "-n", "10", "--eps", "0"]) == 0
        assert "min_dimension=512" in capsys.readouterr().out

    def test_distortion_two(self, capsys):
        assert main(["bound", "-k", "2", "-n", "20", "--distortion", "2"]) == 0
        assert "min_dimension=7" in capsys.readouterr().out

    def test_vacuous(self, capsys):
        assert main(["bound", "-k", "3", "-n", "5", "--eps", "0.6"]) == 0
        assert "applicable=false" in capsys.readouterr().out

    def test_requires_exactly_one_source(self, capsys):
        assert main(["bound", "-k", "2", "-n", "5"]) == 2
        assert (
            main(["bound", "-k", "2", "-n", "5", "--eps", "0.1", "--distortion", "2"]) == 2
        )

    @pytest.mark.parametrize(
        "flag,message",
        [("--eps", "epsilon must be a number >= 0"), ("--distortion", "distortion must be a number >= 1")],
    )
    def test_nan_is_input_error_and_inf_is_vacuous(self, capsys, flag, message):
        assert main(["bound", "-k", "2", "-n", "3", flag, "nan"]) == 2
        assert capsys.readouterr().out == f"error: {message}, got nan\n"
        assert main(["bound", "-k", "2", "-n", "3", flag, "inf"]) == 0
        assert "applicable=false" in capsys.readouterr().out

    def test_out_of_float_range_answers_exactly(self, capsys):
        # 2**(n-1) overflows a float far below any n the construction limits.
        assert main(["bound", "-k", "2", "-n", "2000", "--eps", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[2:5] == ["raw_bound=inf", f"min_dimension={2**1999}", "applicable=true"]
        assert lines[5] == f"bound: k=2 n=2000 eps=0 -> min_dimension={2**1999}"
        assert main(["bound", "-k", "3", "-n", "700", "--eps", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "raw_bound=inf\n" in out and "applicable=true\n" in out

    def test_bound_past_the_cap_is_input_error(self, capsys):
        assert main(["bound", "-k", "2", "-n", "20000", "--eps", "0"]) == 2
        assert capsys.readouterr().out == "error: dimension bound 2**19999.0 exceeds 2**14000\n"


class TestSearch:
    def test_writes_embedding_and_report(self, tmp_path, pointsets):
        ps_path = tmp_path / "ps.txt"
        ps_path.write_text(pointset_to_text(pointsets(2, 1)), encoding="utf-8")
        out = tmp_path / "emb.txt"
        rc = main(
            ["search", str(ps_path), "-d", "2", "--iters", "400", "--restarts", "2",
             "--seed", "3", "-o", str(out)]
        )
        assert rc == 0
        assert out.exists()
        report = (tmp_path / "emb.txt.report").read_text(encoding="utf-8")
        assert "consistent=true" in report

    def test_deterministic_output_bytes(self, tmp_path, pointsets):
        ps_path = tmp_path / "ps.txt"
        ps_path.write_text(pointset_to_text(pointsets(2, 1)), encoding="utf-8")
        outs = []
        for name in ("a.txt", "b.txt"):
            out = tmp_path / name
            assert main(
                ["search", str(ps_path), "-d", "2", "--iters", "200",
                 "--restarts", "2", "--seed", "7", "-o", str(out)]
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_measures_each_restart_once(self, tmp_path, pointsets, monkeypatch):
        # The winner's report from the search is the certificate's; certify
        # does not measure the same embedding again.
        calls = []
        real = l1metric.distortion

        def counting(ps, emb):
            calls.append(emb)
            return real(ps, emb)

        monkeypatch.setattr(l1metric, "distortion", counting)
        monkeypatch.setattr(certifier, "distortion", counting)
        ps_path = tmp_path / "ps.txt"
        ps_path.write_text(pointset_to_text(pointsets(2, 2)), encoding="utf-8")
        for restarts in (1, 3):
            calls.clear()
            out = tmp_path / f"emb{restarts}.txt"
            assert main(
                ["search", str(ps_path), "-d", "2", "--iters", "50",
                 "--restarts", str(restarts), "--seed", "5", "-o", str(out)]
            ) == 0
            assert len(calls) == restarts
            assert "consistent=true" in (tmp_path / f"emb{restarts}.txt.report").read_text()

    def test_missing_dimension_is_usage_error(self, tmp_path, pointsets):
        ps_path = tmp_path / "ps.txt"
        ps_path.write_text(pointset_to_text(pointsets(2, 1)), encoding="utf-8")
        assert main(["search", str(ps_path)]) == 2

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["search", str(tmp_path / "nope.txt"), "-d", "2"]) == 2


class TestSelftest:
    def test_single_suite_passes(self, capsys):
        assert main(["selftest", "--suite", "identity_equality"]) == 0
        out = capsys.readouterr().out
        assert "identity_equality: ok" in out
        assert out.strip().splitlines()[-1].startswith("selftest: all")

    def test_flipped_orientation_fails(self, capsys):
        rc = main(["selftest", "--suite", "identity_equality", "--flip-bottom-debug"])
        assert rc == 1
        assert "identity_equality: FAIL" in capsys.readouterr().out

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["selftest", "--suite", "nope"]) == 2
        out = capsys.readouterr().out
        assert out.startswith("error: unknown suites: ['nope']; available: ")
        assert all(repr(name) in out for name in SUITES)

    def test_repeated_suite_runs_exactly_those_suites(self, capsys):
        assert main(["selftest", "--suite", "lift", "--suite", "construction"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.partition(":")[0] for line in lines] == ["lift", "construction", "selftest"]
        assert lines[-1].startswith("selftest: all 2 suites passed")


# The modules `import l1cert.cli` loads: the product path, no suite or reference.
CLI_MODULES = [
    "l1cert", "l1cert.certifier", "l1cert.cli", "l1cert.infotheory", "l1cert.l1metric",
    "l1cert.pointset",
]
LOADED = "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'l1cert'))\n"
# The interval-label reference names: oracle defines the first four, no module the last.
LABEL_REFERENCES = (
    "IntervalLabel", "_label_of", "edge_coordinate_block", "antipodal_pairs", "vertex_label"
)
# Each loaded l1cert module's bindings of those names, as "module.name".
BOUND = (
    "print(sorted(f'{m}.{name}' for m, module in sys.modules.items()"
    " if m.partition('.')[0] == 'l1cert'"
    f" for name in {LABEL_REFERENCES!r} if hasattr(module, name)))\n"
)


def run_fresh(commands):
    """Exit codes of `commands` run through main in one fresh interpreter, its l1cert
    modules and their bindings of the LABEL_REFERENCES."""
    code = (
        "import contextlib, io, sys\n"
        "from l1cert.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = main(argv)\n"
        "    print(code)\n"
        + LOADED
        + BOUND
    )
    *codes, modules, bound = fresh_interpreter(code).splitlines()
    return [int(c) for c in codes], modules, bound


def test_importing_the_cli_loads_only_the_product_modules():
    assert fresh_interpreter("import sys, l1cert.cli\n" + LOADED) == f"{CLI_MODULES}\n"


def test_only_selftest_loads_the_suites_and_references(tmp_path):
    ps, emb = tmp_path / "ps.txt", tmp_path / "emb.txt"
    commands = [
        ["generate", "-k", "2", "-n", "2", "-o", str(ps)],
        ["search", str(ps), "-d", "2", "--iters", "50", "--restarts", "1", "-o", str(emb)],
        ["certify", str(ps), str(emb)],
        ["bound", "-k", "2", "-n", "2", "--eps", "0.1"],
    ]
    # No product module binds an interval-label reference.
    assert run_fresh(commands) == ([0, 0, 0, 0], str(CLI_MODULES), "[]")
    codes, modules, bound = run_fresh([["selftest", "--suite", "identity_equality"]])
    assert codes == [0]
    assert "'l1cert.selftest'" in modules and "'l1cert.oracle'" in modules
    oracle_names = [f"l1cert.oracle.{name}" for name in LABEL_REFERENCES[:4]]
    assert bound == str(sorted([*oracle_names, "l1cert.selftest.antipodal_pairs"]))
