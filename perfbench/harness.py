"""Workloads, the timed op loop and metric aggregation for the benchmark.

A workload writes seeded input files (set-up), then repeats one
user-visible operation, an "op", until the requested wall time is used,
and at least MIN_OPS times. gc.collect() runs before each op. Every check
runs between ops or after the loop, never inside a timed region; an op
fails when any check on it fails, and a failed run-level check fails
every op. See README.md for the workloads, metrics and layer table.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import os
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import l1cert
from l1cert import certifier, cli, l1metric, oracle, pointset

import reference
import speed
from spans import Tracer

MIN_OPS = 2
SETUP_REPEATS = 5
IMPORT_REPEATS = 9
EPS_TOL = 1e-12
BRUTE_TOL = 1e-9
# Run in a fresh interpreter with perfbench/ and src/ on the path: numpy is
# already loaded by speed.py when the timed import starts.
IMPORT_PROBE = (
    "import time, speed\n"
    "with speed.sampling() as probe:\n"
    "    t = time.perf_counter(); import l1cert.cli; t = time.perf_counter() - t\n"
    "print(probe.scaled(t))"
)

# Size ladder of the traced certify_deep run: certify stages at each (k, n) and d.
LADDER = ((2, 4), (2, 5), (2, 6), (3, 4), (4, 3))
LADDER_DIMS = (4, 16)


# -- tracing targets -------------------------------------------------------


def _count_graph(args, kwargs, graph):
    n = len(graph.vertices)
    return [
        ("pointset.vertices", n),
        ("pointset.edges", len(graph.edges)),
        ("pointset.label_pairs", n * (n - 1) // 2),
    ]


def _count_distance_matrix(args, kwargs, matrix):
    n = len(args[0])
    return [("pointset.distance_matrix_bytes", n * n * 8)]


def _count_pairwise(args, kwargs, result):
    n, d = args[0].shape
    return [("l1metric.pair_coord_ops", n * (n - 1) // 2 * d)]


def _count_constraints(args, kwargs, report):
    return [("certifier.constraints", len(report.entries))]


def _count_search(args, kwargs, result):
    cfg = args[1]
    return [("oracle.search_iterations", cfg.iterations * cfg.restarts)]


# (module, attribute, span name, counter). Each is wrapped in every l1cert
# module that binds it, so CLI and library calls both pass through.
TARGETS = (
    ("l1cert.pointset", "build_graph", "pointset.build_graph", _count_graph),
    ("l1cert.pointset", "point_set", "pointset.point_set", None),
    ("l1cert.pointset", "pointset_to_text", "pointset.to_text", None),
    ("l1cert.pointset", "pointset_from_text", "pointset.from_text", None),
    (
        "l1cert.pointset",
        "PointSet.distance_matrix",
        "pointset.distance_matrix",
        _count_distance_matrix,
    ),
    ("l1cert.l1metric", "distortion", "l1metric.distortion", None),
    ("l1cert.l1metric", "pairwise_l1", "l1metric.pairwise_l1", _count_pairwise),
    ("l1cert.l1metric", "embedding_from_text", "l1metric.embedding_from_text", None),
    ("l1cert.l1metric", "embedding_to_text", "l1metric.embedding_to_text", None),
    ("l1cert.l1metric", "scale_embedding", "l1metric.scale_embedding", None),
    ("l1cert.certifier", "certify", "certifier.certify", None),
    (
        "l1cert.certifier",
        "constraint_report",
        "certifier.constraint_report",
        _count_constraints,
    ),
    ("l1cert.certifier", "dimension_bound", "certifier.dimension_bound", None),
    ("l1cert.certifier", "certificate_to_text", "certifier.certificate_to_text", None),
    ("l1cert.certifier", "constraint_table_csv", "certifier.constraint_table_csv", None),
    ("l1cert.oracle", "search_embedding", "oracle.search_embedding", _count_search),
    ("l1cert.oracle", "lemma_check", "oracle.lemma_check", None),
    ("l1cert.oracle", "brute_force_average", "oracle.brute_force_average", None),
    ("l1cert.oracle", "max_claim_gap", "oracle.max_claim_gap", None),
    ("l1cert.oracle", "build_message_joint", "oracle.build_message_joint", None),
    ("l1cert.infotheory", "mutual_information", "infotheory.mutual_information", None),
    ("l1cert.infotheory", "chain_rule_terms", "infotheory.chain_rule_terms", None),
    ("l1cert.infotheory", "fano_bound", "infotheory.fano_bound", None),
)
# (module, dict, span prefix): each selftest suite becomes span selftest.<suite>.
MAPPINGS = (("l1cert.selftest", "SUITES", "selftest."),)
SUITE_NAMES = (
    "construction",
    "identity_equality",
    "averaging",
    "lift",
    "fano",
    "inner_claim",
    "lemma",
    "chain_per_level",
    "distortion",
    "bound_values",
    "end_to_end",
)
CLI_COMMANDS = ("generate", "certify", "search", "selftest")

# Per-layer metric -> (how, source). "self": summed self time of span
# `source` in one op; "sum"/"max": that reduction of counter `source`
# over one op. Each metric is the median over the run's traced ops.
LAYER_METRICS = {
    "pointset.build_graph_s": ("self", "pointset.build_graph"),
    "pointset.point_set_s": ("self", "pointset.point_set"),
    "pointset.to_text_s": ("self", "pointset.to_text"),
    "pointset.from_text_s": ("self", "pointset.from_text"),
    "pointset.distance_matrix_s": ("self", "pointset.distance_matrix"),
    "pointset.distance_matrix_bytes": ("sum", "pointset.distance_matrix_bytes"),
    "pointset.vertices": ("max", "pointset.vertices"),
    "pointset.edges": ("max", "pointset.edges"),
    "pointset.label_pairs": ("max", "pointset.label_pairs"),
    "l1metric.distortion_s": ("self", "l1metric.distortion"),
    "l1metric.pairwise_l1_s": ("self", "l1metric.pairwise_l1"),
    "l1metric.pair_coord_ops": ("sum", "l1metric.pair_coord_ops"),
    "l1metric.embedding_from_text_s": ("self", "l1metric.embedding_from_text"),
    "l1metric.embedding_to_text_s": ("self", "l1metric.embedding_to_text"),
    "l1metric.scale_embedding_s": ("self", "l1metric.scale_embedding"),
    "certifier.certify_s": ("self", "certifier.certify"),
    "certifier.constraint_report_s": ("self", "certifier.constraint_report"),
    "certifier.constraints": ("sum", "certifier.constraints"),
    "certifier.dimension_bound_s": ("self", "certifier.dimension_bound"),
    "certifier.certificate_to_text_s": ("self", "certifier.certificate_to_text"),
    "certifier.constraint_table_csv_s": ("self", "certifier.constraint_table_csv"),
    "oracle.search_embedding_s": ("self", "oracle.search_embedding"),
    "oracle.search_iterations": ("sum", "oracle.search_iterations"),
    "oracle.lemma_check_s": ("self", "oracle.lemma_check"),
    "oracle.brute_force_average_s": ("self", "oracle.brute_force_average"),
    "oracle.max_claim_gap_s": ("self", "oracle.max_claim_gap"),
    "oracle.build_message_joint_s": ("self", "oracle.build_message_joint"),
    "infotheory.mutual_information_s": ("self", "infotheory.mutual_information"),
    "infotheory.chain_rule_terms_s": ("self", "infotheory.chain_rule_terms"),
    "infotheory.fano_bound_s": ("self", "infotheory.fano_bound"),
    **{f"selftest.{s}_s": ("self", f"selftest.{s}") for s in SUITE_NAMES},
    **{f"cli.{c}_self_s": ("self", f"cli.{c}") for c in CLI_COMMANDS},
}


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = list(LAYER_METRICS)
    names += ["oracle.search_iter_ms", "trace.overhead_s", "trace.overhead_share"]
    names += ["trace.spans", "trace.missing_names"]
    for k, n in LADDER:
        names.append(f"ladder.k{k}n{n}.distance_matrix_s")
        for d in LADDER_DIMS:
            for stage in ("pairwise_l1_s", "constraint_report_s", "certify_s"):
                names.append(f"ladder.k{k}n{n}d{d}.{stage}")
    return names


def unit_of(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_share"):
        return "ratio"
    return "count"


# -- workloads ---------------------------------------------------------------


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


def run_cli(argv: list[str], tracer) -> tuple[int, str]:
    """Call l1cert's CLI in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), _span(tracer, "cli." + argv[0]):
        code = cli.main(argv)
    return code, buf.getvalue()


def key_values(text: str) -> dict[str, str]:
    """The key=value lines of a certificate or .report text."""
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line and " " not in line)


def constraint_count(k: int, n: int) -> int:
    return sum((2 * k) ** (level - 1) * (k - 1) for level in range(1, n + 1))


def p1_round_trip(ps, text: str) -> list[str]:
    """`ps` was parsed from P1 `text`; writing it back must give the same bytes."""
    if pointset.pointset_to_text(ps) != text:
        return ["P1 round trip is not byte-identical"]
    return []


def emb_round_trip(ps, emb, text: str) -> list[str]:
    """`emb` was parsed from L1EMB `text`; writing it back must give the same bytes."""
    if l1metric.embedding_to_text(ps, emb) != text:
        return ["L1EMB round trip is not byte-identical"]
    return []


def check_files(p1_text: str, emb_text: str, epsilons, label_distances=True) -> list[str]:
    """Round trips of both files, and every op's epsilon against the reference.

    `label_distances=False` skips the expansion scaling, for an op that
    reports the raw constraint epsilon (the edges_large read path).
    """
    ps = pointset.pointset_from_text(p1_text)
    emb = l1metric.embedding_from_text(emb_text, ps)
    errors = p1_round_trip(ps, p1_text) + emb_round_trip(ps, emb, emb_text)
    bits = reference.parse_label_bits(p1_text) if label_distances else None
    want = reference.epsilon(ps.graph, reference.parse_embedding(emb_text), bits)
    errors += [
        f"epsilon {eps!r} differs from the reference {want!r}"
        for eps in epsilons
        if abs(eps - want) > EPS_TOL
    ]
    return errors


def _read(path: Path) -> str:
    return path.read_bytes().decode("utf-8")


class Workload:
    """One named workload: seeded set-up, a repeatable op and its checks."""

    name = ""
    parts: tuple[str, ...] = ()  # names of the op's timed parts, in order
    ladder: tuple[tuple[int, int], ...] = ()  # size ladder of a traced run

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def op(self, tracer) -> tuple[dict[str, float], object]:
        """Run one op; returns its timed parts in seconds and a payload to check."""
        raise NotImplementedError

    def check(self, payload) -> list[str]:
        return []

    def finish(self) -> list[str]:
        """Checks over the whole run, made after the op loop."""
        return []


class CertifyDeep(Workload):
    """`l1cert certify --table` on P(k, n) with a seeded Gaussian embedding."""

    name = "certify_deep"
    parts = ("certify_s",)
    ladder = LADDER

    def __init__(self, k: int = 2, n: int = 6, d: int = 16) -> None:
        self.k, self.n, self.d = k, n, d

    def setup(self, seed, workdir):
        ps = pointset.point_set(pointset.build_graph(pointset.GraphParams(self.k, self.n)))
        self.p1 = workdir / "pointset.txt"
        self.emb = workdir / "embedding.txt"
        self.table = workdir / "constraints.csv"
        self.p1.write_text(pointset.pointset_to_text(ps), encoding="utf-8")
        self.emb.write_text(
            reference.gaussian_embedding_text(self.k, self.n, self.d, seed), encoding="utf-8"
        )
        self.epsilons: list[float] = []

    def op(self, tracer):
        argv = ["certify", str(self.p1), str(self.emb), "--table", str(self.table)]
        t0 = time.perf_counter()
        code, out = run_cli(argv, tracer)
        return {"certify_s": time.perf_counter() - t0}, (code, out)

    def check(self, payload):
        code, out = payload
        if code != 0:
            return [f"certify exited with {code}"]
        fields = key_values(out)
        errors = [] if fields.get("consistent") == "true" else ["certificate is not consistent"]
        eps = float(fields["epsilon"])
        self.epsilons.append(eps)
        rows = _read(self.table).splitlines()[1:]
        if len(rows) != constraint_count(self.k, self.n):
            errors.append(f"constraint table has {len(rows)} rows")
        table_eps = max(0.0, 1.0 - min(float(r.rsplit(",", 1)[1]) for r in rows))
        if abs(table_eps - eps) > EPS_TOL:
            errors.append(f"table epsilon {table_eps!r} != certificate epsilon {eps!r}")
        return errors

    def finish(self):
        return check_files(_read(self.p1), _read(self.emb), self.epsilons)


class Search(Workload):
    """`l1cert search` on P(k, n), seeded by the workload seed, with its certify."""

    name = "search"
    parts = ("search_s",)

    def __init__(self, k=2, n=4, d=8, iters=1000, restarts=2) -> None:
        self.k, self.n, self.d, self.iters, self.restarts = k, n, d, iters, restarts

    def setup(self, seed, workdir):
        ps = pointset.point_set(pointset.build_graph(pointset.GraphParams(self.k, self.n)))
        self.seed = seed
        self.p1 = workdir / "pointset.txt"
        self.out = workdir / "embedding.txt"
        self.p1.write_text(pointset.pointset_to_text(ps), encoding="utf-8")
        self.epsilons: list[float] = []
        self.digests: list[str] = []

    def op(self, tracer):
        argv = [
            "search", str(self.p1), "-d", str(self.d), "--iters", str(self.iters),
            "--restarts", str(self.restarts), "--seed", str(self.seed), "-o", str(self.out),
        ]
        t0 = time.perf_counter()
        code, _ = run_cli(argv, tracer)
        return {"search_s": time.perf_counter() - t0}, code

    def check(self, code):
        if code != 0:
            return [f"search exited with {code}"]
        report = key_values(_read(Path(str(self.out) + ".report")))
        errors = [] if report.get("consistent") == "true" else ["search result is not consistent"]
        self.epsilons.append(float(report["epsilon"]))
        digest = hashlib.sha256(self.out.read_bytes()).hexdigest()
        if self.digests and digest != self.digests[0]:
            errors.append("same seed wrote different embedding bytes")
        self.digests.append(digest)
        return errors

    def finish(self):
        return check_files(_read(self.p1), _read(self.out), self.epsilons)


class EdgesLarge(Workload):
    """`l1cert generate`, then the read path P1 + L1EMB parse, constraints, bound."""

    name = "edges_large"
    parts = ("generate_s", "edge_report_s")

    def __init__(self, k: int = 3, n: int = 6, d: int = 16) -> None:
        self.k, self.n, self.d = k, n, d

    def setup(self, seed, workdir):
        self.seed = seed
        self.p1 = workdir / "pointset.txt"
        self.emb = workdir / "embedding.txt"
        self.emb.write_text(
            reference.gaussian_embedding_text(self.k, self.n, self.d, seed), encoding="utf-8"
        )
        self.digest = None
        self.epsilons: list[float] = []
        self.checked = 0

    def op(self, tracer):
        argv = ["generate", "-k", str(self.k), "-n", str(self.n), "-o", str(self.p1)]
        t0 = time.perf_counter()
        code, _ = run_cli(argv, tracer)
        t1 = time.perf_counter()
        ps = pointset.pointset_from_text(self.p1.read_text(encoding="utf-8"))
        emb = l1metric.embedding_from_text(self.emb.read_text(encoding="utf-8"), ps)
        report = certifier.constraint_report(ps.graph, emb)
        certifier.dimension_bound(self.k, self.n, report.epsilon)
        t2 = time.perf_counter()
        return {"generate_s": t1 - t0, "edge_report_s": t2 - t1}, (code, ps, emb, report)

    def check(self, payload):
        code, ps, emb, report = payload
        if code != 0:
            return [f"generate exited with {code}"]
        p1_text, emb_text = _read(self.p1), _read(self.emb)
        digest = hashlib.sha256(p1_text.encode("utf-8")).hexdigest()
        errors = []
        if self.digest not in (None, digest):
            errors.append("generate wrote different P1 bytes")
        self.digest = digest
        errors += p1_round_trip(ps, p1_text) + emb_round_trip(ps, emb, emb_text)
        if len(report.entries) != constraint_count(self.k, self.n):
            errors.append(f"{len(report.entries)} constraints")
        self.epsilons.append(report.epsilon)
        errors += self._sample_check(ps.graph, emb, report)
        self.checked += 1
        return errors

    def finish(self):
        return check_files(_read(self.p1), _read(self.emb), self.epsilons, label_distances=False)

    def _sample_check(self, graph, emb, report) -> list[str]:
        """One seeded constraint per level against the slow references."""
        rng = np.random.default_rng([self.seed, self.checked])
        k = self.k
        slow_lhs = getattr(certifier, "constraint_lhs", None)
        errors = []
        for level in range(1, self.n + 1):
            entries = [e for e in report.entries if e.level == level]
            e = entries[int(rng.integers(len(entries)))]
            if slow_lhs is not None:
                slow = slow_lhs(graph, emb, e.prefix, e.r)
                if abs(slow - e.lhs) > EPS_TOL:
                    errors.append(f"constraint_lhs {slow!r} != {e.lhs!r} at {e.prefix}, r={e.r}")
            paired = [
                oracle.brute_force_average(graph, emb, e.prefix + (b,))
                + oracle.brute_force_average(graph, emb, e.prefix + (b + k,))
                for b in range(1, k + 1)
            ]
            brute = float(np.abs(sum(paired[: e.r]) - sum(paired[e.r :])).sum()) / (2 * k)
            if abs(brute - e.lhs) > BRUTE_TOL:
                errors.append(f"brute-force lhs {brute!r} != {e.lhs!r} at {e.prefix}, r={e.r}")
        return errors


class Selftest(Workload):
    """The full `l1cert selftest`; it has no inputs, so the seed changes nothing."""

    name = "selftest"
    parts = ("selftest_s",)

    def setup(self, seed, workdir):
        pass

    def op(self, tracer):
        t0 = time.perf_counter()
        code, out = run_cli(["selftest"], tracer)
        return {"selftest_s": time.perf_counter() - t0}, (code, out)

    def check(self, payload):
        code, out = payload
        lines = out.splitlines()
        suites = [line for line in lines[:-1] if re.match(r"\w+: ok \(\d+ passed, 0 failed\)$", line)]
        if code != 0 or len(suites) != len(lines) - 1:
            return [f"selftest exited with {code}: {lines[-1] if lines else ''}"]
        if not re.match(rf"selftest: all {len(suites)} suites passed", lines[-1]):
            return [f"unexpected summary {lines[-1]!r}"]
        return []


WORKLOADS = {
    "certify_deep": CertifyDeep,
    "search": Search,
    "edges_large": EdgesLarge,
    "selftest": Selftest,
}


# -- the run -----------------------------------------------------------------


@dataclass
class Record:
    traced: bool
    parts: dict[str, float]  # wall time of each timed part, probes included
    errors: list[str]
    probe: "speed.Speed | None" = None  # host-speed samples taken during the op
    peak_mb: float = 0.0  # peak resident set size during the op

    @property
    def raw(self) -> float:
        """Wall time of the op without the probes."""
        return sum(self.parts.values()) - (self.probe.probe_s if self.probe else 0.0)

    @property
    def seconds(self) -> float:
        """Op time at the reference speed (see speed.py)."""
        wall = sum(self.parts.values())
        return self.probe.scaled(wall) if self.probe else wall

    def part(self, name: str) -> float:
        """One part at the reference speed, less its share of probe time."""
        return self.parts[name] * self.seconds / sum(self.parts.values())


@dataclass
class Result:
    workload: str
    records: list[Record]
    setup_s: float
    peak_rss_mb: float
    run_errors: list[str]
    layer: dict[str, float] = field(default_factory=dict)
    missing: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        if self.run_errors:
            return self.attempted
        return sum(1 for r in self.records if r.errors)

    def op_times(self, traced: bool = False) -> list[float]:
        return [r.seconds for r in self.records if r.parts and r.traced == traced]

    def raw_op_times(self) -> list[float]:
        return [r.raw for r in self.records if r.parts and not r.traced]

    def part_times(self, part: str) -> list[float]:
        return [r.part(part) for r in self.records if part in r.parts and not r.traced]

    def end_to_end(self) -> dict[str, float]:
        ops = self.op_times()
        return {
            "op_s": statistics.median(ops) if ops else 0.0,
            "setup_s": self.setup_s,
            "peak_rss_mb": self.peak_rss_mb,
            "ops_ok_share": (self.attempted - self.failed) / self.attempted,
        }


def import_seconds() -> float:
    """Time to import l1cert's CLI in a fresh interpreter, at the reference speed."""
    src = Path(l1cert.__file__).resolve().parent.parent
    path = os.pathsep.join([str(Path(speed.__file__).resolve().parent), str(src)])
    argv = [sys.executable, "-c", IMPORT_PROBE]
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120, check=True)
    return float(out.stdout.split()[-1])


def setup_seconds(workload: Workload, seed: int, workdir: Path) -> float:
    """Median import time plus median input-generation time, at the reference speed."""
    imports = [import_seconds() for _ in range(IMPORT_REPEATS)]
    generation = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        with speed.sampling() as probe:
            t0 = time.perf_counter()
            workload.setup(seed, workdir)
            elapsed = time.perf_counter() - t0
        generation.append(probe.scaled(elapsed))
    return statistics.median(imports) + statistics.median(generation)


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS mark (VmHWM) of this process at its current RSS."""
    with contextlib.suppress(OSError):
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")


def peak_rss_mb() -> float:
    """Peak RSS since the last reset_peak_rss, or over the process's life where it failed."""
    with contextlib.suppress(OSError):
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: Path,
    ladder=None,
) -> Result:
    """Set up, run the op loop, check, and (traced) run the size ladder.

    `ladder` overrides the workload's own size ladder.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    setup_s = setup_seconds(workload, seed, workdir)
    tracer = Tracer() if trace else None
    records: list[Record] = []
    start = time.perf_counter()
    while len(records) < MIN_OPS or (
        time.perf_counter() - start + statistics.median(r.raw for r in records) <= seconds
    ):
        traced = tracer is not None and len(records) % 2 == 1
        record = Record(traced, {}, [])
        gc.collect()
        reset_peak_rss()
        try:
            with speed.sampling() as probe, (
                tracer.installed(f"op{len(records)}", TARGETS, MAPPINGS)
                if traced
                else contextlib.nullcontext()
            ):
                record.parts, payload = workload.op(tracer if traced else None)
            record.peak_mb = peak_rss_mb()
            record.probe = probe
            record.errors = workload.check(payload)
        except Exception:  # a broken op is counted as failed; the run goes on
            record.errors = [traceback.format_exc()]
        payload = None
        records.append(record)
    try:
        run_errors = workload.finish()
    except Exception:
        run_errors = [traceback.format_exc()]
    peak = max(r.peak_mb for r in records if not r.traced)
    result = Result(workload.name, records, setup_s, peak, run_errors)
    if tracer is not None:
        try:
            ladder_metrics = run_ladder(tracer, seed, workload.ladder if ladder is None else ladder)
        except Exception:
            ladder_metrics = {}
            result.run_errors.append("size ladder: " + traceback.format_exc())
        result.layer = layer_metrics(tracer, result, ladder_metrics)
        result.missing = tracer.missing
        tracer.write(workdir.parent / f"spans-{workload.name}.jsonl")
    return result


def run_ladder(tracer: Tracer, seed: int, ladder) -> dict[str, float]:
    """Certify-stage times at each ladder size; the distance matrix once per (k, n)."""
    out = {}
    for k, n in ladder:
        ps = pointset.point_set(pointset.build_graph(pointset.GraphParams(k, n)))
        tag = f"ladder.k{k}n{n}"
        gc.collect()
        with tracer.installed(tag, TARGETS, MAPPINGS):
            getattr(ps, "distance_matrix", None)  # cached for the certify calls
        totals = tracer.total_times()
        out[f"{tag}.distance_matrix_s"] = totals.get((tag, "pointset.distance_matrix"), 0.0)
        for d in LADDER_DIMS:
            rng = np.random.default_rng([seed, k, n, d])
            emb = l1metric.make_embedding({a: rng.standard_normal(d) for a in ps.addresses})
            op = f"{tag}d{d}"
            gc.collect()
            with tracer.installed(op, TARGETS, MAPPINGS):
                certifier.certify(ps, emb)
            totals = tracer.total_times()
            for stage, span in (
                ("pairwise_l1_s", "l1metric.pairwise_l1"),
                ("constraint_report_s", "certifier.constraint_report"),
                ("certify_s", "certifier.certify"),
            ):
                out[f"{op}.{stage}"] = totals.get((op, span), 0.0)
    return out


def layer_metrics(tracer: Tracer, result: Result, ladder_metrics) -> dict[str, float]:
    ops = [f"op{i}" for i, r in enumerate(result.records) if r.traced]
    selfs, totals = tracer.self_times(), tracer.total_times()

    def per_op(fn) -> float:
        return statistics.median(fn(op) for op in ops) if ops else 0.0

    reducers = {"sum": sum, "max": max}
    out = {}
    for metric, (how, source) in LAYER_METRICS.items():
        if how == "self":
            out[metric] = per_op(lambda op: selfs.get((op, source), 0.0))
        else:
            reduce = reducers[how]
            out[metric] = per_op(lambda op: reduce(tracer.counts.get((op, source), [0])))

    def iter_ms(op):
        iters = sum(tracer.counts.get((op, "oracle.search_iterations"), [0]))
        return 1000.0 * totals.get((op, "oracle.search_embedding"), 0.0) / iters if iters else 0.0

    out["oracle.search_iter_ms"] = per_op(iter_ms)
    untraced, traced = result.op_times(False), result.op_times(True)
    if untraced and traced:
        overhead = statistics.median(traced) - statistics.median(untraced)
        out["trace.overhead_s"] = overhead
        out["trace.overhead_share"] = overhead / statistics.median(untraced)
    out["trace.spans"] = per_op(lambda op: sum(1 for s in tracer.spans if s[4] == op))
    out["trace.missing_names"] = len(tracer.missing)
    out.update(ladder_metrics)
    return {name: float(out.get(name, 0.0)) for name in per_layer_names()}
