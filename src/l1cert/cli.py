"""Command-line interface: generate, certify, bound, search, selftest.

Exit codes: 0 success, 1 verification failure (inconsistent certificate
or failed self test), 2 usage or input error. Every command ends its
report with a single summary line.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .certifier import (
    bound_for_distortion,
    certificate_to_text,
    certify,
    constraint_table_csv,
    dimension_bound,
)
from .l1metric import SearchConfig, embedding_from_text, embedding_to_text, search_embedding
from .pointset import (
    GraphParams,
    build_graph,
    point_set,
    pointset_from_text,
    pointset_to_file,
)


def _cmd_generate(args) -> int:
    params = GraphParams(args.k, args.n)
    ps = point_set(build_graph(params))
    out = Path(args.out) if args.out else Path(f"pointset_k{params.k}_n{params.n}.txt")
    pointset_to_file(ps, out)
    print(f"vertices={len(ps)}")
    print(f"label_dimension={params.label_length}")
    print(f"edges={params.cycle_length ** params.n}")
    print(f"generate: ok N={len(ps)} dim={params.label_length} -> {out}")
    return 0


def _cmd_certify(args) -> int:
    ps = pointset_from_text(Path(args.pointset).read_text(encoding="utf-8"))
    emb = embedding_from_text(Path(args.embedding).read_text(encoding="utf-8"), ps)
    cert = certify(ps, emb)
    sys.stdout.write(certificate_to_text(cert))
    if args.table:
        Path(args.table).write_text(constraint_table_csv(cert.constraints), encoding="utf-8")
        print(f"constraint_table -> {args.table}")
    verdict = "consistent" if cert.consistent else "INCONSISTENT (implementation bug)"
    print(
        f"certify: {verdict} epsilon={cert.epsilon:.6g} "
        f"min_dimension={cert.bound.min_dimension} d={cert.embedding_dimension}"
    )
    return 0 if cert.consistent else 1


def _cmd_bound(args) -> int:
    if args.eps is not None:
        result = dimension_bound(args.k, args.n, args.eps)
        source = f"eps={args.eps:.6g}"
    else:
        result = bound_for_distortion(args.k, args.n, args.distortion)
        source = f"distortion={args.distortion:.6g}"
    print(f"delta={result.delta!r}")
    print(f"per_level_term={result.per_level_term!r}")
    print(f"raw_bound={result.raw_bound!r}")
    print(f"min_dimension={result.min_dimension}")
    print(f"applicable={'true' if result.applicable else 'false'}")
    print(
        f"bound: k={args.k} n={args.n} {source} -> min_dimension={result.min_dimension}"
        + ("" if result.applicable else " (vacuous)")
    )
    return 0


def _cmd_search(args) -> int:
    ps = pointset_from_text(Path(args.pointset).read_text(encoding="utf-8"))
    cfg = SearchConfig(
        target_dimension=args.dimension,
        iterations=args.iters,
        restarts=args.restarts,
        seed=args.seed,
    )
    result = search_embedding(ps, cfg)
    cert = certify(ps, result.embedding, report=result.report)
    out = Path(args.out) if args.out else Path(
        f"embedding_k{ps.params.k}_n{ps.params.n}_d{args.dimension}_s{args.seed}.txt"
    )
    out.write_text(embedding_to_text(ps, result.embedding), encoding="utf-8")
    sidecar = Path(str(out) + ".report")
    report_lines = [
        f"distortion={result.report.distortion!r}",
        f"expansion={result.report.expansion!r}",
        f"contraction={result.report.contraction!r}",
        f"epsilon={cert.epsilon!r}",
        f"min_dimension={cert.bound.min_dimension}",
        f"consistent={'true' if cert.consistent else 'false'}",
        f"restart={result.restart}",
        f"seed={args.seed}",
        f"iterations={args.iters}",
        f"restarts={args.restarts}",
    ]
    sidecar.write_text("\n".join(report_lines) + "\n", encoding="utf-8")
    print(f"distortion={result.report.distortion:.9g}")
    print(f"epsilon={cert.epsilon:.9g}")
    print(f"min_dimension={cert.bound.min_dimension}")
    print(
        f"search: ok d={args.dimension} distortion={result.report.distortion:.6g} "
        f"-> {out} (+.report)"
    )
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest  # here, so no other command loads the suites
    started = time.monotonic()
    results = run_selftest(args.suite or None, flip_bottom=args.flip_bottom_debug)
    failed_suites = 0
    for name, passed, failed in results:
        status = "ok" if failed == 0 else "FAIL"
        print(f"{name}: {status} ({passed} passed, {failed} failed)")
        if failed:
            failed_suites += 1
    elapsed = time.monotonic() - started
    if failed_suites:
        print(f"selftest: {failed_suites} of {len(results)} suites failed ({elapsed:.1f}s)")
        return 1
    print(f"selftest: all {len(results)} suites passed ({elapsed:.1f}s)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="l1cert",
        description=(
            "Build recursive-cycle point sets, certify L1 embeddings, and "
            "compute dimension lower bounds."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a point set to a P1 text file")
    p.add_argument("-k", type=int, required=True, help="half-cycle length (>= 2)")
    p.add_argument("-n", type=int, required=True, help="recursion depth (>= 1)")
    p.add_argument("-o", "--out", help="output path (default pointset_k<k>_n<n>.txt)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("certify", help="certify an embedding file against a point set")
    p.add_argument("pointset", help="P1 point-set file")
    p.add_argument("embedding", help="L1EMB v1 embedding file")
    p.add_argument("--table", help="also write the per-constraint CSV table here")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("bound", help="evaluate the dimension lower bound")
    p.add_argument("-k", type=int, required=True)
    p.add_argument("-n", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--eps", type=float, help="constraint slack epsilon")
    group.add_argument("--distortion", type=float, help="distortion D (eps = 1 - 1/D)")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("search", help="local-search for a low-distortion embedding")
    p.add_argument("pointset", help="P1 point-set file")
    p.add_argument("-d", "--dimension", type=int, required=True, help="target dimension")
    p.add_argument("--iters", type=int, default=2000)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--out", help="embedding output path")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("selftest", help="run the built-in invariant suites")
    p.add_argument(
        "--suite",
        action="append",
        help="run only this suite (repeatable; default: all; an unknown name prints the suites)",
    )
    p.add_argument(
        "--flip-bottom-debug",
        action="store_true",
        help="debug: flip the bottom-edge orientation to demonstrate failure detection",
    )
    p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    # FormatError, CapacityError and DegenerateEmbeddingError are ValueErrors.
    except (ValueError, OSError) as exc:
        print(f"error: {exc}")
        return 2
    except (ArithmeticError, MemoryError) as exc:
        # Sizes beyond float range or memory are input errors, not failed checks.
        print(f"error: {type(exc).__name__}: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
