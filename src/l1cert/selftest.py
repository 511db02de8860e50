"""Built-in invariant suites behind the `selftest` CLI command.

Each proof check has one implementation here: a `check_*` function that
takes a checker `t` (anything with `check(ok)`) and its case, or for the
lift, inner claim, Fano and lemma steps a stack of same-shape cases, with
one `t.check` per case; `draw_*` draws such cases one trial at a time and
`stack_by_shape` stacks them. A suite is a fixed case list over these
functions, with its own seed, trial count and vacuity floor, and reports
pass/fail counts. The tests call the same functions with their own case
lists and a checker whose `check` asserts, so each check has one owner.
The identity-constraints suite pins the edge orientation convention;
running it with flip_bottom=True demonstrates that a flip is caught.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .certifier import (
    average_edge_vector,
    bound_for_distortion,
    certify,
    choose_k,
    constraint_report,
    dimension_bound,
    nonneg_lift,
)
from .infotheory import (
    binary_entropy,
    chain_rule_terms,
    fano_bound,
    fano_term,
    mutual_information,
    table_information,
)
from .l1metric import (
    Embedding,
    SearchConfig,
    distortion,
    identity_embedding,
    normalize_lipschitz,
    scale_embedding,
    search_embedding,
)
from .oracle import (
    antipodal_pairs,
    brute_force_average,
    build_message_joint,
    lemma_check,
    lift_recover,
    max_claim_gap,
    predictor_success,
)
from .pointset import GraphParams, RecursiveCycleGraph, build_graph, vertex_count


class _Tally:
    def __init__(self) -> None:
        self.passed = 0
        self.failed = 0

    def check(self, ok: bool) -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1


def check_construction(t, graph: RecursiveCycleGraph) -> None:
    """Vertex and edge counts, distinct labels, unit edges and antipodal distances.

    Labels are read as packed columns: distinct when no two neighbours in
    lexicographic order are equal, at popcount-of-XOR distances.
    """
    params, bits = graph.params, graph._bitplanes
    t.check(len(graph.vertices) == vertex_count(params))
    t.check(len(graph.level_edges[-1][0]) == params.cycle_length**params.n)
    cols = bits[:, np.lexsort(bits)]
    t.check(cols.shape[1] == len(graph.vertices) and (cols[:, 1:] != cols[:, :-1]).any(0).all())
    tails, heads = graph.level_edges[-1]
    t.check((np.bitwise_count(bits[:, tails] ^ bits[:, heads]).sum(axis=0) == 1).all())
    row = {name: i for i, name in enumerate(graph.vertices)}
    for level in range(1, params.n + 1):
        pairs = [(row[a], row[b]) for a, b in antipodal_pairs(graph, level)]
        t.check(len(pairs) == params.k * params.cycle_length ** (level - 1))
        want = params.k ** (params.n - level + 1)
        a, b = np.array(pairs).T
        t.check((np.bitwise_count(bits[:, a] ^ bits[:, b]).sum(axis=0) == want).all())


def check_identity_constraints(t, graph: RecursiveCycleGraph) -> None:
    """The identity embedding makes every (level, prefix, r) constraint exactly 1."""
    k, n = graph.params.k, graph.params.n
    report = constraint_report(graph, identity_embedding(graph))
    expected = sum((2 * k) ** (level - 1) * (k - 1) for level in range(1, n + 1))
    t.check(sum(values.size for values in report.lhs) == expected)
    t.check(all((np.abs(values - 1.0) <= 1e-12).all() for values in report.lhs))


def check_averaging(t, graph: RecursiveCycleGraph, emb: Embedding) -> None:
    """The closed-form prefix average equals brute-force completion on every prefix."""
    k, n = graph.params.k, graph.params.n
    for length in range(n + 1):
        for prefix in itertools.product(range(1, 2 * k + 1), repeat=length):
            closed = average_edge_vector(graph, emb, prefix)
            brute = brute_force_average(graph, emb, prefix)
            t.check(float(np.abs(closed - brute).max()) <= 1e-12)


def _check_each(t, oks) -> None:
    for ok in np.ravel(oks).tolist():
        t.check(ok)


def stack_by_shape(cases) -> list[tuple[np.ndarray, ...]]:
    """Stack an iterable of case tuples by their first array's shape: one
    tuple of float stacks per shape, in first-seen order. Each column grows
    as one bytes buffer, so no drawn case is kept as an array of its own."""
    groups: dict[tuple[int, ...], list[tuple[bytearray, tuple[int, ...]]]] = {}
    for case in cases:
        columns = groups.get(case[0].shape)
        if columns is None:
            columns = groups[case[0].shape] = [(bytearray(), np.shape(a)) for a in case]
        for (buf, _), a in zip(columns, case):
            buf += np.asarray(a, dtype=float).tobytes()
    return [
        tuple(np.frombuffer(buf).reshape((-1,) + shape) for buf, shape in columns)
        for columns in groups.values()
    ]


def draw_lift_cases(rng: np.random.Generator, trials: int, spread: float):
    """Vectors in [-1, 1]**d, d in 1..8, shrunk below norm 1, and y's in [0, 1)**(2d+1)."""
    for _ in range(trials):
        d = int(rng.integers(1, 9))
        vec = rng.uniform(-1.0, 1.0, size=d)
        norm = np.abs(vec).sum()
        vec = vec / (norm * rng.uniform(1.0, spread)) if norm > 1.0 else vec
        yield vec, rng.uniform(0.0, 1.0, size=2 * d + 1)


def check_lift(t, vecs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Each row of vecs (L1 norm <= 1) lifts to a distribution and back
    exactly; lift_recover never grows the norm of any row of ys. Returns
    the lifts."""
    lifted = nonneg_lift(vecs)
    _check_each(t, np.abs(lifted.sum(axis=-1) - 1.0) <= 1e-9)
    _check_each(t, (lift_recover(lifted) == vecs).all(axis=-1))
    _check_each(t, np.abs(lift_recover(ys)).sum(axis=-1) <= np.abs(ys).sum(axis=-1) + 1e-12)
    return lifted


def draw_fano_cases(rng: np.random.Generator, trials: int):
    """k = 2 + trial % 5 rows over m in 2..8 symbols, half pulled to one point each."""
    for trial in range(trials):
        k = 2 + trial % 5
        m = int(rng.integers(2, 9))
        rows = rng.exponential(size=(k, m))
        rows /= rows.sum(axis=1, keepdims=True)
        if rng.uniform() < 0.5:
            sharp = np.eye(m)[[int(rng.integers(m)) for _ in range(k)]]
            lam = rng.uniform(0.0, 0.6)
            rows = (1 - lam) * sharp + lam * rows
        yield (rows,)


def check_fano(t, tables: np.ndarray) -> int:
    """I(X:Y) >= fano_bound(k, p) for X uniform on each table's k rows where
    the argmax predictor's success p reached 1/2, the only case the bound
    covers and the only one checked. Returns how many were."""
    k = tables.shape[-2]
    _, success = predictor_success(tables)
    covered = success >= 0.5
    info = table_information(tables[covered] / k)
    _check_each(t, info >= fano_term(k, 1.0 - success[covered]) - 1e-9)
    return int(covered.sum())


def draw_claim_values(rng: np.random.Generator, trials: int):
    """2 + trial % 7 entries in [0, 4) per trial."""
    for trial in range(trials):
        yield (rng.uniform(0.0, 4.0, size=2 + trial % 7),)


def draw_dyadic_pairs(rng: np.random.Generator, pairs: int) -> np.ndarray:
    """Pairs of dyadic entries in [0, 1), on which every float op is exact."""
    return np.array([rng.integers(0, 2**20, size=2) / 2.0**20 for _ in range(pairs)])


def check_inner_claim(t, values: np.ndarray, exact: bool = False):
    """max_claim_gap's lhs <= rhs on each row, or lhs == rhs where `exact`
    (dyadic pairs). Returns the (lhs, rhs) arrays."""
    lhs, rhs = max_claim_gap(values)
    _check_each(t, lhs == rhs if exact else lhs <= rhs + 1e-12)
    return lhs, rhs


def draw_lemma_cases(rng: np.random.Generator, trials: int):
    """2k rows, k = 2 + trial % 4, over d in k..8 symbols, most pulled to one
    point per opposite pair (a, a+k)."""
    for trial in range(trials):
        k = 2 + trial % 4
        d = int(rng.integers(k, 9))
        rows = rng.exponential(size=(2 * k, d))
        rows /= rows.sum(axis=1, keepdims=True)
        if rng.uniform() < 0.7:
            targets = rng.permutation(d)[:k]
            sharp = np.tile(np.eye(d)[targets], (2, 1))
            lam = rng.uniform(0.0, 0.5)
            rows = (1 - lam) * sharp + lam * rows
        yield (rows,)


def check_lemma(t, tables: np.ndarray) -> int:
    """lemma_check's bound and its data-processing inequality hold on each
    (2k, d) table. Returns how many the bound applied to (delta < 1/2)."""
    report = lemma_check(tables)
    _check_each(t, report.holds)
    _check_each(t, report.mi_exact >= report.mi_folded - 1e-9)
    return int(np.sum(report.applicable))


def check_chain_per_level(t, graph: RecursiveCycleGraph, emb: Embedding) -> list[float]:
    """The chain-rule terms of the message joint sum to I(source:message), each
    carries at least one bit, and H(message) sits between that total and
    log2(2d+1). Returns the terms."""
    n = graph.params.n
    joint = build_message_joint(graph, emb)
    terms = chain_rule_terms(joint)
    total = mutual_information(joint, tuple(range(n)), n)
    t.check(abs(sum(terms) - total) <= 1e-9)
    t.check(all(term >= 1.0 - 1e-9 for term in terms))
    h_m = joint.entropy_of(n)
    t.check(math.log2(2 * emb.dimension + 1) >= h_m >= total - 1e-9)
    return terms


def check_bound_values(t) -> None:
    """Dimension bounds and entropies against values computed independently."""
    b = dimension_bound(2, 10, 0.0)
    t.check(abs(b.raw_bound - 511.5) <= 1e-6 and b.min_dimension == 512)
    b = bound_for_distortion(2, 20, 2.0)
    t.check(abs(b.raw_bound - 6.34209203720093) <= 1e-6 and b.min_dimension == 7)
    b = dimension_bound(3, 4, 0.2)
    t.check(abs(b.raw_bound - 2.6429898723159613) <= 1e-6 and b.min_dimension == 3)
    t.check(not dimension_bound(2, 5, 1.0).applicable)
    t.check(not bound_for_distortion(3, 5, 2.0).applicable)
    t.check(choose_k(0.1) == 3 and choose_k(0.25) == 2)
    t.check(abs(fano_bound(4, 0.75) - 0.7924812503605781) <= 1e-6)
    t.check(abs(binary_entropy(0.75) - 0.8112781244591328) <= 1e-6)


def check_end_to_end(t, graph: RecursiveCycleGraph, cfg: SearchConfig) -> Embedding:
    """The embedding search_embedding finds certifies as consistent. Returns it."""
    result = search_embedding(graph, cfg)
    t.check(certify(graph, result.embedding, report=result.report).consistent)
    return result.embedding


def _graph(k: int, n: int, flip: bool) -> RecursiveCycleGraph:
    return build_graph(GraphParams(k, n), flip_bottom=flip)


def _suite_construction(flip: bool) -> _Tally:
    t = _Tally()
    for k in (2, 3, 4):
        for n in (1, 2, 3):
            check_construction(t, _graph(k, n, flip))
    return t


def _suite_identity_constraints(flip: bool) -> _Tally:
    t = _Tally()
    for k in (2, 3):
        for n in (1, 2, 3):
            check_identity_constraints(t, _graph(k, n, flip))
    return t


def _suite_averaging(flip: bool) -> _Tally:
    t = _Tally()
    for k, n in ((2, 3), (3, 2)):
        graph = _graph(k, n, flip)
        check_averaging(t, graph, identity_embedding(graph))
    return t


def _suite_lift(flip: bool) -> _Tally:
    t = _Tally()
    for vecs, ys in stack_by_shape(draw_lift_cases(np.random.default_rng(7), 2000, 3.0)):
        check_lift(t, vecs, ys)
    return t


def _suite_fano(flip: bool) -> _Tally:
    t = _Tally()
    cases = draw_fano_cases(np.random.default_rng(11), 400)
    t.check(sum(check_fano(t, tables) for tables, in stack_by_shape(cases)) >= 100)
    return t


def _suite_inner_claim(flip: bool) -> _Tally:
    t = _Tally()
    rng = np.random.default_rng(13)
    for values, in stack_by_shape(draw_claim_values(rng, 3000)):
        check_inner_claim(t, values)
    check_inner_claim(t, draw_dyadic_pairs(rng, 500), exact=True)
    return t


def _suite_lemma(flip: bool) -> _Tally:
    t = _Tally()
    cases = draw_lemma_cases(np.random.default_rng(17), 400)
    t.check(sum(check_lemma(t, tables) for tables, in stack_by_shape(cases)) >= 50)
    return t


def _suite_chain_per_level(flip: bool) -> _Tally:
    t = _Tally()
    for n in (1, 2):
        graph = _graph(2, n, flip)
        check_chain_per_level(t, graph, identity_embedding(graph))
    return t


def _suite_distortion(flip: bool) -> _Tally:
    t = _Tally()
    rng = np.random.default_rng(19)
    graph = _graph(2, 2, flip)
    ident = identity_embedding(graph)
    rep = distortion(graph, ident)
    t.check(rep.expansion == 1.0 and rep.contraction == 1.0 and rep.distortion == 1.0)
    random_emb = Embedding(rng.standard_normal((len(graph), 3)), graph)
    base = distortion(graph, random_emb)
    for s in (0.1, 3.0, 42.0):
        scaled = distortion(graph, scale_embedding(random_emb, s))
        t.check(abs(scaled.distortion - base.distortion) <= 1e-9 * base.distortion)
    normalized = normalize_lipschitz(graph, random_emb)
    rep1 = distortion(graph, normalized)
    t.check(abs(rep1.expansion - 1.0) <= 1e-12)
    t.check(abs(rep1.distortion - base.distortion) <= 1e-9 * base.distortion)
    again = normalize_lipschitz(graph, normalized)
    t.check(float(np.abs(again.matrix - normalized.matrix).max()) <= 1e-12)
    return t


def _suite_bound_values(flip: bool) -> _Tally:
    t = _Tally()
    check_bound_values(t)
    return t


def _suite_end_to_end(flip: bool) -> _Tally:
    t = _Tally()
    graph = _graph(2, 2, flip)
    for d in (2, 4):
        for seed in range(2):
            cfg = SearchConfig(target_dimension=d, iterations=400, restarts=2, seed=seed)
            check_end_to_end(t, graph, cfg)
    t.check(certify(graph, identity_embedding(graph)).consistent)
    return t


SUITES = {
    "construction": _suite_construction,
    "identity_equality": _suite_identity_constraints,
    "averaging": _suite_averaging,
    "lift": _suite_lift,
    "fano": _suite_fano,
    "inner_claim": _suite_inner_claim,
    "lemma": _suite_lemma,
    "chain_per_level": _suite_chain_per_level,
    "distortion": _suite_distortion,
    "bound_values": _suite_bound_values,
    "end_to_end": _suite_end_to_end,
}


def run_selftest(
    suites: "list[str] | None" = None, *, flip_bottom: bool = False
) -> list[tuple[str, int, int]]:
    """Run the named suites (all by default); returns (name, passed, failed) rows."""
    names = list(SUITES) if not suites else list(suites)
    unknown = [s for s in names if s not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}; available: {sorted(SUITES)}")
    results = []
    for name in names:
        tally = SUITES[name](flip_bottom)
        results.append((name, tally.passed, tally.failed))
    return results
