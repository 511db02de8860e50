"""Built-in invariant suites behind the `selftest` CLI command.

Each proof check has one implementation here: a `check_*` function that
takes a checker `t` (anything with `check(ok)`) and one case, or a
`*_trial` function that also draws its case from a seeded generator. A
suite is a fixed case list over these functions, with its own seed, trial
count and vacuity floor, and reports pass/fail counts. The tests call the
same functions with their own case lists and a checker whose `check`
asserts, so each check has one owner. The identity-constraints suite is
the one that pins the edge orientation convention; running it with
flip_bottom=True demonstrates that a flipped convention is caught.
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
    lift_recover,
    nonneg_lift,
)
from .infotheory import (
    JointDistribution,
    ProbVector,
    binary_entropy,
    chain_rule_terms,
    fano_bound,
    mutual_information,
)
from .l1metric import (
    Embedding,
    distortion,
    identity_embedding,
    l1_interval_distance,
    normalize_lipschitz,
    scale_embedding,
)
from .oracle import (
    SearchConfig,
    brute_force_average,
    build_message_joint,
    lemma_check,
    max_claim_gap,
    search_embedding,
)
from .pointset import (
    GraphParams,
    PointSet,
    RecursiveCycleGraph,
    antipodal_pairs,
    build_graph,
    point_set,
    vertex_count,
)


class _Tally:
    def __init__(self) -> None:
        self.passed = 0
        self.failed = 0

    def check(self, ok: bool) -> None:
        if ok:
            self.passed += 1
        else:
            self.failed += 1


def check_construction(t, ps: PointSet) -> None:
    """Vertex and edge counts, distinct labels, unit edges and antipodal distances."""
    graph, labels = ps.graph, ps.labels
    params = graph.params
    t.check(len(graph.vertices) == vertex_count(params))
    t.check(len(graph.edges) == params.cycle_length**params.n)
    t.check(len({label.intervals for label in labels}) == len(graph.vertices))
    tails, heads = graph.level_edges[-1]
    t.check(
        all(
            l1_interval_distance(labels[tail], labels[head]) == 1
            for tail, head in zip(tails.tolist(), heads.tolist())
        )
    )
    row = {name: i for i, name in enumerate(graph.vertex_names)}
    for level in range(1, params.n + 1):
        pairs = [(row[str(a)], row[str(b)]) for a, b in antipodal_pairs(graph, level)]
        t.check(len(pairs) == params.k * params.cycle_length ** (level - 1))
        want = params.k ** (params.n - level + 1)
        t.check(all(l1_interval_distance(labels[a], labels[b]) == want for a, b in pairs))


def check_identity_constraints(t, ps: PointSet) -> None:
    """The identity embedding makes every (level, prefix, r) constraint exactly 1."""
    k, n = ps.params.k, ps.params.n
    report = constraint_report(ps.graph, identity_embedding(ps))
    expected = sum((2 * k) ** (level - 1) * (k - 1) for level in range(1, n + 1))
    t.check(len(report.entries) == expected)
    t.check(all(abs(e.lhs - 1.0) <= 1e-12 for e in report.entries))


def check_averaging(t, graph: RecursiveCycleGraph, emb: Embedding) -> None:
    """The closed-form prefix average equals brute-force completion on every prefix."""
    k, n = graph.params.k, graph.params.n
    for length in range(n + 1):
        for prefix in itertools.product(range(1, 2 * k + 1), repeat=length):
            closed = average_edge_vector(graph, emb, prefix)
            brute = brute_force_average(graph, emb, prefix)
            t.check(float(np.abs(closed - brute).max()) <= 1e-12)


def check_lift(t, vec: np.ndarray, y: np.ndarray) -> ProbVector:
    """vec (L1 norm <= 1) lifts to a distribution and back exactly; lift_recover
    never grows the norm of any y. Returns the lift."""
    lifted = nonneg_lift(vec)
    t.check(abs(lifted.weights.sum() - 1.0) <= 1e-9)
    t.check(np.array_equal(lift_recover(lifted.weights), vec))
    t.check(np.abs(lift_recover(y)).sum() <= np.abs(y).sum() + 1e-12)
    return lifted


def fano_trial(t, rng: np.random.Generator, trial: int) -> bool:
    """Draw k rows over an alphabet m, mixing near-deterministic and diffuse
    rows, and check I(X:Y) >= fano_bound for X uniform on the rows.

    Returns whether the argmax predictor's success reached 1/2, the only
    case the bound covers and the only one checked.
    """
    k = 2 + trial % 5
    m = int(rng.integers(2, 9))
    rows = rng.exponential(size=(k, m))
    rows /= rows.sum(axis=1, keepdims=True)
    if rng.uniform() < 0.5:
        sharp = np.zeros((k, m))
        for a in range(k):
            sharp[a, int(rng.integers(m))] = 1.0
        lam = rng.uniform(0.0, 0.6)
        rows = (1 - lam) * sharp + lam * rows
    success = float(rows.max(axis=0).sum()) / k
    if success < 0.5:
        return False
    joint = JointDistribution((k, m), rows / k)
    t.check(mutual_information(joint, 0, 1) >= fano_bound(k, success) - 1e-9)
    return True


def check_inner_claim(t, values, exact: bool = False) -> tuple[float, float]:
    """max_claim_gap's lhs <= rhs, or lhs == rhs where `exact` (dyadic
    pairs, on which every float op is exact). Returns (lhs, rhs)."""
    lhs, rhs = max_claim_gap(values)
    t.check(lhs == rhs if exact else lhs <= rhs + 1e-12)
    return lhs, rhs


def lemma_trial(t, rng: np.random.Generator, trial: int) -> bool:
    """Draw 2k rows over an alphabet d, in most trials pulled toward one
    point per opposite pair (a, a+k), and check lemma_check's bound and
    its data-processing inequality.

    Returns whether the bound applied (delta < 1/2).
    """
    k = 2 + trial % 4
    d = int(rng.integers(k, 9))
    rows = rng.exponential(size=(2 * k, d))
    rows /= rows.sum(axis=1, keepdims=True)
    if rng.uniform() < 0.7:
        targets = rng.permutation(d)[:k]
        sharp = np.zeros((2 * k, d))
        for a in range(k):
            sharp[a, targets[a]] = 1.0
            sharp[a + k, targets[a]] = 1.0
        lam = rng.uniform(0.0, 0.5)
        rows = (1 - lam) * sharp + lam * rows
    report = lemma_check(rows)
    t.check(report.holds)
    t.check(report.mi_exact >= report.mi_folded - 1e-9)
    return report.applicable


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


def check_end_to_end(t, ps: PointSet, cfg: SearchConfig) -> Embedding:
    """The embedding search_embedding finds certifies as consistent. Returns it."""
    emb = search_embedding(ps, cfg).embedding
    t.check(certify(ps, emb).consistent)
    return emb


def _point_set(k: int, n: int, flip: bool) -> PointSet:
    return point_set(build_graph(GraphParams(k, n), flip_bottom=flip))


def _suite_construction(flip: bool) -> _Tally:
    t = _Tally()
    for k in (2, 3, 4):
        for n in (1, 2, 3):
            check_construction(t, _point_set(k, n, flip))
    return t


def _suite_identity_constraints(flip: bool) -> _Tally:
    t = _Tally()
    for k in (2, 3):
        for n in (1, 2, 3):
            check_identity_constraints(t, _point_set(k, n, flip))
    return t


def _suite_averaging(flip: bool) -> _Tally:
    t = _Tally()
    for k, n in ((2, 3), (3, 2)):
        ps = _point_set(k, n, flip)
        check_averaging(t, ps.graph, identity_embedding(ps))
    return t


def _suite_lift(flip: bool) -> _Tally:
    t = _Tally()
    rng = np.random.default_rng(7)
    for _ in range(2000):
        d = int(rng.integers(1, 9))
        vec = rng.uniform(-1.0, 1.0, size=d)
        norm = np.abs(vec).sum()
        if norm > 1.0:
            vec = vec / (norm * rng.uniform(1.0, 3.0))
        check_lift(t, vec, rng.uniform(0.0, 1.0, size=2 * d + 1))
    return t


def _suite_fano(flip: bool) -> _Tally:
    t = _Tally()
    rng = np.random.default_rng(11)
    checked = sum(fano_trial(t, rng, trial) for trial in range(400))
    t.check(checked >= 100)
    return t


def _suite_inner_claim(flip: bool) -> _Tally:
    t = _Tally()
    rng = np.random.default_rng(13)
    for trial in range(3000):
        check_inner_claim(t, rng.uniform(0.0, 4.0, size=2 + trial % 7))
    for _ in range(500):
        check_inner_claim(t, rng.integers(0, 2**20, size=2) / 2.0**20, exact=True)
    return t


def _suite_lemma(flip: bool) -> _Tally:
    t = _Tally()
    rng = np.random.default_rng(17)
    applicable = sum(lemma_trial(t, rng, trial) for trial in range(400))
    t.check(applicable >= 50)
    return t


def _suite_chain_per_level(flip: bool) -> _Tally:
    t = _Tally()
    for n in (1, 2):
        ps = _point_set(2, n, flip)
        check_chain_per_level(t, ps.graph, identity_embedding(ps))
    return t


def _suite_distortion(flip: bool) -> _Tally:
    t = _Tally()
    rng = np.random.default_rng(19)
    ps = _point_set(2, 2, flip)
    ident = identity_embedding(ps)
    rep = distortion(ps, ident)
    t.check(rep.expansion == 1.0 and rep.contraction == 1.0 and rep.distortion == 1.0)
    random_emb = Embedding(rng.standard_normal((len(ps), 3)), ps.graph)
    base = distortion(ps, random_emb)
    for s in (0.1, 3.0, 42.0):
        scaled = distortion(ps, scale_embedding(random_emb, s))
        t.check(abs(scaled.distortion - base.distortion) <= 1e-9 * base.distortion)
    normalized = normalize_lipschitz(ps, random_emb)
    rep1 = distortion(ps, normalized)
    t.check(abs(rep1.expansion - 1.0) <= 1e-12)
    t.check(abs(rep1.distortion - base.distortion) <= 1e-9 * base.distortion)
    again = normalize_lipschitz(ps, normalized)
    t.check(float(np.abs(again.matrix - normalized.matrix).max()) <= 1e-12)
    return t


def _suite_bound_values(flip: bool) -> _Tally:
    t = _Tally()
    check_bound_values(t)
    return t


def _suite_end_to_end(flip: bool) -> _Tally:
    t = _Tally()
    ps = _point_set(2, 2, flip)
    for d in (2, 4):
        for seed in range(2):
            cfg = SearchConfig(target_dimension=d, iterations=400, restarts=2, seed=seed)
            check_end_to_end(t, ps, cfg)
    t.check(certify(ps, identity_embedding(ps)).consistent)
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
