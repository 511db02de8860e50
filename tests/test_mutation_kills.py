"""A kept mutation-kill matrix for the certifier's normalization and bound.

Each mutation patches one name in `certifier`'s namespace with
monkeypatch, so `certify` and `dimension_bound`, which look the name up
there when they run, call the mutated code. The checks below do the
same: they reach the certifier through its module, never through a name
imported from it. Every check is semantic (no golden file, no byte pin)
and passes unmutated; every mutation must fail at least one check. The
mutation x check matrix is printed (pytest -s shows it).
"""

from types import SimpleNamespace

import numpy as np
import pytest

from l1cert import certifier, selftest
from l1cert.l1metric import Embedding, distortion, identity_embedding


def scale_factor_times_1001(mp):
    real = certifier.scale_embedding
    mp.setattr(certifier, "scale_embedding", lambda emb, factor: real(emb, 1.001 * factor))


def lhs_times_one_plus_1e6(mp):
    real = certifier.constraint_report

    def inflated(graph, emb):
        lhs = real(graph, emb).lhs
        return certifier.ConstraintReport(tuple(values * (1 + 1e-6) for values in lhs))

    mp.setattr(certifier, "constraint_report", inflated)


def fano_term_times_101(mp):
    real = certifier.fano_term
    mp.setattr(certifier, "fano_term", lambda k, delta: 1.01 * real(k, delta))


def fano_term_of_delta_over_101(mp):
    real = certifier.fano_term
    mp.setattr(certifier, "fano_term", lambda k, delta: real(k, delta / 1.01))


MUTATIONS = {
    "scale_embedding gets 1.001 x its factor": scale_factor_times_1001,
    "every lhs x (1 + 1e-6)": lhs_times_one_plus_1e6,
    "fano_term returns 1.01 x its value": fano_term_times_101,
    "fano_term gets delta / 1.01": fano_term_of_delta_over_101,
}


def maps(pointsets):
    """(point set, d, map): the identity (d None) and seeded Gaussian maps, small sizes."""
    for k, n, d in [(2, 3, None), (3, 2, None), (2, 3, 4), (3, 2, 2)]:
        ps = pointsets(k, n)
        if d is None:
            yield ps, d, identity_embedding(ps)
        else:
            rows = np.random.default_rng([k, n, d]).standard_normal((len(ps), d))
            yield ps, d, Embedding(rows, ps)


def normalized_map_has_unit_edges_and_expansion(pointsets):
    """The map certify hands to constraint_report: every full-depth edge has
    L1 norm at most 1, the identity's largest is 1, and its expansion is 1."""
    for ps, d, emb in maps(pointsets):
        normalized = []
        report = certifier.constraint_report

        def capture(graph, emb):
            normalized.append(emb)
            return report(graph, emb)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(certifier, "constraint_report", capture)
            certifier.certify(ps, emb)
        [scaled] = normalized
        tails, heads = ps.level_edges[-1]
        largest = float(np.abs(scaled.matrix[heads] - scaled.matrix[tails]).sum(axis=1).max())
        if largest > 1.0 + 1e-12 or (d is None and abs(largest - 1.0) > 1e-12):
            return False
        if abs(distortion(ps, scaled).expansion - 1.0) > 1e-12:
            return False
    return True


def identity_lhs_values_are_one(pointsets):
    """Every normalized constraint value of the identity is 1 within 1e-12."""
    for k, n in [(2, 3), (3, 2), (3, 3)]:
        ps = pointsets(k, n)
        lhs = certifier.certify(ps, identity_embedding(ps)).constraints.lhs
        if any(np.abs(values - 1.0).max() > 1e-12 for values in lhs):
            return False
    return True


def identity_at_k2_needs_half_the_label_bits(pointsets):
    """The identity at k=2 has epsilon 0, so it certifies min_dimension 2**(n-1)."""
    for n in range(1, 6):
        ps = pointsets(2, n)
        if certifier.certify(ps, identity_embedding(ps)).bound.min_dimension != 2 ** (n - 1):
            return False
    return True


def selftest_bound_values_pass(pointsets):
    """selftest.check_bound_values: bounds against values computed independently."""
    outcomes = []
    selftest.check_bound_values(SimpleNamespace(check=outcomes.append))
    return bool(outcomes) and all(outcomes)


CHECKS = {
    "normalized map: unit edges and expansion": normalized_map_has_unit_edges_and_expansion,
    "identity lhs within 1e-12 of 1": identity_lhs_values_are_one,
    "identity at k=2: min_dimension 2**(n-1)": identity_at_k2_needs_half_the_label_bits,
    "selftest.check_bound_values": selftest_bound_values_pass,
}


@pytest.fixture(scope="module")
def matrix(pointsets):
    """{mutation: {check: passed}}, with None for the unmutated program; printed."""
    out = {}
    for name, mutate in [(None, None), *MUTATIONS.items()]:
        with pytest.MonkeyPatch.context() as mp:
            if mutate:
                mutate(mp)
            out[name] = {check: run(pointsets) for check, run in CHECKS.items()}
    width = max(map(len, MUTATIONS))
    print("\n" + " " * width + " | " + " | ".join(CHECKS))
    for name, row in out.items():
        cells = [("pass" if row[c] else "FAIL").center(len(c)) for c in CHECKS]
        print(f"{name or 'unmutated':<{width}} | " + " | ".join(cells))
    return out


def test_every_check_passes_unmutated(matrix):
    assert all(matrix[None].values()), matrix[None]


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_mutation_is_killed(matrix, mutation):
    assert not all(matrix[mutation].values()), f"{mutation!r} survives every check"
