"""Entropy / mutual-information tests on explicit tables.

Core claims:
    - binary_entropy and entropy match hand values; 0 <= H(p) <= log2(m)
    - mutual_information matches the direct sum p log(p/(pq)) oracle,
      vanishes on products, and is never meaningfully negative
    - conditional MI handles independence, the parity example, and the
      I(X:X|Z) = H(X|Z) collapse
    - the data processing inequality holds under random deterministic maps
    - fano_bound is a true lower bound on measured MI for the argmax
      predictor whenever its success is at least 1/2
    - chain_rule_terms sum to the total mutual information
"""

import math

import numpy as np
import pytest

from l1cert.infotheory import (
    JointDistribution,
    ProbVector,
    binary_entropy,
    chain_rule_terms,
    conditional_mutual_information,
    entropy,
    fano_bound,
    mutual_information,
)
from l1cert.pointset import CapacityError
from l1cert.selftest import check_fano, draw_fano_cases, stack_by_shape


def random_joint(rng, sizes):
    table = rng.exponential(size=sizes)
    return JointDistribution(sizes, table / table.sum())


def mi_oracle(joint):
    """Direct definition of I over the first and second coordinate."""
    table = joint.table
    px = table.sum(axis=1)
    py = table.sum(axis=0)
    total = 0.0
    for i in range(table.shape[0]):
        for j in range(table.shape[1]):
            p = table[i, j]
            if p > 1e-12:
                total += p * math.log2(p / (px[i] * py[j]))
    return total


class TestBinaryEntropy:
    def test_values(self):
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.75) == pytest.approx(0.811278, abs=1e-6)

    def test_rejects_outside_unit_interval(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.1)
        with pytest.raises(ValueError):
            binary_entropy(1.1)


class TestEntropy:
    def test_values(self):
        assert entropy(ProbVector(np.full(8, 1 / 8))) == pytest.approx(3.0, abs=1e-12)
        assert entropy(ProbVector([0, 1, 0])) == 0.0
        assert entropy(ProbVector([0.5, 0.25, 0.25])) == pytest.approx(1.5, abs=1e-12)

    def test_bounded_by_log_alphabet(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            m = int(rng.integers(1, 12))
            w = rng.exponential(size=m)
            h = entropy(ProbVector(w / w.sum()))
            assert -1e-12 <= h <= math.log2(m) + 1e-9

    def test_rejects_bad_distribution(self):
        with pytest.raises(ValueError):
            ProbVector([0.5, 0.6])
        with pytest.raises(ValueError):
            ProbVector([1.2, -0.2])


class TestMutualInformation:
    def test_product_distribution_is_zero(self):
        rng = np.random.default_rng(29)
        px = rng.exponential(size=3)
        py = rng.exponential(size=4)
        table = np.outer(px / px.sum(), py / py.sum())
        joint = JointDistribution((3, 4), table)
        assert abs(mutual_information(joint, 0, 1)) <= 1e-9

    def test_copy_channel(self):
        for k in (2, 3, 5):
            table = np.eye(k) / k
            joint = JointDistribution((k, k), table)
            assert mutual_information(joint, 0, 1) == pytest.approx(math.log2(k), abs=1e-9)

    def test_binary_symmetric_channel(self):
        # Uniform input, crossover 0.25.
        table = np.array([[0.375, 0.125], [0.125, 0.375]])
        joint = JointDistribution((2, 2), table)
        assert mutual_information(joint, 0, 1) == pytest.approx(0.188722, abs=1e-6)

    def test_matches_direct_definition(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            joint = random_joint(rng, (int(rng.integers(2, 5)), int(rng.integers(2, 5))))
            assert mutual_information(joint, 0, 1) == pytest.approx(
                mi_oracle(joint), abs=1e-9
            )

    def test_never_meaningfully_negative(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            joint = random_joint(rng, (3, 3, 2))
            assert mutual_information(joint, 0, (1, 2)) >= -1e-9

    def test_rejects_overlapping_groups(self):
        joint = JointDistribution((2, 2), np.full((2, 2), 0.25))
        with pytest.raises(ValueError):
            mutual_information(joint, 0, 0)


class TestConditionalMutualInformation:
    def test_independent_conditioner_reduces_to_mi(self):
        rng = np.random.default_rng(41)
        base = random_joint(rng, (3, 3))
        pz = np.array([0.2, 0.8])
        table = base.table[:, :, None] * pz[None, None, :]
        joint = JointDistribution((3, 3, 2), table)
        assert conditional_mutual_information(joint, 0, 1, (2,)) == pytest.approx(
            mutual_information(base, 0, 1), abs=1e-9
        )

    def test_parity_example(self):
        # X, Y uniform bits, Z = X xor Y: I(X:Y)=0 but I(X:Y|Z)=1.
        table = np.zeros((2, 2, 2))
        for x in range(2):
            for y in range(2):
                table[x, y, x ^ y] = 0.25
        joint = JointDistribution((2, 2, 2), table)
        assert abs(mutual_information(joint, 0, 1)) <= 1e-9
        assert conditional_mutual_information(joint, 0, 1, (2,)) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_self_information_collapses_to_conditional_entropy(self):
        rng = np.random.default_rng(43)
        joint = random_joint(rng, (3, 4))
        h_x_given_z = joint.entropy_of((0, 1)) - joint.entropy_of(1)
        assert conditional_mutual_information(joint, 0, 0, (1,)) == pytest.approx(
            h_x_given_z, abs=1e-9
        )

    def test_rejects_overlap_with_conditioner(self):
        joint = JointDistribution((2, 2), np.full((2, 2), 0.25))
        with pytest.raises(ValueError):
            conditional_mutual_information(joint, 0, 1, (1,))


class TestDataProcessing:
    def test_function_of_y_cannot_gain_information(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            nx, ny = int(rng.integers(2, 5)), int(rng.integers(2, 6))
            joint = random_joint(rng, (nx, ny))
            mapping = rng.integers(0, int(rng.integers(1, ny + 1)), size=ny)
            m = mapping.max() + 1
            squashed = np.zeros((nx, m))
            for y in range(ny):
                squashed[:, mapping[y]] += joint.table[:, y]
            mapped = JointDistribution((nx, m), squashed)
            assert mutual_information(mapped, 0, 1) <= (
                mutual_information(joint, 0, 1) + 1e-9
            )


class TestFanoBound:
    def test_values(self):
        assert fano_bound(2, 1.0) == pytest.approx(1.0, abs=1e-12)
        assert fano_bound(2, 0.5) == pytest.approx(0.0, abs=1e-12)
        assert fano_bound(4, 0.75) == pytest.approx(0.792481, abs=1e-6)

    def test_rejects_low_success_and_bad_k(self):
        with pytest.raises(ValueError):
            fano_bound(2, 0.4)
        with pytest.raises(ValueError):
            fano_bound(1, 0.9)
        with pytest.raises(ValueError):
            fano_bound(3, 1.1)

    def test_lower_bounds_measured_information(self, checker):
        # X uniform on [k]; the argmax predictor's success p gives
        # I(X:Y) >= fano_bound(k, p) whenever p >= 1/2.
        rng = np.random.default_rng(53)
        stacks = stack_by_shape(draw_fano_cases(rng, 300))
        checked = sum(check_fano(checker, tables) for tables, in stacks)
        assert checked >= 80


class TestChainRule:
    def test_single_coordinate(self):
        rng = np.random.default_rng(59)
        joint = random_joint(rng, (3, 4))
        terms = chain_rule_terms(joint)
        assert len(terms) == 1
        assert terms[0] == pytest.approx(mutual_information(joint, 0, 1), abs=1e-12)

    def test_independent_message_gives_zero_terms(self):
        rng = np.random.default_rng(61)
        base = random_joint(rng, (2, 3))
        pm = np.array([0.3, 0.7])
        joint = JointDistribution((2, 3, 2), base.table[:, :, None] * pm[None, None, :])
        assert all(abs(t) <= 1e-9 for t in chain_rule_terms(joint))

    def test_terms_sum_to_total_information(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            ncoords = int(rng.integers(2, 5))
            sizes = tuple(int(rng.integers(2, 4)) for _ in range(ncoords))
            joint = random_joint(rng, sizes)
            total = mutual_information(joint, tuple(range(ncoords - 1)), ncoords - 1)
            assert sum(chain_rule_terms(joint)) == pytest.approx(total, abs=1e-9)

    def test_rejects_single_coordinate_joint(self):
        joint = JointDistribution((4,), np.full(4, 0.25))
        with pytest.raises(ValueError):
            chain_rule_terms(joint)


class TestJointDistribution:
    def test_rejects_negative_and_unnormalized(self):
        with pytest.raises(ValueError):
            JointDistribution((2, 2), np.array([[0.5, 0.6], [0.2, -0.3]]))
        with pytest.raises(ValueError):
            JointDistribution((2, 2), np.full((2, 2), 0.3))

    def test_capacity_cap(self):
        # The cell count is checked before the table is touched.
        with pytest.raises(CapacityError):
            JointDistribution((2,) * 25, np.zeros(1))
