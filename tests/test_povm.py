"""POVM validation and the analytic measurement oracle."""

import math

import numpy as np
import pytest

from povmcascade.povm import (
    IncompleteSum,
    NotUnitary,
    _check_residuals,
    density_from_pure,
    density_matrix,
    kraus_from_povm,
    outcome_probabilities,
    validate_kraus,
    validate_povm,
    validation_residuals,
)
from povmcascade.qmath import NotHermitian, NotPsd, dagger, max_abs, rotation
from povmcascade.verify import random_povm, random_pure_state

R3 = math.sqrt(3.0)
I2 = np.eye(2, dtype=complex)


def trine_elements():
    return [
        (2.0 / 3.0) * np.diag([1.0, 0.0]).astype(complex),
        (1.0 / 6.0) * np.array([[1.0, R3], [R3, 3.0]], dtype=complex),
        (1.0 / 6.0) * np.array([[1.0, -R3], [-R3, 3.0]], dtype=complex),
    ]


def trine_exit_unitaries():
    return [
        I2,
        0.5 * np.array([[1.0, -R3], [R3, 1.0]], dtype=complex),
        0.5 * np.array([[1.0, R3], [-R3, 1.0]], dtype=complex),
    ]


def brute_force_probability(m, rho):
    # independent oracle: explicit index sums for tr(M rho M^dag)
    total = 0.0j
    for r in range(2):
        for c in range(2):
            for k in range(2):
                total += m[r, c] * rho[c, k] * np.conj(m[r, k])
    return total.real


class TestValidatePovm:
    def test_trine_is_valid(self):
        povm = validate_povm(trine_elements())
        assert len(povm) == 3

    def test_orthogonal_projective_pair(self):
        povm = validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        assert len(povm) == 2

    def test_incomplete_sum_reports_residual(self):
        with pytest.raises(IncompleteSum) as info:
            validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 0.9])])
        assert info.value.residual == pytest.approx(0.1, abs=1e-12)

    def test_non_hermitian_element_indexed(self):
        bad = np.array([[0.5, 0.1], [0.0, 0.5]])
        with pytest.raises(NotHermitian) as info:
            validate_povm([bad, I2 - bad])
        assert info.value.index == 0

    def test_negative_element_indexed(self):
        with pytest.raises(NotPsd) as info:
            validate_povm([np.diag([1.0, -0.2]), np.diag([0.0, 1.2])])
        assert info.value.index == 0
        assert info.value.min_eigenvalue == pytest.approx(-0.2)

    def test_zero_element_is_accepted(self):
        povm = validate_povm([I2, np.zeros((2, 2))])
        assert max_abs(povm[1]) == 0.0

    def test_too_few_elements(self):
        with pytest.raises(ValueError):
            validate_povm([I2])

    @pytest.mark.parametrize("scale", [1e-310, 1e-320, 5e-324])
    def test_subnormal_element_has_finite_residuals(self, scale):
        # the eigen solver divides by max|entry|, which must not overflow when it is subnormal
        element = scale * np.diag([1.0, 0.0]).astype(complex)
        per_element, residual = validation_residuals([element, I2 - element])
        assert per_element[0] == (0.0, 0.0)
        assert residual == 0.0

    @pytest.mark.parametrize(
        "per_element, residual, error",
        [
            ([(math.nan, 0.0), (0.0, 0.0)], 0.0, NotHermitian),
            ([(0.0, 0.0), (0.0, math.nan)], 0.0, NotPsd),
            ([(0.0, 0.0), (0.0, 0.0)], math.nan, IncompleteSum),
        ],
    )
    def test_nan_residual_is_a_violation(self, per_element, residual, error):
        with pytest.raises(error):
            _check_residuals(per_element, residual)

    def test_residual_report(self):
        per_element, completeness = validation_residuals(trine_elements())
        assert all(h <= 1e-15 for h, _ in per_element)
        assert all(lo >= -1e-15 for _, lo in per_element)
        assert completeness <= 1e-15


class TestValidateKraus:
    def test_overflowing_operator_rejected(self):
        # |1e200 (1 + i)|^2 overflows, so the completeness residual is NaN
        huge = np.array([[1e200 + 1e200j, 0.0], [0.0, 0.0]])
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(IncompleteSum):
            validate_kraus([huge, I2])


class TestKrausFromPovm:
    def test_trine_with_published_exit_unitaries(self):
        povm = validate_povm(trine_elements())
        kraus = kraus_from_povm(povm, trine_exit_unitaries())
        for m, f in zip(kraus, povm):
            assert max_abs(dagger(m) @ m - f) <= 1e-12

    def test_scalar_pair(self):
        povm = validate_povm([0.5 * I2, 0.5 * I2])
        kraus = kraus_from_povm(povm)
        for m in kraus:
            np.testing.assert_allclose(m, I2 / math.sqrt(2.0), atol=1e-15)

    def test_random_sets_complete(self):
        for seed in range(20):
            povm = random_povm(4, seed)
            kraus = kraus_from_povm(povm)
            total = sum(dagger(m) @ m for m in kraus)
            assert max_abs(total - I2) <= 1e-9

    def test_rejects_non_unitary_gauge(self):
        povm = validate_povm([0.5 * I2, 0.5 * I2])
        with pytest.raises(NotUnitary) as info:
            kraus_from_povm(povm, [I2, 2.0 * I2])
        assert info.value.index == 1

    def test_rejects_wrong_gauge_count(self):
        povm = validate_povm([0.5 * I2, 0.5 * I2])
        with pytest.raises(ValueError):
            kraus_from_povm(povm, [I2])


class TestOutcomeProbabilities:
    def test_trine_on_horizontal(self):
        kraus = kraus_from_povm(validate_povm(trine_elements()), trine_exit_unitaries())
        rho = density_matrix(np.diag([1.0, 0.0]))
        records = outcome_probabilities(rho, kraus)
        probs = [r.probability for r in records]
        np.testing.assert_allclose(probs, [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0], atol=1e-12)
        assert [r.index for r in records] == [1, 2, 3]

    def test_uniform_povm_on_mixed_state(self):
        n = 4
        kraus = kraus_from_povm(validate_povm([I2 / n] * n))
        records = outcome_probabilities(density_matrix(I2 / 2.0), kraus)
        for r in records:
            assert r.probability == pytest.approx(1.0 / n, abs=1e-12)

    def test_matches_brute_force_trace(self):
        rng = np.random.default_rng(404)
        for seed in range(30):
            kraus = kraus_from_povm(random_povm(3, seed))
            psi = random_pure_state(rng)
            rho = density_from_pure(psi)
            records = outcome_probabilities(rho, kraus)
            for record, m in zip(records, kraus):
                assert record.probability == pytest.approx(
                    brute_force_probability(m, rho.rho), abs=1e-12
                )

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(11)
        for seed in range(20):
            kraus = kraus_from_povm(random_povm(5, seed))
            rho = density_from_pure(random_pure_state(rng))
            total = sum(r.probability for r in outcome_probabilities(rho, kraus))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_post_states_are_valid_density_matrices(self):
        rng = np.random.default_rng(21)
        kraus = kraus_from_povm(random_povm(3, 9))
        rho = density_from_pure(random_pure_state(rng))
        for record in outcome_probabilities(rho, kraus):
            if record.post_state is None:
                continue
            density_matrix(record.post_state.rho)  # revalidates all invariants

    def test_zero_probability_outcome_has_no_post_state(self):
        kraus = validate_kraus([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        records = outcome_probabilities(density_matrix(np.diag([1.0, 0.0])), kraus)
        assert records[1].probability == 0.0
        assert records[1].post_state is None

    def test_gauge_independence_of_probabilities(self):
        rng = np.random.default_rng(77)
        kraus = kraus_from_povm(random_povm(3, 5))
        rho = density_from_pure(random_pure_state(rng))
        base = [r.probability for r in outcome_probabilities(rho, kraus)]
        w = rotation(0.7) @ np.diag([1.0, np.exp(0.3j)])
        rotated = validate_kraus([w @ m for m in kraus])
        moved = [r.probability for r in outcome_probabilities(rho, rotated)]
        np.testing.assert_allclose(base, moved, atol=1e-10)

    def test_pure_state_probability_is_squared_norm(self):
        rng = np.random.default_rng(3)
        kraus = kraus_from_povm(random_povm(4, 2))
        for _ in range(50):
            psi = random_pure_state(rng)
            records = outcome_probabilities(density_from_pure(psi), kraus)
            for record, m in zip(records, kraus):
                expected = float(np.linalg.norm(m @ psi) ** 2)
                assert record.probability == pytest.approx(expected, abs=1e-10)


class TestDensityMatrix:
    def test_accepts_pure_projector(self):
        density_matrix(np.array([[0.5, 0.5], [0.5, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            density_matrix(np.diag([1.0, 1.0]))

    def test_rejects_negative(self):
        with pytest.raises(NotPsd):
            density_matrix(np.diag([1.5, -0.5]))

    def test_density_from_pure_normalizes(self):
        rho = density_from_pure([2.0, 0.0])
        np.testing.assert_allclose(rho.rho, np.diag([1.0, 0.0]))
        with pytest.raises(ValueError):
            density_from_pure([0.0, 0.0])
