"""Closed-form 2x2 decompositions: reconstruction, gauge, and edge cases."""

import math

import numpy as np
import pytest

from povmcascade import qmath
from povmcascade.qmath import (
    NotHermitian,
    NotPsd,
    aligning_unitary,
    as_matrix2,
    dagger,
    eig_hermitian2,
    hermitian_residuals,
    identity2,
    is_unitary,
    max_abs,
    phase_fixed,
    rotation,
    sqrt_psd,
    svd2,
)
from povmcascade.verify import random_rank_one_povm

I2 = np.eye(2, dtype=complex)


def random_complex_matrix(rng):
    return rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))


def random_hermitian(rng):
    g = random_complex_matrix(rng)
    return 0.5 * (g + dagger(g))


def random_unitary(rng):
    v, _, u = svd2(random_complex_matrix(rng))
    return v @ u


class TestSvd2:
    def test_identity(self):
        v, d, u = svd2(I2)
        np.testing.assert_allclose(d, [1.0, 1.0])
        assert max_abs(v @ np.diag(d) @ u - I2) < 1e-15

    def test_singular_values_of_scaled_projector(self):
        # diag(sqrt(2/3), 0) has singular values (sqrt(2/3), 0)
        m = math.sqrt(2.0 / 3.0) * np.diag([1.0, 0.0]).astype(complex)
        v, d, u = svd2(m)
        np.testing.assert_allclose(d, [math.sqrt(2.0 / 3.0), 0.0], atol=1e-15)
        assert max_abs(v @ np.diag(d) @ u - m) < 1e-15

    def test_random_reconstruction_and_unitarity(self):
        rng = np.random.default_rng(1234)
        for _ in range(1000):
            m = random_complex_matrix(rng)
            v, d, u = svd2(m)
            assert d[0] >= d[1] >= 0.0
            assert max_abs(v @ np.diag(d) @ u - m) <= 1e-12
            assert max_abs(dagger(v) @ v - I2) <= 1e-12
            assert max_abs(dagger(u) @ u - I2) <= 1e-12

    @pytest.mark.parametrize("small", [0.0, 1e-16, 1e-12, 1e-9, 1e-6])
    def test_near_rank_deficient_input(self, small):
        rng = np.random.default_rng(7)
        v0, d0, u0 = svd2(random_complex_matrix(rng))
        m = v0 @ np.diag([d0[0], small]) @ u0
        v, d, u = svd2(m)
        assert max_abs(v @ np.diag(d) @ u - m) <= 1e-12
        assert max_abs(dagger(v) @ v - I2) <= 1e-12
        assert d[1] == pytest.approx(small, abs=1e-13)

    def test_zero_matrix(self):
        v, d, u = svd2(np.zeros((2, 2)))
        np.testing.assert_allclose(d, [0.0, 0.0])
        assert is_unitary(v) and is_unitary(u)

    def test_deterministic(self):
        m = np.array([[1.0, 2.0j], [0.5, -1.0]])
        first = svd2(m)
        second = svd2(m)
        assert np.array_equal(first.v, second.v)
        assert np.array_equal(first.d, second.d)
        assert np.array_equal(first.u, second.u)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            svd2(np.array([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):
            svd2(np.array([[np.inf, 0.0], [0.0, 1.0]]))


class TestEigHermitian2:
    def test_diagonal_spectrum(self):
        lam, w = eig_hermitian2(np.diag([2.0 / 3.0, 0.0]))
        np.testing.assert_allclose(lam, [2.0 / 3.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(w, I2)

    def test_identity_degenerate(self):
        lam, w = eig_hermitian2(I2)
        np.testing.assert_allclose(lam, [1.0, 1.0])
        assert max_abs(dagger(w) @ w - I2) <= 1e-12
        assert max_abs(w @ np.diag(lam) @ dagger(w) - I2) <= 1e-12

    def test_random_reconstruction(self):
        rng = np.random.default_rng(99)
        for _ in range(500):
            h = random_hermitian(rng)
            lam, w = eig_hermitian2(h)
            assert lam[0] >= lam[1]
            assert max_abs(w @ np.diag(lam) @ dagger(w) - h) <= 1e-11
            assert max_abs(dagger(w) @ w - I2) <= 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            eig_hermitian2(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_eigenvalues_invariant_under_conjugation(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            h = random_hermitian(rng)
            w = random_unitary(rng)
            lam, _ = eig_hermitian2(h)
            conjugated = w @ h @ dagger(w)
            lam2, _ = eig_hermitian2(0.5 * (conjugated + dagger(conjugated)))
            np.testing.assert_allclose(lam, lam2, atol=1e-11)

    def test_ordered_swap_basis(self):
        # larger eigenvalue second on input -> swapped eigenvector columns
        lam, w = eig_hermitian2(np.diag([0.0, 1.0]))
        np.testing.assert_allclose(lam, [1.0, 0.0])
        np.testing.assert_allclose(np.abs(w), [[0.0, 1.0], [1.0, 0.0]])


class TestSqrtPsd:
    def test_scaled_projector(self):
        f = (2.0 / 3.0) * np.diag([1.0, 0.0]).astype(complex)
        root = sqrt_psd(f)
        np.testing.assert_allclose(root, math.sqrt(2.0 / 3.0) * np.diag([1.0, 0.0]), atol=1e-15)

    def test_zero(self):
        np.testing.assert_allclose(sqrt_psd(np.zeros((2, 2))), np.zeros((2, 2)))

    def test_random_psd_squares_back(self):
        rng = np.random.default_rng(2718)
        for _ in range(300):
            a = random_complex_matrix(rng)
            f = a @ dagger(a)
            root = sqrt_psd(f)
            herm_residual, min_eigenvalue = hermitian_residuals(root)
            assert herm_residual <= 1e-12
            assert herm_residual <= 1e-9 and min_eigenvalue >= -1e-9
            assert max_abs(root @ root - f) <= 1e-10

    def test_clamps_slightly_negative_eigenvalue(self):
        f = np.diag([1.0, -0.5e-9]).astype(complex)
        root = sqrt_psd(f)
        assert root[1, 1].real == 0.0

    def test_rank_one_element_gives_rank_one_root(self):
        # this element's second eigenvalue 2.2e-15 is round-off (11 eps relative);
        # its square root, 4.7e-8, would be a spurious tail of the root
        f = random_rank_one_povm(3, 58)[0]
        assert eig_hermitian2(f)[0][1] > 0.0
        _, d, _ = svd2(sqrt_psd(f))
        assert d[1] <= 1e-15 * d[0]

    def test_rejects_negative(self):
        with pytest.raises(NotPsd) as info:
            sqrt_psd(np.diag([1.0, -1.0]))
        assert info.value.min_eigenvalue == pytest.approx(-1.0)

    def test_singular_values_stay_in_unit_interval(self):
        # spectra inside [0, 1] give roots with singular values inside [0, 1]
        rng = np.random.default_rng(31)
        for _ in range(200):
            w = random_unitary(rng)
            lam = rng.uniform(0.0, 1.0, size=2)
            f = w @ np.diag(lam).astype(complex) @ dagger(w)
            _, d, _ = svd2(sqrt_psd(0.5 * (f + dagger(f))))
            assert d[0] <= 1.0 + 1e-12
            assert d[1] >= -1e-12


class TestGaugeAndHelpers:
    def test_phase_fixed_largest_entry_real_positive(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            fixed = phase_fixed(v)
            i = int(np.argmax(np.abs(fixed)))
            assert abs(fixed[i].imag) <= 1e-15
            assert fixed[i].real >= 0.0
            np.testing.assert_allclose(np.abs(fixed), np.abs(v), atol=1e-15)

    def test_unitary_columns_are_gauge_fixed(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            h = random_hermitian(rng)
            _, w = eig_hermitian2(h)
            for k in range(2):
                col = w[:, k]
                i = int(np.argmax(np.abs(col)))
                assert abs(col[i].imag) <= 1e-12
                assert col[i].real > 0.0

    def test_rotation_convention(self):
        r = rotation(0.3)
        np.testing.assert_allclose(r @ [1.0, 0.0], [math.cos(0.3), math.sin(0.3)])
        np.testing.assert_allclose(r @ [0.0, 1.0], [-math.sin(0.3), math.cos(0.3)])
        assert max_abs(dagger(r) @ r - I2) <= 1e-15

    def test_as_matrix2_shape_check(self):
        with pytest.raises(ValueError):
            as_matrix2([[1.0, 2.0, 3.0]])

    def test_aligning_unitary_recovers_left_factor(self):
        rng = np.random.default_rng(123)
        for _ in range(200):
            a = random_complex_matrix(rng)
            w0 = random_unitary(rng)
            w = aligning_unitary(w0 @ a, a)
            assert max_abs(w - w0) <= 1e-10

    def test_aligning_unitary_on_rank_deficient_source(self):
        rng = np.random.default_rng(321)
        for _ in range(100):
            v0, d0, u0 = svd2(random_complex_matrix(rng))
            a = v0 @ np.diag([d0[0], 0.0]) @ u0
            w0 = random_unitary(rng)
            w = aligning_unitary(w0 @ a, a)
            assert max_abs(dagger(w) @ w - I2) <= 1e-12
            assert max_abs(w @ a - w0 @ a) <= 1e-12

    def test_aligning_unitary_zero_source(self):
        np.testing.assert_allclose(aligning_unitary(np.zeros((2, 2)), np.zeros((2, 2))), I2)

    def test_identity2_is_fresh(self):
        first = identity2()
        first[0, 0] = 5.0
        assert identity2()[0, 0] == 1.0


BAD_INPUTS = {
    "nan": np.array([[np.nan, 0.0], [0.0, 1.0]]),
    "inf": np.array([[1.0, 0.0], [0.0, np.inf]]),
    "3x3": np.eye(3),
    "2-vector": np.array([1.0, 0.0]),
}


class TestPublicChecks:
    """Every public entry point checks its input, even though the private cores do not."""

    @pytest.mark.parametrize("bad", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
    @pytest.mark.parametrize(
        "call",
        [
            eig_hermitian2,
            sqrt_psd,
            svd2,
            hermitian_residuals,
            lambda m: aligning_unitary(m, I2),
            lambda m: aligning_unitary(I2, m),
        ],
        ids=["eig_hermitian2", "sqrt_psd", "svd2", "hermitian_residuals", "aligning_target", "aligning_source"],
    )
    def test_rejects_non_finite_and_wrong_shape(self, call, bad):
        with pytest.raises(ValueError):
            call(bad)

    def test_aligning_unitary_rejects_overflowing_product(self):
        # both factors are finite; their product is not
        big = np.full((2, 2), 1e200)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="non-finite"):
            aligning_unitary(big, big)

    def test_finite_tolerance_still_enforced(self):
        skew = np.array([[1.0, 0.1], [0.0, 1.0]])
        with pytest.raises(NotHermitian):
            eig_hermitian2(skew)
        with pytest.raises(NotHermitian):
            sqrt_psd(skew)
        with pytest.raises(NotPsd):
            sqrt_psd(np.diag([1.0, -1e-3]))


def bits(*arrays):
    return [np.asarray(a).dtype.str + np.ascontiguousarray(a).tobytes().hex() for a in arrays]


class TestPrivateStandIns:
    """The private stand-ins for numpy wrappers and the cores give the same bits."""

    def test_norm_matches_linalg_norm(self):
        rng = np.random.default_rng(2024)
        scales = 10.0 ** rng.uniform(-150, 150, size=(10_000, 1))
        vectors = scales * (rng.standard_normal((10_000, 2)) + 1j * rng.standard_normal((10_000, 2)))
        for v in vectors:
            v = v.copy()
            assert qmath._norm(v) == np.linalg.norm(v)
        assert qmath._norm(np.zeros(2, dtype=complex)) == 0.0

    def test_columns_and_diag_match_numpy(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            v1, v2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            stacked = qmath._columns(v1, v2)
            assert stacked.flags.c_contiguous
            assert bits(stacked) == bits(np.column_stack([v1, v2]))
            d = rng.standard_normal(2)
            assert bits(qmath._diag(d)) == bits(np.diag(d))

    def test_cores_match_public_functions(self):
        rng = np.random.default_rng(99)
        cases = [random_complex_matrix(rng) for _ in range(300)]
        cases += [np.zeros((2, 2), complex), I2.copy(), np.diag([0.5, 0.0]).astype(complex)]
        for m in cases:
            h = 0.5 * (m + dagger(m))
            assert bits(*qmath._eig(h)) == bits(*eig_hermitian2(h))
            assert bits(*qmath._svd(m)) == bits(*svd2(m))
            assert qmath._hermitian_residuals(m) == hermitian_residuals(m)
