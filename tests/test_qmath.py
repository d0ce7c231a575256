"""Closed-form 2x2 decompositions: reconstruction, gauge, and edge cases."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmcascade import qmath
from povmcascade.povm import kraus_from_povm, validation_residuals
from povmcascade.qmath import (
    NotHermitian,
    NotPsd,
    aligning_unitary,
    as_matrix2,
    dagger,
    eig_hermitian2,
    identity2,
    _phase_fixed,
    max_abs,
    rotation,
    sqrt_psd,
    svd2,
)
from povmcascade.verify import random_povm, random_rank_one_povm

I2 = np.eye(2, dtype=complex)
SUBNORMAL = 5e-324


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
        assert max_abs(dagger(v) @ v - I2) <= qmath.DEFAULT_TOL and max_abs(dagger(u) @ u - I2) <= qmath.DEFAULT_TOL

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
            herm_residual, min_eigenvalue = validation_residuals([root])[0][0]
            assert herm_residual <= 1e-12
            assert herm_residual <= 1e-9 and min_eigenvalue >= -1e-9
            assert max_abs(root @ root - f) <= 1e-10

    @pytest.mark.parametrize(
        "f", [1e308 * np.ones((2, 2)), 1.7e308 * np.array([[1, 1j], [-1j, 1]])], ids=["real", "complex"]
    )
    def test_eigenvalue_beyond_the_double_range_has_a_finite_root(self, f):
        # the top eigenvalue overflows to inf, but the root's entries fit
        root = sqrt_psd(f)
        assert np.isfinite(root).all()
        assert max_abs(root @ root - f) <= 1e-15 * max_abs(f)

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


# two-entry gauge cases: signed zeros and zero vectors, ties (the first entry wins), subnormals
PAIRS = [
(0j, 0j), (-0j, complex(0.0, -0.0)), (complex(-0.0, 0.0), -0j),  # zero vectors, signed
    (1 + 0j, 1j), (1j, -1 + 0j), (0.6 - 0.8j, -0.8 + 0.6j),  # ties: the first entry wins
    (-0j, 1 + 0j), (complex(0.0, -0.0), -1j), (1 + 0j, -0j), (-1 + 0j, complex(-0.0, 0.0)),  # one signed zero
    (SUBNORMAL + 0j, 0j), (complex(0.0, -SUBNORMAL), complex(3 * SUBNORMAL, 0.0)),  # subnormals
    (complex(SUBNORMAL, SUBNORMAL), complex(-SUBNORMAL, SUBNORMAL)),
    (0.3 + 0.4j, -0.2 + 0.9j), (-2 + 0j, 1 - 1j),
]


class TestGaugeAndHelpers:
    def test_phase_fixed_largest_entry_real_positive(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            fixed = np.array(_phase_fixed(*v.tolist())[0])
            i = int(np.argmax(np.abs(fixed)))
            assert abs(fixed[i].imag) <= 1e-15
            assert fixed[i].real >= 0.0
            np.testing.assert_allclose(np.abs(fixed), np.abs(v), atol=1e-15)

    def test_phase_fixed_leaves_the_zero_vector_zero(self):
        fixed, phase = _phase_fixed(0j, 0j)
        assert [type(x) for x in fixed] == [complex, complex]
        assert np.array(fixed).tobytes() == np.zeros(2, dtype=complex).tobytes()
        assert phase == 1 + 0j

    def test_phase_fixed_leaves_the_four_entry_zero_vector_as_it_is(self):
        # the arity of _qr's zero-pivot gauge: the vector itself comes back, signed zeros kept
        v = (0j, complex(-0.0, 0.0), complex(0.0, -0.0), -0j)
        fixed, phase = _phase_fixed(*v)
        assert repr(tuple(fixed)) == repr(v)
        assert [type(x) for x in fixed] == [complex] * 4
        assert phase == 1 + 0j and type(phase) is complex

    @pytest.mark.parametrize("v", PAIRS)
    def test_phase_fixed_pair_matches_the_list_form(self, v):
        fixed, phase = _phase_fixed(*v)
        expected, expected_phase = _reference_phase_fixed(*v)
        assert repr((tuple(fixed), phase)) == repr((tuple(expected), expected_phase))
        assert [type(x) for x in fixed] == [complex, complex]

    def test_phase_fixed_random_pairs_match_the_list_form(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            v = tuple((rng.standard_normal(2) + 1j * rng.standard_normal(2)).tolist())
            fixed, phase = _phase_fixed(*v)
            expected, expected_phase = _reference_phase_fixed(*v)
            assert repr((tuple(fixed), phase)) == repr((tuple(expected), expected_phase))

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

    def test_dagger_of_a_stack_is_each_matrix_dagger(self):
        rng = np.random.default_rng(9)
        stack = np.array([random_complex_matrix(rng) for _ in range(5)])
        daggers = dagger(stack)
        assert daggers.shape == (5, 2, 2)
        for m, m_dag in zip(stack, daggers):
            assert np.array_equal(m_dag, m.conj().T)
        assert np.array_equal(dagger(stack[0]), stack[0].conj().T)

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
            lambda m: validation_residuals([m]),
            lambda m: aligning_unitary(m, I2),
            lambda m: aligning_unitary(I2, m),
        ],
        ids=["eig_hermitian2", "sqrt_psd", "svd2", "validation_residuals", "aligning_target", "aligning_source"],
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


SCALES = (1.0, 1e-13, SUBNORMAL)
KINDS = ("random", "zero", "scalar", "rank_one", "degenerate")


def _at_scale(m, scale):
    # at the subnormal scale, Gaussian integers times 5e-324: exactly representable
    return np.round(m * 2.0**20) * SUBNORMAL if scale == SUBNORMAL else m * scale


def hermitian_case(kind, rng, scale):
    """A Hermitian 2x2 matrix: w diag(l0, l1) w^dag for the kind's spectrum."""
    w = random_unitary(rng)
    l0, l1 = rng.standard_normal(2)
    spectrum = {"random": (l0, l1), "zero": (0.0, 0.0), "scalar": (l0, l0), "rank_one": (l0, 0.0), "degenerate": (l0, l0)}[kind]
    h = np.diag(spectrum).astype(complex) if kind in ("zero", "scalar") else w @ np.diag(spectrum) @ dagger(w)
    h = _at_scale(0.5 * (h + dagger(h)), scale)
    return 0.5 * (h + dagger(h))


def general_case(kind, rng, scale, rows=2):
    """A rows x 2 matrix of the kind: random, zero, c * [I; 0], rank one, or c * isometry."""
    c = complex(*rng.standard_normal(2))
    gaussian = rng.standard_normal((rows, 2)) + 1j * rng.standard_normal((rows, 2))
    if kind == "random":
        m = gaussian
    elif kind == "zero":
        m = np.zeros((rows, 2), complex)
    elif kind == "scalar":
        m = c * np.eye(rows, 2, dtype=complex)
    elif kind == "rank_one":
        m = np.outer(gaussian[:, 0], gaussian[0].conj())
    else:
        m = c * np.linalg.qr(gaussian)[0]
    return _at_scale(m, scale)


def agree(x, y, scale):
    # to 1e-14 of the matrix scale; a result in the subnormal range is a
    # multiple of 5e-324, so there the two may differ by a few such steps
    return max_abs(np.asarray(x) - np.asarray(y)) <= 1e-14 * scale + 4 * SUBNORMAL


def unitary_to(q, bound=1e-14):
    return max_abs(dagger(q) @ q - np.eye(q.shape[1])) <= bound


class TestCores:
    """The public functions are thin wrappers: they return the cores' bits."""

    def test_cores_match_public_functions(self):
        rng = np.random.default_rng(99)
        cases = [random_complex_matrix(rng) for _ in range(300)]
        cases += [np.zeros((2, 2), complex), I2.copy(), np.diag([0.5, 0.0]).astype(complex)]
        for m in cases:
            h = 0.5 * (m + dagger(m))
            (a, b), (_, c) = h.tolist()
            high, low, w = qmath._eig(a.real, b, c.real)
            assert bits([high, low], w) == bits(*eig_hermitian2(h))
            v, d, u = qmath._svd(m.tolist())
            assert bits(v, d, u) == bits(*svd2(m))
            residual, _, low, _, _ = qmath._spectra(m[None])
            assert (residual[0], low[0]) == validation_residuals([m])[0][0]
            f = m @ dagger(m)
            assert bits(qmath._psd_roots(f[None])[0][0]) == bits(sqrt_psd(f))

    def test_stacked_spectra_match_scalar_eig(self):
        # the same closed form, evaluated stacked and in scalars
        rng = np.random.default_rng(3)
        stack = np.array([hermitian_case(kind, rng, scale) for kind in KINDS for scale in SCALES for _ in range(20)])
        residual, high, low, x, y = qmath._spectra(stack)
        assert not residual.any()
        for h, l0, l1, top in zip(stack, high, low, np.stack([x, y], axis=1)):
            (a, b), (_, c) = h.tolist()
            s0, s1, w = qmath._eig(a.real, b, c.real)
            scale = max_abs(h)
            assert abs(l0 - s0) <= 1e-15 * scale + SUBNORMAL and abs(l1 - s1) <= 1e-15 * scale + SUBNORMAL
            if s0 - s1 > 1e-6 * scale:
                assert abs(abs(np.vdot(np.array(w)[:, 0], top)) - 1.0) <= 1e-14


CASE = dict(seed=st.integers(0, 2**32 - 1), scale=st.sampled_from(SCALES))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kind=st.sampled_from(KINDS), **CASE)
def test_eig_matches_lapack(kind, seed, scale):
    h = hermitian_case(kind, np.random.default_rng(seed), scale)
    lam, w = eig_hermitian2(h)
    size = max_abs(h)
    assert agree(lam, np.linalg.eigvalsh(h)[::-1], size)
    assert unitary_to(w)
    assert agree(w @ np.diag(lam) @ dagger(w), h, size)
    _, high, low, x, y = qmath._spectra(h[None])
    assert agree([high[0], low[0]], lam, size)
    top = np.array([x[0], y[0]])
    assert agree(h @ top, high[0] * top, size)
    assert abs(np.linalg.norm(top) - 1.0) <= 1e-14


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kind=st.sampled_from(KINDS), **CASE)
def test_svd_and_root_match_lapack(kind, seed, scale):
    m = general_case(kind, np.random.default_rng(seed), scale)
    v, d, u = svd2(m)
    size = max_abs(m)
    assert agree(d, np.linalg.svd(m, compute_uv=False), size)
    assert unitary_to(v) and unitary_to(u)
    assert agree(v @ np.diag(d) @ u, m, size)
    f = m @ dagger(m)
    root = sqrt_psd(0.5 * (f + dagger(f)))
    assert agree(root @ root, f, max_abs(f))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(kind=st.sampled_from(KINDS), rows=st.sampled_from((2, 4)), **CASE)
def test_qr_matches_lapack(kind, rows, seed, scale):
    # the step takes 4 rows; a 2-row case is [m; 0], as the sweep's first stage
    m = general_case(kind, np.random.default_rng(seed), scale, rows)
    m4 = np.vstack([m, np.zeros((4 - rows, 2), complex)])
    top, bottom, r = qmath._qr(tuple(m4[:, 0].tolist()), tuple(m4[:, 1].tolist()))
    q, r = np.array(top + bottom), np.array(r)
    size = max_abs(m)
    assert unitary_to(q)
    assert agree(q @ r, m4, size)
    assert r[0, 0].imag == r[1, 1].imag == 0.0 and r[0, 0].real >= 0.0 and r[1, 1].real >= 0.0
    # LAPACK's R has a real diagonal; flipping its negative rows gives the same gauge
    lapack_r = np.linalg.qr(m)[1]
    assert agree(np.where(lapack_r.diagonal().real < 0, -1.0, 1.0)[:, None] * lapack_r, r, size)


# ----------------------------------------------------------------------
# a generic Householder QR, kept as the numerical reference for qmath._qr


def _reference_phase_fixed(*v):
    moduli = [abs(x) for x in v]
    top = max(moduli)
    if top == 0.0:
        return list(v), 1 + 0j
    i = moduli.index(top)
    phase = v[i].conjugate() / top
    fixed = [x * phase for x in v]
    fixed[i] = complex(top)
    return fixed, phase


def _reference_reflector(x):
    alpha = x[0]
    tail = math.hypot(*map(abs, x[1:]))
    if tail == 0.0 and alpha.imag == 0.0:
        return alpha.real, 0j, [1 + 0j] + [0j] * (len(x) - 1)
    norm = math.hypot(alpha.real, alpha.imag, tail)
    if norm < np.finfo(float).tiny:
        beta, tau, v = _reference_reflector([z * 2.0**60 for z in x])
        return beta / 2.0**60, tau, v
    beta = -math.copysign(norm, alpha.real)
    tau = complex((beta - alpha.real) / beta, -alpha.imag / beta)
    pivot = alpha - beta
    return beta, tau, [1 + 0j] + [z / pivot for z in x[1:]]


def _reference_reflect(tau, v, x):
    t = tau * sum([vk.conjugate() * xk for vk, xk in zip(v, x)])
    return [xk - t * vk for vk, xk in zip(v, x)]


def _reference_first_column(tau, v):
    column = [-tau * z for z in v]
    column[0] += 1.0
    return column


def _reference_qr(a, b):
    """(q0, q1, r) for two columns of any equal length."""
    beta0, tau0, v0 = _reference_reflector(a)
    b = _reference_reflect(tau0.conjugate(), v0, b)
    beta1, tau1, v1 = _reference_reflector(b[1:])
    q0 = _reference_first_column(tau0, v0)
    q1 = _reference_reflect(tau0, v0, [0j, *_reference_first_column(tau1, v1)])
    r00, r01, r11 = complex(beta0), b[0], complex(beta1)
    if beta0 < 0.0:
        q0, r00, r01 = [-z for z in q0], -r00, -r01
    elif beta0 == 0.0:
        q0, phase = _reference_phase_fixed(*q0)
        r01 *= phase.conjugate()
    if beta1 < 0.0:
        q1, r11 = [-z for z in q1], -r11
    elif beta1 == 0.0:
        q1, _ = _reference_phase_fixed(*q1)
    return q0, q1, ((r00, r01), (0j, r11))


def _power_of_two_unit(column):
    """The column times the power of two that brings its largest modulus into
    [0.5, 1), exactly."""
    top = max(abs(z) for z in column)
    e = math.frexp(top)[1]
    return [complex(math.ldexp(z.real, -e), math.ldexp(z.imag, -e)) for z in column]


def _assert_step(a, b):
    """qmath._qr's contract on one 4-row step: Q an isometry, [a b] = Q r,
    r upper triangular with a real diagonal >= 0, q0 and r as the reference
    QR's; q1 as the reference's where the second column is well inside full
    rank (the thin QR with a real positive diagonal is unique there), and
    gauge-fixed where r11 is set to 0."""
    a, b = tuple(a), tuple(b)
    top, bottom, r = qmath._qr(a, b)
    q, m = np.array(top + bottom), np.array([a, b]).T
    size = max_abs(m)
    assert unitary_to(q), (a, b)
    assert agree(q @ np.array(r), m, size), (a, b)
    (r00, _), (r10, r11) = r
    assert r10 == 0 and r00.imag == r11.imag == 0.0 and r00.real >= 0.0 and r11.real >= 0.0, (a, b)
    assert agree(r, _reference_qr(list(a), list(b))[2], size), (a, b)
    # Q from the columns brought to unit scale, exactly, where round-off cannot
    # lose the subnormal digits; R is unchanged but for the scale of its columns
    ref_q0, ref_q1, ref_r = _reference_qr(_power_of_two_unit(a), _power_of_two_unit(b))
    assert agree(q[:, 0], ref_q0, 1.0), (a, b)
    if ref_r[1][1].real > 1e-3:
        assert agree(q[:, 1], ref_q1, 1.0), (a, b)
    # r11 is 0 only by the gauge rule, unless b is subnormal and r11 underflows
    if r11 == 0 and max_abs(b) >= np.finfo(float).tiny:
        moduli = np.abs(q[:, 1])
        top_entry = q[int(np.argmax(moduli)), 1]
        assert top_entry.imag == 0.0 and top_entry.real > 0.0, (a, b)
    return top, bottom, r


def _assert_first_step(m):
    # [M_n; 0] through the 4-row step: Q stays in rows 0-1 and is M_n's own QR
    (m00, m01), (m10, m11) = m
    top, bottom, r = _assert_step((m00, m10, 0j, 0j), (m01, m11, 0j, 0j))
    assert bottom == ((0j, 0j), (0j, 0j)), m
    assert unitary_to(np.array(top)), m
    return r


SPECIAL = (0j, -0j, complex(0.0, -0.0), complex(-0.0, 0.0), 1 + 0j, -1 + 0j, 1j, -1j, complex(-0.0, 1.0),
           complex(1.0, -0.0), 0.5 - 2j, SUBNORMAL + 0j, complex(0.0, -SUBNORMAL), complex(-3 * SUBNORMAL, SUBNORMAL))


class TestQrStep:
    """qmath._qr is a thin QR of two 4-row columns: an isometry, a real
    non-negative diagonal, the Householder reference's factors to round-off,
    and a gauge-fixed second column wherever that column is dead."""

    @pytest.mark.parametrize("family", [random_povm, random_rank_one_povm])
    def test_sweeps_match_the_reference(self, family):
        for n in range(2, 41):
            ops = np.array(kraus_from_povm(family(n, n)).operators).tolist()
            r = _assert_first_step(ops[-1])
            for (m00, m01), (m10, m11) in reversed(ops[:-1]):
                (r00, r01), (_, r11) = r
                _, _, r = _assert_step((m00, m10, r00, 0j), (m01, m11, r01, r11))

    def test_exact_zero_columns(self):
        # [I, 0, 0]: the first stage and the next one see all-zero columns
        zero = ((0j, 0j), (0j, 0j))
        _assert_first_step(zero)
        top, bottom, r = _assert_step((0j,) * 4, (0j,) * 4)
        assert r == ((0j, 0j), (0j, 0j)) and top == ((1 + 0j, 0j), (0j, 1 + 0j)) and bottom == zero
        _assert_step((0j, 0j, 1 + 0j, 0j), (0j, 0j, 0j, 1 + 0j))
        # a zero first column with a live second one
        _assert_step((0j,) * 4, (0.3 - 0.2j, 0.1j, -0.5 + 0j, 0.25 + 0.5j))

    def test_exact_zero_second_pivot(self):
        # b in the span of a: nothing of b survives the projection
        for a, b in [((1 + 0j, 0j, 0j, 0j), (2 - 1j, 0j, 0j, 0j)),
                     ((0.6 + 0j, 0.8 + 0j, 0j, 0j), (0j, 0j, 0j, 0j)),
                     ((-2 + 0j, 0j, 0j, 0j), (1j, -0j, 0j, complex(-0.0, 0.0)))]:
            _, _, r = _assert_step(a, b)
            assert r[1][1] == 0j
        _assert_first_step(((1 + 0j, 2 - 1j), (0j, 0j)))

    def test_real_first_column_with_a_zero_tail(self):
        for a0 in (2 + 0j, -2 + 0j, complex(-0.0, 0.0), complex(0.0, -0.0), SUBNORMAL + 0j, -SUBNORMAL + 0j):
            for b in [(0.3 - 0.2j, 0.1j, -0.5 + 0j, 0.25 + 0.5j), (1 + 0j, -0j, 0j, 0j)]:
                _assert_step((a0, 0j, -0j, 0j), b)

    def test_subnormal_columns_take_the_lift(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            normal = rng.standard_normal((4, 2, 2))
            tiny = np.round(normal * 2.0**20) * SUBNORMAL
            normal, tiny = (g[..., 0] + 1j * g[..., 1] for g in (normal, tiny))
            # each column alone, then both, at the subnormal scale
            for m in (np.stack([tiny[:, 0], normal[:, 1]], 1), np.stack([normal[:, 0], tiny[:, 1]], 1), tiny):
                _assert_step(m[:, 0].tolist(), m[:, 1].tolist())
            _assert_first_step(tiny[:2].tolist())
        # a normal first column with a subnormal remainder
        _assert_step((1 + 0j, 0j, 0j, 0j), (0.5 + 0j, SUBNORMAL + 0j, complex(0.0, 2 * SUBNORMAL), 0j))

    def test_signed_zeros_and_special_entries(self):
        rng = np.random.default_rng(11)
        for _ in range(3000):
            a, b = (tuple(SPECIAL[k] for k in rng.integers(0, len(SPECIAL), 4)) for _ in range(2))
            _assert_step(a, b)
            _assert_first_step(((a[0], b[0]), (a[1], b[1])))

    def test_random_kinds_and_scales(self):
        rng = np.random.default_rng(2)
        for kind in KINDS:
            for scale in SCALES:
                for rows in (2, 4):
                    for _ in range(40):
                        m = general_case(kind, rng, scale, rows)
                        if rows == 2:
                            _assert_first_step(m.tolist())
                        else:
                            _assert_step(m[:, 0].tolist(), m[:, 1].tolist())

    def test_each_branch_of_the_step(self):
        e = [(1 + 0j, 0j, 0j, 0j), (0j, 1 + 0j, 0j, 0j)]
        live = (0.3 - 0.2j, 0.1j, -0.5 + 0j, 0.25 + 0.5j)
        # a live second column: r11 > 0
        assert _assert_step((0.6 + 0j, 0.8j, 0j, 0j), live)[2][1][1].real > 0.0
        # a zero first column: q0 = e_0
        top, bottom, r = _assert_step((0j,) * 4, live)
        assert r[0][0] == 0 and (top[0][0], top[1][0], bottom[0][0], bottom[1][0]) == (1, 0, 0, 0)
        # a subnormal first column is normalized through the lift
        top, bottom, r = _assert_step((3 * SUBNORMAL, 4j * SUBNORMAL, 0j, 0j), live)
        assert r[0][0] == 5 * SUBNORMAL and (top[0][0], top[1][0]) == (0.6, 0.8j)
        # a subnormal second column is projected through the lift
        _, _, r = _assert_step((0.6 + 0j, 0.8j, 0j, 0j), (4 * SUBNORMAL, 0j, 3j * SUBNORMAL, 0j))
        assert r[1][1] == 4 * SUBNORMAL
        # a dead second column: q1 is e_1 with q0 projected out ...
        top, bottom, r = _assert_step((0.8 + 0j, 0.6j, 0j, 0j), (1.6 + 0j, 1.2j, 0j, 0j))
        assert r[1][1] == 0 and max_abs(np.array(top)[:, 1] - [0.6j, 0.8]) <= 1e-15 and bottom == ((0j, 0j), (0j, 0j))
        top, bottom, r = _assert_step(e[0], (2 - 1j, 0j, 0j, 0j))
        assert (top[0][1], top[1][1], bottom[0][1], bottom[1][1]) == (0, 1, 0, 0)
        # ... or e_0 where q0 leans more on e_1
        top, bottom, r = _assert_step((0.6 + 0j, 0.8j, 0j, 0j), (1.2 + 0j, 1.6j, 0j, 0j))
        assert r[1][1] == 0 and max_abs(np.array(top)[:, 1] - [0.8, -0.6j]) <= 1e-15
        top, bottom, r = _assert_step(e[1], (0j, 2 - 1j, 0j, 0j))
        assert (top[0][1], top[1][1], bottom[0][1], bottom[1][1]) == (1, 0, 0, 0)

    def test_a_round_off_pivot_is_a_dead_column(self):
        # a rank-one M_n = u v^dag: what survives the projection is round-off,
        # which the reference keeps as its r11 and the step gauges away
        rng = np.random.default_rng(8)
        seen = 0
        for _ in range(200):
            u, v = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            m = np.outer(u, v.conj())
            r = _assert_first_step(m.tolist())
            assert r[1][1] == 0
            seen += _reference_qr(m[:, 0].tolist(), m[:, 1].tolist())[2][1][1] != 0
        assert seen > 100
