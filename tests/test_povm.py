"""POVM validation and the analytic measurement oracle."""

import math
import warnings

import numpy as np
import pytest

from povmcascade import qmath
from povmcascade.povm import (
    IncompleteSum,
    KrausSet,
    NotUnitary,
    PovmSet,
    _check_residuals,
    density_matrix,
    kraus_from_povm,
    outcome_probabilities,
    validate_kraus,
    validate_povm,
    validation_residuals,
)
from povmcascade.qmath import NotHermitian, NotPsd, dagger, eig_hermitian2, max_abs, rotation, sqrt_psd
from povmcascade.synthesis import ModuleSettings, reconstruct_kraus, synthesize_cascade
from povmcascade.verify import random_povm, random_pure_state, random_rank_one_povm

R3 = math.sqrt(3.0)
I2 = np.eye(2, dtype=complex)


def pure_density(psi):
    return density_matrix(np.outer(psi, np.conj(psi)))


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

    def test_huge_hermitian_element_fails_completeness_not_positivity(self):
        # 1e308 * I is PSD; forming its Hermitian part as (m + m^dag) / 2 would
        # overflow to a NaN eigenvalue, so the only fault is the sum
        with pytest.raises(IncompleteSum) as info:
            validate_povm([1e308 * I2, I2])
        assert str(info.value) == "sum of elements deviates from identity by 1.000e+308"
        assert info.value.residual == 1e308
        per_element, _ = validation_residuals([1e308 * I2, I2])
        assert per_element == [(0.0, pytest.approx(1e308, rel=1e-15)), (0.0, 1.0)]

    @pytest.mark.parametrize(
        "elements, error, message",
        [
            ([1e308 * np.ones((2, 2)), I2], IncompleteSum, "sum of elements deviates from identity by 1.000e+308"),
            (
                [1.7e308 * np.array([[1, 1j], [-1j, 1]]), I2],
                IncompleteSum,
                "sum of elements deviates from identity by 1.700e+308",
            ),
            ([-1e308 * np.ones((2, 2)), I2], NotPsd, "element 1: minimum eigenvalue -inf"),
            ([1e308 * I2, 1e308 * I2], IncompleteSum, "sum of elements deviates from identity by inf"),
            # |b| = sqrt(2) * 1.7e308 and m - m^dag leave the double range; the
            # entries themselves do not
            ([1.7e308 * np.array([[1, 1 + 1j], [1 - 1j, 1]]), I2], NotPsd, "element 1: minimum eigenvalue -7.042e+307"),
            ([np.array([[1.7e308, 1.7e308], [-1.7e308, 1.7e308]]), I2], NotHermitian, "element 1: hermiticity residual inf"),
        ],
        ids=["projector", "complex-projector", "negative", "sum", "off-diagonal-modulus", "anti-hermitian"],
    )
    def test_element_beyond_the_double_range_is_rejected_without_warning(self, elements, error, message):
        # an eigenvalue or a sum beyond the double range is +-inf, never NaN,
        # and overflowing to it is not worth a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error) as info:
                validate_povm(elements)
        assert str(info.value) == message

    def test_off_diagonal_beyond_the_double_range_keeps_its_eigenvalues(self):
        # the eigenvalues 1.7e308 (1 +- sqrt(2)) are read off m / 4 and scaled back
        # by 4, exactly: the bottom one fits, the top one is inf
        element = 1.7e308 * np.array([[1, 1 + 1j], [1 - 1j, 1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            per_element, _ = validation_residuals([element, I2])
            quarter, _ = validation_residuals([element / 4, I2])
        assert per_element[0] == (0.0, 4.0 * quarter[0][1])
        assert per_element[0][1] == pytest.approx(1.7e308 * (1.0 - math.sqrt(2.0)), rel=1e-15)

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
    @pytest.mark.parametrize(
        "bad, error",
        [(np.array([[0.5, 0.1], [0.0, 0.5]]), NotHermitian), (np.diag([0.0, -0.2]), NotPsd)],
        ids=["NotHermitian", "NotPsd"],
    )
    def test_unvalidated_povm_names_its_bad_element(self, bad, error):
        # a PovmSet built directly, not through validate_povm, is checked when
        # it is built and fails like validate_povm would
        elements = (0.5 * I2, bad.astype(complex), 0.5 * I2 - bad)
        with pytest.raises(error) as info:
            PovmSet(elements)
        with pytest.raises(error) as expected:
            validate_povm(elements)
        assert type(info.value) is type(expected.value) is error
        assert info.value.index == 1
        assert str(info.value).startswith("element 2: ")
        assert str(info.value) == str(expected.value)
        assert vars(info.value) == vars(expected.value)

    @pytest.mark.parametrize(
        "elements, error, message",
        [
            ((I2,), ValueError, "a POVM needs at least 2 elements, got 1"),
            ((np.diag([1.0, 0.0]), np.diag([0.0, 0.9])), IncompleteSum, "sum of elements deviates from identity by 1.000e-01"),
        ],
        ids=["one-element", "incomplete"],
    )
    def test_povm_set_rejects_what_validate_povm_rejects(self, elements, error, message):
        with pytest.raises(error) as info:
            PovmSet(elements)
        assert type(info.value) is error
        assert str(info.value) == message
        if error is IncompleteSum:
            assert info.value.residual == pytest.approx(0.1, abs=1e-12)

    def test_one_spectral_pass_per_povm(self, monkeypatch):
        # validation takes every root; kraus_from_povm decomposes nothing again
        calls = []
        spectra = qmath._spectra

        def counted(m):
            calls.append(len(m))
            return spectra(m)

        monkeypatch.setattr(qmath, "_spectra", counted)
        for n in (3, 24):
            elements = list(random_povm(n, 1))
            calls.clear()
            povm = validate_povm(elements)
            assert calls == [n]
            kraus_from_povm(povm)
            kraus_from_povm(povm, [rotation(0.1 * i) for i in range(n)])
            assert calls == [n]

    @pytest.mark.parametrize("family", ["random", "rank_one", "near_deficient"])
    def test_kraus_is_the_root_of_each_element_bit_for_bit(self, family):
        for n in (2, 3, 7, 24, 80):
            for seed in range(4):
                if family == "random":
                    elements = list(random_povm(n, seed))
                elif family == "rank_one":
                    elements = list(random_rank_one_povm(n, seed))
                else:
                    # rank-one elements mixed with a tiny multiple of I/n, on
                    # both sides of qmath.RANK_FLOOR; the sum stays complete
                    eps = 10.0 ** -(6 + 3 * seed)
                    elements = [(1.0 - eps) * f + (eps / n) * I2 for f in random_rank_one_povm(n, seed)]
                kraus = kraus_from_povm(validate_povm(elements))
                for m, f in zip(kraus, elements):
                    root = sqrt_psd(f)
                    assert m.tobytes() == root.tobytes() and m.dtype == root.dtype

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
            rho = pure_density(psi)
            records = outcome_probabilities(rho, kraus)
            for record, m in zip(records, kraus):
                assert record.probability == pytest.approx(
                    brute_force_probability(m, rho.rho), abs=1e-12
                )
                # full-rank elements on a pure state: every outcome has a post state
                post = m @ rho.rho @ dagger(m) / record.probability
                assert max_abs(record.post_state.rho - post) <= 1e-12

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(11)
        for seed in range(20):
            kraus = kraus_from_povm(random_povm(5, seed))
            rho = pure_density(random_pure_state(rng))
            total = sum(r.probability for r in outcome_probabilities(rho, kraus))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_post_states_are_valid_density_matrices(self):
        rng = np.random.default_rng(21)
        kraus = kraus_from_povm(random_povm(3, 9))
        rho = pure_density(random_pure_state(rng))
        for record in outcome_probabilities(rho, kraus):
            if record.post_state is None:
                continue
            density_matrix(record.post_state.rho)  # revalidates all invariants
            assert np.array_equal(record.post_state.rho, dagger(record.post_state.rho))  # symmetrized exactly

    def test_zero_probability_outcome_has_no_post_state(self):
        kraus = validate_kraus([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        records = outcome_probabilities(density_matrix(np.diag([1.0, 0.0])), kraus)
        assert records[1].probability == 0.0
        assert records[1].post_state is None

    def test_gauge_independence_of_probabilities(self):
        rng = np.random.default_rng(77)
        kraus = kraus_from_povm(random_povm(3, 5))
        rho = pure_density(random_pure_state(rng))
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
            records = outcome_probabilities(pure_density(psi), kraus)
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

    def test_pure_state_outer_product(self):
        rho = pure_density([1.0, 0.0])
        np.testing.assert_allclose(rho.rho, np.diag([1.0, 0.0]))
        # the state is not normalized for the caller: trace 4 and trace 0 are rejected
        for psi in ([2.0, 0.0], [0.0, 0.0]):
            with pytest.raises(ValueError, match="trace"):
                pure_density(psi)


SKEW = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
NEGATIVE = np.diag([1.0, -1e-3]).astype(complex)
CHECKED = {
    "validate_povm": (lambda m: validate_povm([m, I2 - m]), "element 1", 0),
    "density_matrix": (density_matrix, "density matrix", None),
    "sqrt_psd": (sqrt_psd, "matrix", None),
    "eig_hermitian2": (eig_hermitian2, "matrix", None),
    "unvalidated_PovmSet": (lambda m: PovmSet((m, I2 - m)), "element 1", 0),
}


@pytest.mark.parametrize(
    "entry, matrix, error, message",
    [
        pytest.param(entry, matrix, error, message, id=f"{entry}-{error.__name__}")
        for entry in CHECKED
        for matrix, error, message in [
            (SKEW, NotHermitian, "hermiticity residual 1.000e-01"),
            (NEGATIVE, NotPsd, "minimum eigenvalue -1.000e-03"),
        ]
        if not (entry == "eig_hermitian2" and error is NotPsd)  # any Hermitian spectrum is accepted there
    ],
)
def test_one_checker_raises_every_violation(entry, matrix, error, message):
    call, name, index = CHECKED[entry]
    with pytest.raises(error) as info:
        call(matrix)
    assert type(info.value) is error
    assert str(info.value) == f"{name}: {message}"
    assert info.value.index == index
    if error is NotHermitian:
        assert info.value.residual == pytest.approx(0.1)
    else:
        assert info.value.min_eigenvalue == pytest.approx(-1e-3)


@pytest.mark.parametrize(
    "call, message, residual",
    [
        (lambda: validate_povm([np.diag([1.0, 0.0]), np.diag([0.0, 0.9])]), "sum of elements", 0.1),
        (lambda: _check_residuals([(0.0, 0.0), (0.0, 0.0)], math.nan), "sum of elements", math.nan),
        (lambda: validate_kraus([np.diag([1.0, 0.0]), np.diag([0.0, 0.9])]), "sum of M^dag M", 0.19),
        # |1e200 (1 + i)|^2 overflows, so the residual is NaN
        (lambda: validate_kraus([np.diag([1e200 + 1e200j, 0.0]), I2]), "sum of M^dag M", math.nan),
        (lambda: synthesize_cascade(KrausSet((np.diag([1.1, 0.0]) + 0j, np.diag([0.0, 1.0]) + 0j))), "sum of M^dag M", 0.21),
        (lambda: synthesize_cascade(KrausSet((np.array([[1, math.nan], [0, 0]]) + 0j, I2))), "sum of M^dag M", math.nan),
    ],
    ids=["validate_povm", "validate_povm-nan", "validate_kraus", "validate_kraus-nan", "synthesize_cascade", "synthesize_cascade-nan"],
)
def test_one_completeness_check_raises_every_incomplete_sum(call, message, residual):
    with np.errstate(invalid="ignore", over="ignore"), pytest.raises(IncompleteSum) as info:
        call()
    assert type(info.value) is IncompleteSum
    assert str(info.value) == f"{message} deviates from identity by {residual:.3e}"
    if math.isnan(residual):
        assert math.isnan(info.value.residual)
    else:
        assert info.value.residual == pytest.approx(residual, abs=1e-12)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: validate_povm([]), "a POVM needs at least 2 elements, got 0"),
        (lambda: validate_kraus([I2]), "a Kraus set needs at least 2 operators, got 1"),
    ],
    ids=["validate_povm-empty", "validate_kraus-one"],
)
def test_too_few_outcomes_are_counted_in_the_message(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: validate_povm([0.5 * I2, [["a", 0], [0, 0.5]]]), "element 2"),
        (lambda: validate_kraus([I2, [[0, "b"], [0, 0]]]), "operator 2"),
        (lambda: density_matrix("rho"), "density matrix"),
        (lambda: kraus_from_povm(validate_povm([0.5 * I2, 0.5 * I2]), [I2, "u"]), "exit unitary 2"),
        (lambda: ModuleSettings(0.1, 0.2, pre_unitary=[["a", 0], [0, 1]]), "pre_unitary"),
        (lambda: ModuleSettings(0.1, 0.2, pre_unitary={"a": 1}), "pre_unitary"),
        (lambda: sqrt_psd(object()), "matrix"),
    ],
    ids=["validate_povm", "validate_kraus", "density_matrix", "kraus_from_povm", "ModuleSettings", "ModuleSettings-dict", "sqrt_psd"],
)
def test_a_non_numeric_entry_is_a_value_error_that_names_the_matrix(call, name):
    # numpy's own conversion error (a ValueError or a TypeError) stays the cause
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert type(info.value.__cause__) in (ValueError, TypeError)
    assert str(info.value) == f"{name} has entries that are not numbers: {info.value.__cause__}"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: validate_povm([I2, [[1, 0]]]), "element 2 must be 2x2, got shape (1, 2)"),
        (lambda: validate_kraus([I2, [[1, 0]]]), "operator 2 must be 2x2, got shape (1, 2)"),
    ],
    ids=["validate_povm", "validate_kraus"],
)
def test_a_ragged_list_names_its_first_malformed_matrix(call, message):
    # numpy cannot stack the list at all, so each matrix is read on its own
    with pytest.raises(ValueError) as info:
        call()
    assert type(info.value) is ValueError
    assert str(info.value) == message


@pytest.mark.parametrize("make", [random_povm, random_rank_one_povm])
@pytest.mark.parametrize("n", [2, 3, 20])
def test_validated_sets_hold_the_one_stack_they_checked(make, n):
    povm = make(n, 4)
    kraus = kraus_from_povm(povm)
    rebuilt = reconstruct_kraus(synthesize_cascade(kraus))
    for stack in (povm.elements, kraus.operators, rebuilt.operators):
        assert type(stack) is np.ndarray
        assert stack.dtype == complex and stack.shape == (n, 2, 2)
    # an array handed in is read as it is: the set holds an equal copy, not the input
    given = np.array(povm.elements)
    again = validate_povm(given)
    assert again.elements is not given and again.elements.tobytes() == given.tobytes()
    assert validate_kraus(kraus.operators).operators.tobytes() == kraus.operators.tobytes()
