"""Golden tests for the built-in trine and Ekert constructions."""

import itertools
import math

import numpy as np
import pytest

from povmcascade.demos import EkertParams, ekert_povm, trine_povm
from povmcascade.optics import PhotonState, build_cascade_network, exit_amplitudes, propagate
from povmcascade.povm import density_matrix, kraus_from_povm, outcome_probabilities
from povmcascade.qmath import dagger, eig_hermitian2, max_abs
from povmcascade.synthesis import DomainError, reconstruct_kraus, synthesize_cascade
from povmcascade.verify import verify_plan

R3 = math.sqrt(3.0)
I2 = np.eye(2, dtype=complex)
EPS = np.finfo(float).eps
EKERT_PAIRS = [(0.1, 0.9), (0.2, 0.7), (-0.4, 0.8), (1.0, 1.3), (0.0, math.pi / 4), (-1.0, -0.2), (2.0, 2.5)]


def ekert_closed_forms(alpha, beta):
    # the two conclusive operators, coded directly from their closed forms
    k = 1.0 / (1.0 + math.cos(beta - alpha))
    f1 = k * np.array(
        [
            [math.sin(alpha) ** 2, -math.sin(alpha) * math.cos(alpha)],
            [-math.sin(alpha) * math.cos(alpha), math.cos(alpha) ** 2],
        ],
        dtype=complex,
    )
    f2 = k * np.array(
        [
            [math.sin(beta) ** 2, -math.sin(beta) * math.cos(beta)],
            [-math.sin(beta) * math.cos(beta), math.cos(beta) ** 2],
        ],
        dtype=complex,
    )
    return f1, f2


class TestTrine:
    def test_elements_are_the_published_matrices(self):
        povm, _, _ = trine_povm()
        np.testing.assert_allclose(povm[0], (2.0 / 3.0) * np.diag([1.0, 0.0]), atol=1e-15)
        np.testing.assert_allclose(
            povm[1], (1.0 / 6.0) * np.array([[1.0, R3], [R3, 3.0]]), atol=1e-15
        )
        np.testing.assert_allclose(
            povm[2], (1.0 / 6.0) * np.array([[1.0, -R3], [-R3, 3.0]]), atol=1e-15
        )

    def test_plan_reconstructs_elements_exactly(self):
        povm, kraus, plan = trine_povm()
        rebuilt = reconstruct_kraus(plan)
        for produced, wanted, f in zip(rebuilt, kraus, povm):
            assert max_abs(dagger(produced) @ produced - f) <= 1e-12
            assert max_abs(produced - wanted) <= 1e-12

    def test_horizontal_input_statistics(self):
        _, kraus, _ = trine_povm()
        records = outcome_probabilities(density_matrix(np.diag([1.0, 0.0])), kraus)
        probs = [r.probability for r in records]
        np.testing.assert_allclose(probs, [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0], atol=1e-12)

    def test_output_polarizations_are_trine_spread(self):
        # conditional outputs for |H> sit 120 degrees apart on the Poincare sphere
        _, kraus, plan = trine_povm()
        network = build_cascade_network(plan)
        out = propagate(PhotonState.pure(network.input, [1.0, 0.0]), network)
        records = exit_amplitudes(out, network)
        for a, b in itertools.combinations(records, 2):
            overlap = abs(np.vdot(a.polarization, b.polarization))
            angle = 2.0 * math.acos(min(overlap, 1.0))
            assert angle == pytest.approx(2.0 * math.pi / 3.0, abs=1e-9)

    def test_plan_verifies(self):
        _, kraus, plan = trine_povm()
        assert verify_plan(kraus, plan, trial_states=100, seed=42).passed

    def test_synthesizer_agrees_at_operator_level(self):
        povm, kraus, _ = trine_povm()
        rebuilt = reconstruct_kraus(synthesize_cascade(kraus))
        for produced, f in zip(rebuilt, povm):
            assert max_abs(dagger(produced) @ produced - f) <= 1e-8


class TestEkert:
    def test_conclusive_operators_match_closed_forms(self):
        for alpha, beta in [(0.0, math.pi / 4), (0.1, 1.2), (-0.3, 0.6)]:
            povm, _ = ekert_povm(EkertParams(alpha, beta))
            f1, f2 = ekert_closed_forms(alpha, beta)
            assert max_abs(povm[0] - f1) <= 1e-12
            assert max_abs(povm[1] - f2) <= 1e-12
            assert max_abs(povm[0] + povm[1] + povm[2] - I2) <= 1e-12

    def test_plan_reconstructs_operators(self):
        povm, plan = ekert_povm(EkertParams(0.0, math.pi / 4))
        rebuilt = reconstruct_kraus(plan)
        for produced, f in zip(rebuilt, povm):
            assert max_abs(dagger(produced) @ produced - f) <= 1e-10

    def test_plan_verifies(self):
        povm, plan = ekert_povm(EkertParams(0.0, math.pi / 4))
        kraus = kraus_from_povm(povm)
        report = verify_plan(kraus, plan, trial_states=100, seed=42)
        assert report.passed, [c.name for c in report.checks if not c.passed]

    def test_conclusive_outcomes_exclude_their_state(self):
        alpha, beta = 0.2, 1.1
        povm, _ = ekert_povm(EkertParams(alpha, beta))
        ket_alpha = np.array([math.cos(alpha), math.sin(alpha)], dtype=complex)
        ket_beta = np.array([math.cos(beta), math.sin(beta)], dtype=complex)
        assert abs(np.vdot(ket_alpha, povm[0] @ ket_alpha)) <= 1e-12
        assert abs(np.vdot(ket_beta, povm[1] @ ket_beta)) <= 1e-12

    def test_inconclusive_operator_vanishes_at_right_angle_limit(self):
        povm, _ = ekert_povm(EkertParams(0.0, math.pi / 2 - 1e-6))
        assert max_abs(povm[2]) <= 1e-5

    def test_inconclusive_operator_positive_over_grid(self):
        for alpha in np.linspace(-1.0, 1.0, 5):
            for delta in np.linspace(0.05, math.pi / 2 - 0.05, 6):
                povm, _ = ekert_povm(EkertParams(float(alpha), float(alpha + delta)))
                lam, _ = eig_hermitian2(povm[2])
                assert lam[1] >= -1e-9

    def test_synthesizer_matches_hardcoded_settings_at_operator_level(self):
        povm, plan = ekert_povm(EkertParams(0.0, math.pi / 4))
        synthesized = synthesize_cascade(kraus_from_povm(povm))
        hand = reconstruct_kraus(plan)
        auto = reconstruct_kraus(synthesized)
        for a, b in zip(hand, auto):
            assert max_abs(dagger(a) @ a - dagger(b) @ b) <= 1e-8

    def test_domain_enforced(self):
        with pytest.raises(DomainError):
            EkertParams(0.0, math.pi / 2)
        with pytest.raises(DomainError):
            EkertParams(0.5, 0.5)
        with pytest.raises(DomainError):
            EkertParams(0.0, 2.5)


@pytest.mark.parametrize("case", ["trine", *EKERT_PAIRS], ids=["trine", *(f"ekert{pair}" for pair in EKERT_PAIRS)])
def test_synthesizer_gives_the_published_angles(case):
    # the worked examples held at the angle level, not only at the operators
    # the angles realize.  The trine's (theta, phi) come out as published.
    # Ekert's come out as the published (phi, theta): the CS split orders the
    # cosines in descending order, so the H and V roles trade places.
    if case == "trine":
        _, kraus, plan = trine_povm()
        published = [(math.acos(math.sqrt(2.0 / 3.0)), math.pi / 2), (0.0, math.pi / 2)]
        expected = published
    else:
        alpha, beta = case
        povm, plan = ekert_povm(EkertParams(alpha, beta))
        kraus = kraus_from_povm(povm)
        k = 1.0 / (1.0 + math.cos(beta - alpha))
        published = [(math.pi / 2, math.acos(math.sqrt(k))), (math.pi / 2, 0.0)]
        expected = [(phi, theta) for theta, phi in published]
    assert [(module.theta, module.phi) for module in plan.modules] == published
    synthesized = synthesize_cascade(kraus).modules
    assert len(synthesized) == len(expected)
    for module, (theta, phi) in zip(synthesized, expected):
        assert abs(module.theta - theta) <= EPS and abs(module.phi - phi) <= EPS
