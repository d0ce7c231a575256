"""Verification harness: reports, random generators, and failure detection."""

import dataclasses

import numpy as np
import pytest

from povmcascade.demos import trine_povm
from povmcascade.optics import (
    ModeLabel,
    ModeUnitary,
    PhotonState,
    PolarizingBeamsplitter,
    build_cascade_network,
    propagate,
    transfer_matrices,
)
from povmcascade.povm import (
    density_from_pure,
    density_matrix,
    kraus_from_povm,
    validate_kraus,
    validate_povm,
)
from povmcascade.qmath import dagger, eig_hermitian2, max_abs, rotation
from povmcascade.synthesis import CascadePlan, ModuleSettings, synthesize_cascade
from povmcascade.verify import (
    _trial_states,
    random_povm,
    random_pure_state,
    random_rank_one_povm,
    verify_density,
    verify_plan,
)

I2 = np.eye(2, dtype=complex)

#: the checks computed on the network's operators, independent of the trial states
OPERATOR_CHECKS = ("f_roundtrip", "kraus_roundtrip", "dark_port", "norm")


def declare_first_exit_dark(network):
    # exit 1 carries light, so declaring it dark must show as leakage
    return dataclasses.replace(network, dark_ports=network.dark_ports + (network.exits[0],))


def attenuate_last_exit(network):
    # a 0.9 attenuator on the last exit loses light
    lossy = ModeUnitary(network.exits[-1], 0.9 * I2)
    return dataclasses.replace(network, elements=network.elements + (lossy,))


def split_last_exit_to_stray_mode(network):
    # the last exit's V light leaves for a fresh mode that is neither an exit
    # nor a dark port; nothing is lost
    last = network.exits[-1]
    split = PolarizingBeamsplitter(last, ModeLabel(99, "vac"), last, ModeLabel(99, "stray"))
    return dataclasses.replace(network, elements=network.elements + (split,))


class TestVerifyPlan:
    def test_trine_passes_all_checks(self):
        _, kraus, plan = trine_povm()
        report = verify_plan(kraus, plan, trial_states=100, seed=42)
        assert report.passed
        assert report.case_count == 100
        assert report.seed == 42
        assert report.check("f_roundtrip").max_residual <= 1e-8
        assert report.check("probability").max_residual <= 1e-9

    def test_wrong_exit_unitary_fails_only_gauge_sensitive_checks(self):
        _, kraus, plan = trine_povm()
        tampered = list(plan.modules)
        tampered[1] = ModuleSettings(
            theta=tampered[1].theta,
            phi=tampered[1].phi,
            zeta=tampered[1].zeta,
            xi=tampered[1].xi,
            pre_unitary=tampered[1].pre_unitary,
            exit_unitary=rotation(0.8) @ tampered[1].exit_unitary,
        )
        report = verify_plan(kraus, CascadePlan(tuple(tampered), plan.final_exit_unitary))
        assert not report.passed
        assert not report.check("kraus_roundtrip").passed
        assert not report.check("conditional_state").passed
        assert report.check("f_roundtrip").passed
        assert report.check("probability").passed
        assert report.check("dark_port").passed

    def test_shifted_theta_fails_probability_but_stays_lossless(self):
        # a mis-set rotator moves weight between exits: the photon-level
        # probability check must fire, while the network stays unitary
        _, kraus, plan = trine_povm()
        tampered = list(plan.modules)
        tampered[0] = dataclasses.replace(tampered[0], theta=tampered[0].theta + 0.05)
        report = verify_plan(kraus, CascadePlan(tuple(tampered), plan.final_exit_unitary))
        assert not report.check("probability").passed
        assert report.check("dark_port").passed
        assert report.check("norm").passed

    def test_projective_pair_is_exact(self):
        kraus = validate_kraus([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        report = verify_plan(kraus, synthesize_cascade(kraus), trial_states=50, seed=3)
        assert report.passed
        for check in report.checks:
            assert check.max_residual <= 1e-12

    def test_photon_residuals_match_per_state_propagation(self):
        # reference: every trial state propagated element by element, one at a
        # time; the mis-set plan makes probability and conditional_state large,
        # so agreement there is not agreement of round-off.  dark_port and norm
        # are read off the transfer map, mode by mode
        _, trine_kraus, trine_plan = trine_povm()
        mis_set = list(trine_plan.modules)
        mis_set[1] = dataclasses.replace(mis_set[1], theta=mis_set[1].theta + 0.05)
        plans = [(trine_kraus, trine_plan), (trine_kraus, CascadePlan(tuple(mis_set), trine_plan.final_exit_unitary))]
        for kraus in (kraus_from_povm(random_povm(5, 3)), kraus_from_povm(random_rank_one_povm(4, 2))):
            plans.append((kraus, synthesize_cascade(kraus)))
        for kraus, plan in plans:
            network = build_cascade_network(plan)
            transfer = transfer_matrices(network)
            total = sum(dagger(t) @ t for t in transfer.values())
            worst = {
                "probability": 0.0,
                "conditional_state": 0.0,
                "dark_port": max(max_abs(transfer[mode]) for mode in network.dark_ports),
                "norm": max_abs(total - I2),
            }
            rng = np.random.default_rng(11)
            for _ in range(20):
                psi = random_pure_state(rng)
                out = propagate(PhotonState.pure(network.input, psi), network)
                for mode, m in zip(network.exits, kraus):
                    vec, target = out.mode_vector(mode), m @ psi
                    p_sim, p_oracle = np.vdot(vec, vec).real, np.vdot(target, target).real
                    worst["probability"] = max(worst["probability"], abs(p_sim - p_oracle))
                    if min(p_sim, p_oracle) >= 1e-12:
                        overlap = abs(np.vdot(vec, target)) / np.sqrt(p_sim * p_oracle)
                        worst["conditional_state"] = max(worst["conditional_state"], 1.0 - min(overlap, 1.0))
            report = verify_plan(kraus, plan, trial_states=20, seed=11)
            for name, value in worst.items():
                assert abs(report.check(name).max_residual - value) <= 1e-14, name

    @pytest.mark.parametrize(
        "tamper, failing",
        [
            (declare_first_exit_dark, {"dark_port"}),
            (attenuate_last_exit, {"f_roundtrip", "kraus_roundtrip", "norm", "probability"}),
            (split_last_exit_to_stray_mode, {"conditional_state", "f_roundtrip", "kraus_roundtrip", "probability"}),
        ],
        ids=lambda value: value.__name__ if callable(value) else "+".join(sorted(value)),
    )
    def test_each_photon_check_can_fire(self, monkeypatch, tamper, failing):
        kraus = kraus_from_povm(random_povm(5, 3))
        plan = synthesize_cascade(kraus)
        monkeypatch.setattr("povmcascade.verify.build_cascade_network", lambda p: tamper(build_cascade_network(p)))
        report = verify_plan(kraus, plan, trial_states=20)
        assert {c.name for c in report.checks if not c.passed} == failing
        for name in failing:
            assert report.check(name).max_residual > 1e-2, name
        # the operator checks read the network, not the sampled states: a
        # single trial state of any seed gives the same residuals
        for seed in range(10):
            single = verify_plan(kraus, plan, trial_states=1, seed=seed)
            for name in OPERATOR_CHECKS:
                assert single.check(name).max_residual == report.check(name).max_residual, (name, seed)

    def test_rejects_fewer_than_one_trial_state(self):
        # zero trial states would make every photon-level check pass vacuously
        _, kraus, plan = trine_povm()
        for trials in (0, -5):
            with pytest.raises(ValueError, match="trial_states"):
                verify_plan(kraus, plan, trial_states=trials)

    def test_reports_are_deterministic(self):
        _, kraus, plan = trine_povm()
        first = verify_plan(kraus, plan, trial_states=25, seed=7)
        second = verify_plan(kraus, plan, trial_states=25, seed=7)
        assert first.to_dict() == second.to_dict()

    def test_near_rank_deficient_povm_passes(self):
        eps = 1e-4
        r = rotation(0.3)
        f1 = r @ np.diag([1.0 - eps, 0.5]) @ dagger(r)
        f2 = r @ np.diag([eps, 0.25]) @ dagger(r)
        kraus = kraus_from_povm(validate_povm([f1, f2, I2 - f1 - f2]))
        report = verify_plan(kraus, synthesize_cascade(kraus))
        assert report.check("kraus_roundtrip").passed
        assert report.passed

    def test_report_dict_schema(self):
        _, kraus, plan = trine_povm()
        payload = verify_plan(kraus, plan, trial_states=5, seed=1).to_dict()
        assert set(payload) == {"checks", "seed", "case_count"}
        assert [entry["name"] for entry in payload["checks"]] == [
            "f_roundtrip",
            "kraus_roundtrip",
            "probability",
            "conditional_state",
            "dark_port",
            "norm",
        ]
        for entry in payload["checks"]:
            assert set(entry) == {"name", "pass", "max_residual", "tolerance"}


class TestVerifyDensity:
    def test_maximally_mixed_trine(self):
        _, kraus, plan = trine_povm()
        report = verify_density(density_matrix(I2 / 2.0), kraus, plan)
        assert report.passed
        assert report.case_count == 2
        # cross-check the analytic weights directly: tr(F_i)/2 = 1/3 each
        network = build_cascade_network(plan)
        lam, basis = eig_hermitian2(I2 / 2.0)
        probs = np.zeros(3)
        for k, weight in enumerate(lam):
            out = propagate(PhotonState.pure(network.input, basis[:, k]), network)
            for i, mode in enumerate(network.exits):
                vec = out.mode_vector(mode)
                probs[i] += weight * float(np.vdot(vec, vec).real)
        np.testing.assert_allclose(probs, [1.0 / 3.0] * 3, atol=1e-12)

    def test_pure_state_agrees_with_pure_path(self):
        rng = np.random.default_rng(40)
        _, kraus, plan = trine_povm()
        psi = random_pure_state(rng)
        dense = verify_density(density_from_pure(psi), kraus, plan)
        assert dense.passed
        assert dense.case_count == 1
        pure = verify_plan(kraus, plan, trial_states=50, seed=40)
        assert abs(
            dense.check("probability").max_residual - pure.check("probability").max_residual
        ) <= 1e-10

    def test_random_full_rank_states(self):
        rng = np.random.default_rng(41)
        kraus = kraus_from_povm(random_povm(4, 19))
        plan = synthesize_cascade(kraus)
        for _ in range(10):
            w = rng.uniform(0.1, 0.9)
            psi, chi = random_pure_state(rng), random_pure_state(rng)
            rho = w * np.outer(psi, psi.conj()) + (1 - w) * np.outer(chi, chi.conj())
            report = verify_density(density_matrix(0.5 * (rho + dagger(rho))), kraus, plan)
            assert report.passed
            assert report.check("probability").max_residual <= 1e-9
            assert report.check("post_state").max_residual <= 1e-9


class TestTrialStates:
    def test_batch_matches_successive_draws(self):
        for count in (1, 2, 7, 100):
            batch = _trial_states(np.random.default_rng(count), count)
            rng = np.random.default_rng(count)
            successive = np.array([random_pure_state(rng) for _ in range(count)]).T
            assert batch.shape == (2, count)
            assert max_abs(batch - successive) <= 1e-15

    def test_one_draw_uses_four_normals(self):
        rng, normals = np.random.default_rng(5), np.random.default_rng(5)
        psi = random_pure_state(rng)
        re, im = normals.standard_normal(2), normals.standard_normal(2)
        assert max_abs(psi - (re + 1j * im) / np.linalg.norm(re + 1j * im)) <= 1e-15
        # both streams are now four normals in
        assert rng.standard_normal() == normals.standard_normal()


class TestRandomPovm:
    def test_pair_sums_exactly(self):
        for seed in range(10):
            povm = random_povm(2, seed)
            total = povm[0] + povm[1]
            assert max_abs(total - I2) <= 1e-12

    def test_seed_seven_four_outcomes_valid(self):
        povm = random_povm(4, 7)
        assert len(povm) == 4  # construction already passed validate_povm

    def test_deterministic_under_seed(self):
        first = random_povm(3, 123)
        second = random_povm(3, 123)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)

    def test_rejects_single_outcome(self):
        with pytest.raises(ValueError):
            random_povm(1, 0)

    def test_pipeline_over_many_seeds(self):
        for seed in range(15):
            kraus = kraus_from_povm(random_povm(6, seed))
            report = verify_plan(kraus, synthesize_cascade(kraus), trial_states=10, seed=seed)
            assert report.passed, [c.name for c in report.checks if not c.passed]


class TestRandomRankOnePovm:
    def test_elements_are_rank_one(self):
        for seed in range(10):
            povm = random_rank_one_povm(3, seed)
            for f in povm:
                lam, _ = eig_hermitian2(f)
                assert lam[1] <= 1e-10

    def test_deterministic_under_seed(self):
        first = random_rank_one_povm(4, 5)
        second = random_rank_one_povm(4, 5)
        for a, b in zip(first, second):
            assert np.array_equal(a, b)
