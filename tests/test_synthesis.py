"""Cascade synthesis: settings extraction, round trips, and invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmcascade.demos import trine_povm
from povmcascade.povm import IncompleteSum, KrausSet, kraus_from_povm, validate_kraus, validate_povm
from povmcascade.qmath import DEFAULT_TOL, dagger, max_abs, rotation
from povmcascade.synthesis import (
    CascadePlan,
    DomainError,
    ModuleSettings,
    ekert_alpha_prime,
    reconstruct_kraus,
    synthesis_steps,
    synthesize_cascade,
)
from povmcascade.verify import random_povm, random_rank_one_povm, verify_plan

I2 = np.eye(2, dtype=complex)

# independently evaluated arccot(sqrt(1 + 1/cos(pi/4)) * cot(pi/4))
ALPHA_PRIME_QUARTER_PI = 0.5718588702012101


def random_kraus(n, seed):
    return kraus_from_povm(random_povm(n, seed))


class TestModuleSettings:
    def test_transfers_partition_unity_exactly(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            theta, phi = rng.uniform(0.0, math.pi / 2, size=2)
            zeta, xi = rng.uniform(-math.pi, math.pi, size=2)
            settings = ModuleSettings(theta=theta, phi=phi, zeta=zeta, xi=xi)
            d1, d2 = settings.exit_transfer(), settings.pass_transfer()
            gram = dagger(d1) @ d1 + dagger(d2) @ d2
            assert max_abs(gram - I2) <= 1e-15

    def test_angle_range_enforced(self):
        with pytest.raises(ValueError):
            ModuleSettings(theta=-0.2, phi=0.3)
        with pytest.raises(ValueError):
            ModuleSettings(theta=0.2, phi=math.pi)

    def test_unitarity_enforced(self):
        with pytest.raises(ValueError):
            ModuleSettings(theta=0.1, phi=0.2, pre_unitary=2.0 * I2)
        with pytest.raises(ValueError, match="exit_unitary"):
            ModuleSettings(theta=0.1, phi=0.2, exit_unitary=2.0 * I2)
        with pytest.raises(ValueError, match="final_exit_unitary"):
            CascadePlan((ModuleSettings(theta=0.1, phi=0.2),), 2.0 * I2)

    def test_plan_requires_modules(self):
        with pytest.raises(ValueError):
            CascadePlan((), I2)


class TestSynthesizeCascade:
    def test_projective_hv_pair(self):
        kraus = validate_kraus([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        plan = synthesize_cascade(kraus)
        assert plan.n == 2
        module = plan.modules[0]
        assert module.theta == pytest.approx(0.0, abs=1e-12)
        assert module.phi == pytest.approx(math.pi / 2, abs=1e-12)
        np.testing.assert_allclose(module.pre_unitary, I2, atol=1e-12)
        np.testing.assert_allclose(module.exit_unitary, I2, atol=1e-12)
        np.testing.assert_allclose(plan.final_exit_unitary, I2, atol=1e-12)

    def test_trine_settings_match_published_table(self):
        _, kraus, _ = trine_povm()
        plan = synthesize_cascade(kraus)
        first, second = plan.modules
        assert first.theta == pytest.approx(math.acos(math.sqrt(2.0 / 3.0)), abs=1e-12)
        assert first.phi == pytest.approx(math.pi / 2, abs=1e-12)
        np.testing.assert_allclose(first.pre_unitary, I2, atol=1e-12)
        assert second.theta == pytest.approx(0.0, abs=1e-12)
        assert second.phi == pytest.approx(math.pi / 2, abs=1e-12)
        # entrance rotation by pi/4, compared gauge-free at the operator level:
        # row phases of the eigenbasis are free, so compare U^dag D^2 U
        published = np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=complex) / math.sqrt(2.0)
        d_sq = second.exit_transfer() @ second.exit_transfer()
        lhs = dagger(second.pre_unitary) @ d_sq @ second.pre_unitary
        rhs = dagger(published) @ d_sq @ published
        assert max_abs(lhs - rhs) <= 1e-12

    def test_round_trip_recovers_operators_exactly(self):
        for n in range(2, 7):
            for seed in range(20):
                kraus = random_kraus(n, 100 * n + seed)
                plan = synthesize_cascade(kraus)
                rebuilt = reconstruct_kraus(plan)
                for produced, wanted in zip(rebuilt, kraus):
                    assert max_abs(produced - wanted) <= 1e-8
                    f_produced = dagger(produced) @ produced
                    f_wanted = dagger(wanted) @ wanted
                    assert max_abs(f_produced - f_wanted) <= 1e-8

    def test_exit_transfer_entries_stay_in_unit_interval(self):
        for seed in range(10):
            plan = synthesize_cascade(random_kraus(4, seed))
            for module in plan.modules:
                for value in (
                    math.cos(module.theta),
                    math.sin(module.theta),
                    math.cos(module.phi),
                    math.sin(module.phi),
                ):
                    assert -1e-15 <= value <= 1.0 + 1e-15

    def test_residual_prefix_tracks_remaining_operators(self):
        for n in (2, 4, 6):
            for seed in range(10):
                kraus = random_kraus(n, seed)
                elements = [dagger(m) @ m for m in kraus]
                steps = synthesis_steps(kraus)
                assert len(steps) == n - 1
                for j, step in enumerate(steps):
                    remaining = I2 - sum(elements[:j], start=np.zeros((2, 2), dtype=complex))
                    gram = dagger(step.residual_prefix) @ step.residual_prefix
                    assert max_abs(gram - remaining) <= 1e-9

    def test_effective_eigenvalues_recorded_in_unit_interval(self):
        steps = synthesis_steps(random_kraus(5, 8))
        for step in steps:
            lo, hi = min(step.eigenvalues), max(step.eigenvalues)
            assert lo >= 0.0 and hi <= 1.0

    def test_projective_input_gives_degenerate_transfer(self):
        for seed in range(20):
            n = 2 + seed % 3
            kraus = kraus_from_povm(random_rank_one_povm(n, seed))
            plan = synthesize_cascade(kraus)
            for module in plan.modules:
                assert min(math.cos(module.theta), math.cos(module.phi)) <= 1e-8

    @pytest.mark.parametrize("n, seed", [(3, 58), (2, 3)])
    def test_rank_one_povm_verifies_with_degenerate_transfer(self, n, seed):
        # elements here have round-off second eigenvalues whose square roots
        # (1.3e-8, 4.7e-8) would keep a plan from both verifying and closing its dark arm
        kraus = kraus_from_povm(random_rank_one_povm(n, seed))
        plan = synthesize_cascade(kraus)
        assert verify_plan(kraus, plan).passed
        for module in plan.modules:
            assert min(math.cos(module.theta), math.cos(module.phi)) <= 1e-8

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_sum_off_by_most_of_the_tolerance_compiles(self, sign):
        # validation lets sum F miss I by up to DEFAULT_TOL; the pre-unitaries
        # must still pass ModuleSettings' unitarity check
        elements = list(random_povm(4, 3))
        elements[0] = elements[0] + sign * 0.9 * DEFAULT_TOL * I2
        kraus = kraus_from_povm(validate_povm(elements))
        plan = synthesize_cascade(kraus)
        assert all(max_abs(dagger(m.pre_unitary) @ m.pre_unitary - I2) <= 1e-12 for m in plan.modules)
        assert verify_plan(kraus, plan).passed

    def test_zero_element_is_compiled_through(self):
        kraus = KrausSet((np.zeros((2, 2), dtype=complex), I2))
        plan = synthesize_cascade(kraus)
        rebuilt = reconstruct_kraus(plan)
        assert max_abs(rebuilt[0]) <= 1e-15
        assert max_abs(rebuilt[1] - I2) <= 1e-12

    def test_exit_unitaries_are_unitary(self):
        plan = synthesize_cascade(random_kraus(4, 3))
        for module in plan.modules:
            assert max_abs(dagger(module.exit_unitary) @ module.exit_unitary - I2) <= 1e-12
        assert max_abs(dagger(plan.final_exit_unitary) @ plan.final_exit_unitary - I2) <= 1e-12

    def test_inflated_operator_rejected(self):
        # F_1 eigenvalue 1.21 cannot be dominated by the remaining identity
        bad = KrausSet((np.diag([1.1, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)))
        with pytest.raises(IncompleteSum) as info:
            synthesize_cascade(bad)
        assert info.value.residual == pytest.approx(0.21)

    def test_operator_outside_surviving_subspace_rejected(self):
        projector = np.diag([1.0, 0.0]).astype(complex)
        bad = KrausSet((projector, projector, np.diag([0.0, 1.0]).astype(complex)))
        with pytest.raises(IncompleteSum) as info:
            synthesize_cascade(bad)
        assert info.value.residual == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("position", [0, 2, 3])
    def test_unvalidated_non_finite_operator_rejected(self, bad, position):
        # KrausSet can be built without validate_kraus; synthesis must still refuse
        ops = [m.copy() for m in random_kraus(4, 1)]
        ops[position][0, 1] = bad
        with np.errstate(invalid="ignore", over="ignore"), pytest.raises(IncompleteSum):
            synthesize_cascade(KrausSet(tuple(ops)))

    @pytest.mark.parametrize("scale", [1e-310, 1e-320, 5e-324])
    def test_subnormal_element_compiles(self, scale):
        element = scale * np.diag([1.0, 0.0]).astype(complex)
        kraus = kraus_from_povm(validate_povm([element, I2 - element]))
        assert verify_plan(kraus, synthesize_cascade(kraus)).passed

    def test_own_rank_one_generator_output_compiles(self):
        kraus = kraus_from_povm(random_rank_one_povm(72, 35))
        assert verify_plan(kraus, synthesize_cascade(kraus), trial_states=10).passed


def _unitary(rng):
    q, r = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _near_deficient(n, rng):
    # commuting elements r diag(a_k, b_k) r^T whose a-weights sum to 1, one of them tiny
    eps = 10.0 ** rng.uniform(-9.0, -3.0)
    a = np.append((1.0 - eps) * rng.dirichlet(np.ones(n - 1)), eps)
    b = rng.dirichlet(np.ones(n))
    r = rotation(rng.uniform(0.0, math.pi))
    return [r @ np.diag([x, y]) @ dagger(r) for x, y in zip(a, b)]


def _tiny_element(n, rng):
    # one element scaled to 1e-13, its weight moved onto the next
    elements = list(random_povm(n, int(rng.integers(2**31))))
    elements[1] = elements[1] + (1.0 - 1e-13) * elements[0]
    elements[0] = 1e-13 * elements[0]
    return elements


FAMILIES = {
    "full_rank": lambda n, rng: list(random_povm(n, int(rng.integers(2**31)))),
    "rank_one": lambda n, rng: list(random_rank_one_povm(n, int(rng.integers(2**31)))),
    "near_deficient": _near_deficient,
    "degenerate": lambda n, rng: [w * I2 for w in rng.dirichlet(np.ones(n))],
    "tiny_element": _tiny_element,
}


@settings(max_examples=120, deadline=None, derandomize=True)
@given(
    n=st.integers(2, 80),
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(sorted(FAMILIES)),
    permuted=st.booleans(),
    random_exits=st.booleans(),
)
def test_fuzz_every_valid_povm_verifies(n, seed, family, permuted, random_exits):
    rng = np.random.default_rng(seed)
    elements = FAMILIES[family](n, rng)
    if permuted:
        elements = [elements[i] for i in rng.permutation(n)]
    exits = [_unitary(rng) for _ in range(n)] if random_exits else None
    kraus = kraus_from_povm(validate_povm(elements), exits)
    report = verify_plan(kraus, synthesize_cascade(kraus), trial_states=5, seed=seed)
    assert report.passed, [(c.name, c.max_residual) for c in report.checks if not c.passed]


class TestReconstructKraus:
    def test_balanced_single_module(self):
        settings = ModuleSettings(theta=math.pi / 4, phi=math.pi / 4)
        plan = CascadePlan((settings,), I2)
        kraus = reconstruct_kraus(plan)
        for m in kraus:
            np.testing.assert_allclose(m, I2 / math.sqrt(2.0), atol=1e-15)

    def test_phases_enter_the_transfers(self):
        settings = ModuleSettings(theta=0.3, phi=1.1, zeta=0.5, xi=-0.2)
        plan = CascadePlan((settings,), I2)
        m1, m2 = reconstruct_kraus(plan)
        assert m1[0, 0] == pytest.approx(np.exp(0.5j) * math.cos(0.3), abs=1e-15)
        assert m2[0, 0] == pytest.approx(np.exp(-0.2j) * math.sin(0.3), abs=1e-15)

    def test_completeness_is_structural(self):
        rng = np.random.default_rng(12)
        modules = []
        for _ in range(3):
            theta, phi = rng.uniform(0.0, math.pi / 2, size=2)
            modules.append(ModuleSettings(theta=theta, phi=phi, zeta=rng.uniform(-3, 3)))
        plan = CascadePlan(tuple(modules), I2)
        kraus = reconstruct_kraus(plan)  # validate_kraus inside checks completeness
        assert len(kraus) == 4


class TestEkertAlphaPrime:
    def test_third_pi_separation_closed_form(self):
        # cot(pi/3) = 1/sqrt(3), sqrt(1 + 1/cos(pi/3)) = sqrt(3): arccot(1) = pi/4
        assert ekert_alpha_prime(0.0, math.pi / 3) == pytest.approx(math.pi / 4, abs=1e-12)

    def test_quarter_pi_separation_golden(self):
        assert ekert_alpha_prime(0.0, math.pi / 4) == pytest.approx(
            ALPHA_PRIME_QUARTER_PI, abs=1e-15
        )

    def test_offset_invariance(self):
        assert ekert_alpha_prime(0.2, 0.2 + math.pi / 3) == pytest.approx(
            math.pi / 4, abs=1e-12
        )

    def test_limit_at_right_angle(self):
        assert ekert_alpha_prime(0.0, math.pi / 2 - 1e-9) == pytest.approx(
            math.pi / 2, abs=1e-4
        )

    def test_result_range_for_valid_separations(self):
        for delta in np.linspace(0.01, math.pi / 2 - 0.01, 25):
            value = ekert_alpha_prime(0.0, float(delta))
            assert 0.0 < value < math.pi / 2

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ekert_alpha_prime(0.0, math.pi / 2)
        with pytest.raises(DomainError):
            ekert_alpha_prime(0.3, 0.3)
        with pytest.raises(DomainError):
            ekert_alpha_prime(0.0, 2.0)
        with pytest.raises(DomainError):
            ekert_alpha_prime(math.nan, 0.5)
        with pytest.raises(DomainError):
            ekert_alpha_prime(0.0, math.nan)
