"""Cascade synthesis: settings extraction, round trips, and invariants."""

import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmcascade import cli, synthesis
from povmcascade.demos import trine_povm
from povmcascade.povm import IncompleteSum, KrausSet, NotUnitary, kraus_from_povm, validate_kraus, validate_povm
from povmcascade.qmath import DEFAULT_TOL, dagger, eig_hermitian2, max_abs, rotation
from povmcascade.synthesis import (
    CascadePlan,
    DomainError,
    ModuleSettings,
    ekert_alpha_prime,
    reconstruct_kraus,
    synthesize_cascade,
)
from povmcascade.verify import random_povm, random_rank_one_povm, verify_plan

I2 = np.eye(2, dtype=complex)

# independently evaluated arccot(sqrt(1 + 1/cos(pi/4)) * cot(pi/4))
ALPHA_PRIME_QUARTER_PI = 0.5718588702012101


# three valid elements whose plan, with W read from the top block A alone,
# failed its own verification: seed 1048 of _wide_scale at lo = -18, n = 3
CS_SPLIT_REPRO = [
    np.array(
        [
            [6.5497920073796095e-06, -2.2284289690854903e-06 + 2.4039132936839446e-06j],
            [-2.2284289690854903e-06 - 2.4039132936839446e-06j, 4.930872450858449e-06],
        ]
    ),
    np.array(
        [
            [0.9999934502062513, 2.228429163714288e-06 - 2.403912555138539e-06j],
            [2.228429163714288e-06 + 2.403912555138539e-06j, 0.9999950691248056],
        ]
    ),
    np.array(
        [
            [1.7414890988129283e-12, -1.9459698336539292e-13 - 7.385292826298767e-13j],
            [-1.9459698336539292e-13 + 7.385292826298767e-13j, 2.7439369595324944e-12],
        ]
    ),
]


def random_kraus(n, seed):
    return kraus_from_povm(random_povm(n, seed))


def bare_arms(module):
    """The module's exit and pass arms without its unitaries, from a one-module
    plan: diag(e^{i zeta} cos theta, cos phi) and diag(e^{i xi} sin theta, sin phi)."""
    bare = replace(module, pre_unitary=I2, exit_unitary=I2)
    return tuple(reconstruct_kraus(CascadePlan((bare,), I2)))


class TestModuleSettings:
    def test_transfers_partition_unity_exactly(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            theta, phi = rng.uniform(0.0, math.pi / 2, size=2)
            zeta, xi = rng.uniform(-math.pi, math.pi, size=2)
            settings = ModuleSettings(theta=theta, phi=phi, zeta=zeta, xi=xi)
            d1, d2 = bare_arms(settings)
            gram = dagger(d1) @ d1 + dagger(d2) @ d2
            assert max_abs(gram - I2) <= 1e-15

    def test_angle_range_enforced(self):
        with pytest.raises(ValueError):
            ModuleSettings(theta=-0.2, phi=0.3)
        with pytest.raises(ValueError):
            ModuleSettings(theta=0.2, phi=math.pi)

    @pytest.mark.parametrize("field, value", [("zeta", math.nan), ("xi", math.inf)])
    def test_phases_must_be_finite(self, field, value):
        with pytest.raises(ValueError) as info:
            ModuleSettings(0.1, 0.2, **{field: value})
        assert str(info.value) == f"{field} must be finite"

    def test_unitarity_enforced(self):
        with pytest.raises(ValueError):
            ModuleSettings(theta=0.1, phi=0.2, pre_unitary=2.0 * I2)
        with pytest.raises(ValueError, match="exit_unitary"):
            ModuleSettings(theta=0.1, phi=0.2, exit_unitary=2.0 * I2)
        with pytest.raises(ValueError, match="final_exit_unitary"):
            CascadePlan((ModuleSettings(theta=0.1, phi=0.2),), 2.0 * I2)

    @pytest.mark.parametrize(
        "build, message, index",
        [
            (lambda: ModuleSettings(theta=0.1, phi=0.2, pre_unitary=2.0 * I2), "pre_unitary is not unitary", None),
            (
                lambda: CascadePlan((ModuleSettings(theta=0.1, phi=0.2),), 2.0 * I2),
                "final_exit_unitary is not unitary",
                None,
            ),
            (
                lambda: kraus_from_povm(validate_povm([0.5 * I2, 0.5 * I2]), [I2, 2.0 * I2]),
                "exit unitary 2 is not unitary",
                1,
            ),
        ],
        ids=["ModuleSettings", "CascadePlan", "kraus_from_povm"],
    )
    def test_one_unitary_check_raises_not_unitary(self, build, message, index):
        with pytest.raises(NotUnitary) as info:
            build()
        assert type(info.value) is NotUnitary
        assert str(info.value) == message
        assert info.value.index == index

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda u: ModuleSettings(theta=0.1, phi=0.2, pre_unitary=u), "pre_unitary is not unitary"),
            (lambda u: ModuleSettings(theta=0.1, phi=0.2, exit_unitary=u), "exit_unitary is not unitary"),
            (lambda u: CascadePlan((ModuleSettings(theta=0.1, phi=0.2),), u), "final_exit_unitary is not unitary"),
            (lambda u: kraus_from_povm(validate_povm([0.5 * I2, 0.5 * I2]), [u, I2]), "exit unitary 1 is not unitary"),
        ],
        ids=["pre_unitary", "exit_unitary", "final_exit_unitary", "kraus_from_povm"],
    )
    def test_a_residual_beyond_the_double_range_is_not_unitary(self, build, message):
        # conj(u00) u01 = 1.3e308 (1 - 1j), whose modulus complex abs cannot return
        with pytest.raises(NotUnitary) as info:
            build(np.array([[1.3e154 + 1.3e154j, 1e154], [0, 1]]))
        assert str(info.value) == message

    @pytest.mark.parametrize(
        "form",
        [
            lambda m: tuple(tuple(complex(z) for z in row) for row in m),
            lambda m: np.array(m, dtype=complex),
            lambda m: [[int(z.real) for z in row] for row in m],
        ],
        ids=["complex-rows", "ndarray", "int-lists"],
    )
    @pytest.mark.parametrize("field", ["pre_unitary", "exit_unitary", "final_exit_unitary"])
    def test_one_unitary_check_reads_every_input_form(self, form, field):
        # every form is checked once and held as rows of Python complex numbers
        swap = [[0, 1], [1, 0]]
        if field == "final_exit_unitary":
            held = CascadePlan((ModuleSettings(theta=0.1, phi=0.2),), form(swap)).final_exit_unitary
        else:
            held = getattr(ModuleSettings(theta=0.1, phi=0.2, **{field: form(swap)}), field)
        assert held == ((0j, 1 + 0j), (1 + 0j, 0j))
        assert type(held) is tuple and all(type(row) is tuple for row in held)
        assert all(type(z) is complex for row in held for z in row)

    @pytest.mark.parametrize(
        "form",
        [lambda m: tuple(tuple(complex(z) for z in row) for row in m), lambda m: np.array(m, dtype=complex)],
        ids=["complex-rows", "ndarray"],
    )
    @pytest.mark.parametrize(
        "matrix, error, message",
        [
            ([[1, math.nan], [0, 1]], ValueError, "{} contains non-finite entries"),
            (np.eye(3).tolist(), ValueError, "{} must be 2x2, got shape (3, 3)"),
            ([[2, 0], [0, 2]], NotUnitary, "{} is not unitary"),
        ],
        ids=["nan", "3x3", "not-unitary"],
    )
    @pytest.mark.parametrize("field", ["pre_unitary", "exit_unitary", "final_exit_unitary"])
    def test_one_unitary_check_messages_on_every_input_form(self, form, matrix, error, message, field):
        with pytest.raises(ValueError) as info:
            if field == "final_exit_unitary":
                CascadePlan((ModuleSettings(theta=0.1, phi=0.2),), form(matrix))
            else:
                ModuleSettings(theta=0.1, phi=0.2, **{field: form(matrix)})
        assert type(info.value) is error
        assert str(info.value) == message.format(field)

    def test_unitaries_at_the_tolerance_reconstruct_an_incomplete_set(self):
        # each unitary is accepted (m^dag m is 0.98e-9 off I), but the walk multiplies
        # three of them, so the Kraus set misses completeness by their sum: 1.96e-9
        u = (1.0 + 0.49e-9) * I2
        assert 0.9e-9 < max_abs(dagger(u) @ u - I2) <= DEFAULT_TOL
        plan = CascadePlan((ModuleSettings(0.3, 0.7, pre_unitary=u, exit_unitary=u),), u)
        with pytest.raises(IncompleteSum) as info:
            reconstruct_kraus(plan)
        assert str(info.value) == "sum of M^dag M deviates from identity by 1.960e-09"
        assert info.value.residual == pytest.approx(1.96e-9, rel=1e-6)

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
        d = bare_arms(second)[0]
        d_sq = d @ d
        pre = np.array(second.pre_unitary)
        lhs = dagger(pre) @ d_sq @ pre
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
                plan = synthesize_cascade(kraus)
                assert len(plan.modules) == n - 1
                # the realized pass-arm amplitude behind the first j modules;
                # the one entering stage 1 is the bare input, with Gram I
                for j in range(1, n):
                    remaining = I2 - sum(elements[:j], start=np.zeros((2, 2), dtype=complex))
                    prefix = reconstruct_kraus(CascadePlan(plan.modules[:j], I2))[-1]
                    assert max_abs(dagger(prefix) @ prefix - remaining) <= 1e-9

    def test_effective_eigenvalues_recorded_in_unit_interval(self):
        # stage j measures pre^dag D^dag D pre, with spectrum (cos^2 theta, cos^2 phi)
        plan = synthesize_cascade(random_kraus(5, 8))
        for module in plan.modules:
            eigenvalues = (math.cos(module.theta) ** 2, math.cos(module.phi) ** 2)
            lo, hi = min(eigenvalues), max(eigenvalues)
            assert lo >= 0.0 and hi <= 1.0
            stage = reconstruct_kraus(CascadePlan((replace(module, exit_unitary=I2),), I2))[0]
            spectrum = eig_hermitian2(dagger(stage) @ stage)[0]
            np.testing.assert_allclose(spectrum, [hi, lo], atol=1e-15)

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
        assert all(max_abs(dagger(np.array(m.pre_unitary)) @ m.pre_unitary - I2) <= 1e-12 for m in plan.modules)
        assert verify_plan(kraus, plan).passed

    def test_zero_element_is_compiled_through(self):
        kraus = KrausSet((np.zeros((2, 2), dtype=complex), I2))
        plan = synthesize_cascade(kraus)
        rebuilt = reconstruct_kraus(plan)
        assert max_abs(rebuilt[0]) <= 1e-15
        assert max_abs(rebuilt[1] - I2) <= 1e-12

    @pytest.mark.parametrize(
        "elements",
        [
            [np.zeros((2, 2)), I2],
            [np.diag([1.0, 0.0]), np.zeros((2, 2)), np.diag([0.0, 1.0])],
            [I2 / 2, I2 / 2, np.zeros((2, 2))],
            [I2, np.zeros((2, 2)), np.zeros((2, 2))],
        ],
        ids=["zero-first", "zero-between", "zero-last", "zeros-after-identity"],
    )
    def test_zero_elements_compile_and_verify(self, elements):
        # validate_povm accepts zero elements; the last two leave a stage that
        # passes nothing on, whose zero pass block _column_split completes with
        # the identity
        kraus = kraus_from_povm(validate_povm(elements))
        plan = synthesize_cascade(kraus)
        assert all(max_abs(np.subtract(a, b)) <= 1e-15 for a, b in zip(reconstruct_kraus(plan), kraus))
        assert verify_plan(kraus, plan).passed

    def test_exit_unitaries_are_unitary(self):
        plan = synthesize_cascade(random_kraus(4, 3))
        for module in plan.modules:
            assert max_abs(dagger(np.array(module.exit_unitary)) @ module.exit_unitary - I2) <= 1e-12
        assert max_abs(dagger(np.array(plan.final_exit_unitary)) @ plan.final_exit_unitary - I2) <= 1e-12

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

    @pytest.mark.parametrize("n", range(2, 13))
    def test_a_one_ulp_change_keeps_the_final_exit_unitary(self, n):
        # a rank-one last element leaves the first stage's second column to
        # round-off; its gauge, not that round-off, sets final_exit_unitary
        for seed in range(3):
            elements = random_rank_one_povm(n, seed).elements
            old, new = (
                synthesize_cascade(kraus_from_povm(validate_povm([f * scale for f in elements])))
                for scale in (1.0, 1.0 + 2.0**-52)
            )
            assert max_abs(np.subtract(old.final_exit_unitary, new.final_exit_unitary)) <= 1e-14, seed

    @pytest.mark.parametrize("scale", [1e-310, 1e-320, 5e-324])
    def test_subnormal_element_compiles(self, scale):
        element = scale * np.diag([1.0, 0.0]).astype(complex)
        kraus = kraus_from_povm(validate_povm([element, I2 - element]))
        assert verify_plan(kraus, synthesize_cascade(kraus)).passed

    @pytest.mark.parametrize("scale", [1e-13, 1e-15, 5e-324])
    @pytest.mark.parametrize("make", [random_povm, random_rank_one_povm])
    def test_tiny_element_compiles(self, make, scale):
        # one element scaled down, its weight moved onto the next
        elements = list(make(6, 9))
        elements[1] = elements[1] + (1.0 - scale) * elements[0]
        elements[0] = scale * elements[0]
        kraus = kraus_from_povm(validate_povm(elements))
        assert verify_plan(kraus, synthesize_cascade(kraus), trial_states=10).passed

    @pytest.mark.parametrize("make", [random_povm, random_rank_one_povm])
    def test_plans_are_deterministic(self, make):
        kraus = kraus_from_povm(make(40, 11))
        first, second = synthesize_cascade(kraus), synthesize_cascade(kraus)

        def entries(plan):
            unitaries = [np.array((m.pre_unitary, m.exit_unitary)).tobytes() for m in plan.modules]
            angles = [np.array([m.theta, m.phi]).tobytes() for m in plan.modules]
            return angles + unitaries + [np.array(plan.final_exit_unitary).tobytes()]

        assert entries(first) == entries(second)

    @pytest.mark.parametrize("make", [random_povm, random_rank_one_povm])
    def test_settings_hold_the_rows_the_cores_produce(self, make):
        # no array round trip between the scalar cores and the settings
        plan = synthesize_cascade(kraus_from_povm(make(12, 5)))
        held = [u for m in plan.modules for u in (m.pre_unitary, m.exit_unitary)] + [plan.final_exit_unitary]
        for rows in held:
            assert type(rows) is tuple and len(rows) == 2
            assert all(type(row) is tuple and len(row) == 2 for row in rows)
            assert all(type(z) is complex for row in rows for z in row)

    def test_cs_split_reads_w_from_the_better_conditioned_block(self):
        # F_2 is near I, so stage 2's sines (1.15e-6, 1.78e-6) are both small and
        # A^dag A = I - B^dag B has an eigengap of about 1.8e-12: W read from A
        # carried an error of about 1e-4 into the tail's exit unitary, and the
        # plan failed conditional_state at 1.003e-8 (kraus_roundtrip 1.28e-10)
        kraus = kraus_from_povm(validate_povm(CS_SPLIT_REPRO))
        report = verify_plan(kraus, synthesize_cascade(kraus))
        assert report.passed, [(c.name, c.max_residual) for c in report.checks if not c.passed]
        assert report.check("kraus_roundtrip").max_residual < 1e-14

    def test_cs_split_repro_synthesizes_through_the_cli(self, tmp_path, capsys):
        document = {"schema_version": cli.SCHEMA_VERSION, "elements": [cli.matrix_to_json(f) for f in CS_SPLIT_REPRO]}
        path = tmp_path / "povm.json"
        path.write_text(json.dumps(document))
        assert cli.main(["synthesize", str(path), "-o", str(tmp_path / "plan.json")]) == 0
        assert "verification: PASS" in capsys.readouterr().out

    def test_own_rank_one_generator_output_compiles(self):
        kraus = kraus_from_povm(random_rank_one_povm(72, 35))
        assert verify_plan(kraus, synthesize_cascade(kraus), trial_states=10).passed


def _bits(value):
    """A field's type and exact bits, signed zeros included."""
    if type(value) is float:
        return "float", value.hex()
    if type(value) is complex:
        return "complex", value.real.hex(), value.imag.hex()
    assert type(value) is tuple, type(value)
    return ("tuple", *map(_bits, value))


def _scaled(rows, factor):
    return tuple(tuple(z * factor for z in row) for row in rows)


class TestSynthesizedSettings:
    """synthesize_cascade builds each ModuleSettings through the constructor, once
    per module; what it holds, and the error a broken module raises, must be
    the constructor's."""

    @pytest.mark.parametrize("n", [2, 3, 12])
    def test_every_module_is_built_by_the_constructor(self, monkeypatch, n):
        init, built = ModuleSettings.__init__, []

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(ModuleSettings, "__init__", counted)
        plan = synthesize_cascade(random_kraus(n, 5))
        assert len(built) == n - 1
        assert list(plan.modules) == built  # compared by identity (eq=False)

    @pytest.mark.parametrize("make", [random_povm, random_rank_one_povm])
    def test_settings_equal_the_public_constructors_bit_for_bit(self, make):
        order = [field.name for field in fields(ModuleSettings)]
        for n in range(2, 81):
            for seed in range(5):
                for module in synthesize_cascade(kraus_from_povm(make(n, seed))).modules:
                    stored = vars(module)
                    # rebuilt from every stored field, and as the synthesizer would
                    # call the constructor (zeta and xi left at their defaults)
                    call = ModuleSettings(
                        module.theta, module.phi, pre_unitary=module.pre_unitary, exit_unitary=module.exit_unitary
                    )
                    for public in (vars(ModuleSettings(**stored)), vars(call)):
                        assert list(stored) == list(public) == order
                        assert [_bits(v) for v in stored.values()] == [_bits(v) for v in public.values()]

    @staticmethod
    def _raised(build):
        with pytest.raises(ValueError) as info:
            build()
        return type(info.value), str(info.value), getattr(info.value, "index", None)

    #: each field's mutant value, from the value the synthesizer would have stored
    BROKEN = {
        "theta": lambda theta: -theta,
        "phi": lambda phi: -phi,
        "pre_unitary": lambda rows: _scaled(rows, 1.0 + 1e-6),
        "exit_unitary": lambda rows: _scaled(rows, 2.0),
    }

    @pytest.mark.parametrize(
        "broken",
        [
            ("theta",),
            ("phi",),
            ("pre_unitary",),
            ("exit_unitary",),
            ("theta", "phi"),
            ("pre_unitary", "exit_unitary"),
            ("phi", "pre_unitary"),
            ("theta", "phi", "pre_unitary", "exit_unitary"),
        ],
        ids="+".join,
    )
    def test_the_guard_raises_the_constructors_first_error(self, monkeypatch, broken):
        # mutants monkeypatched into synthesis break the first module's fields:
        # an angle through a _column_split weight negated (atan2 then gives minus
        # the angle), pre_unitary through the product W_1^dag Y_0 (the _mul whose
        # right factor is Y_0, the first product made) and exit_unitary through
        # the block splits' left factor X_1 (every _svd call after the first,
        # which is R_1's polar factor)
        kraus = random_kraus(4, 3)
        first = vars(synthesize_cascade(kraus).modules[0])
        assert first["theta"] > 0.0 and first["phi"] > 0.0
        column_split, mul, svd = synthesis._column_split, synthesis._mul, synthesis._svd
        negated = [name in broken for name in ("theta", "phi")]
        products, svd_calls = [], []

        def split_mutant(m):
            y, weights = column_split(m)
            return y, tuple(-w if flip else w for w, flip in zip(weights, negated))

        def mul_mutant(a, b):
            out = mul(a, b)
            if products and b is products[0]:
                return self.BROKEN["pre_unitary"](out)
            products.append(out)
            return out

        def svd_mutant(m):
            v, d, u = svd(m)
            svd_calls.append(m)
            return (self.BROKEN["exit_unitary"](v) if len(svd_calls) > 1 else v), d, u

        if any(negated):
            monkeypatch.setattr(synthesis, "_column_split", split_mutant)
        if "pre_unitary" in broken:
            monkeypatch.setattr(synthesis, "_mul", mul_mutant)
        if "exit_unitary" in broken:
            monkeypatch.setattr(synthesis, "_svd", svd_mutant)
        raised = self._raised(lambda: synthesize_cascade(kraus))
        name = broken[0]
        if name in ("theta", "phi"):
            assert raised == (ValueError, f"{name} = {-first[name]!r} outside [0, pi/2]", None)
        else:
            assert raised == (NotUnitary, f"{name} is not unitary", None)
        values = {**first, **{field: self.BROKEN[field](first[field]) for field in broken}}
        assert raised == self._raised(lambda: ModuleSettings(**values))


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


def _wide_scale(n, rng, lo=None):
    # A_i A_i^dag at scales 10^U(lo, 0), sandwiched by S^{-1/2} and made
    # Hermitian: stages whose sines are all small, where A^dag A is near I
    lo = rng.uniform(-30.0, -1.0) if lo is None else lo
    grams = []
    for _ in range(n):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        grams.append(10 ** rng.uniform(lo, 0) * a @ a.conj().T)
    w, v = np.linalg.eigh(sum(grams))
    s = v @ np.diag(w**-0.5) @ v.conj().T
    return [(f + f.conj().T) / 2 for f in (s @ g @ s for g in grams)]


def test_wide_scale_family_draws_the_cs_split_repro():
    elements = _wide_scale(3, np.random.default_rng(1048), lo=-18.0)
    for drawn, kept in zip(elements, CS_SPLIT_REPRO):
        assert drawn.tolist() == kept.tolist()


FAMILIES = {
    "full_rank": lambda n, rng: list(random_povm(n, int(rng.integers(2**31)))),
    "rank_one": lambda n, rng: list(random_rank_one_povm(n, int(rng.integers(2**31)))),
    "near_deficient": _near_deficient,
    "degenerate": lambda n, rng: [w * I2 for w in rng.dirichlet(np.ones(n))],
    "tiny_element": _tiny_element,
    "wide_scale": _wide_scale,
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
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(DomainError, match="valid region"):
                ekert_alpha_prime(bad, 0.5)
            with pytest.raises(DomainError, match="valid region"):
                ekert_alpha_prime(0.0, bad)
