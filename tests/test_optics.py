"""Element-level simulator: beamsplitter semantics, module transfer, cascades."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmcascade.demos import EkertParams, ekert_povm, trine_povm
from povmcascade.optics import (
    H,
    V,
    ModeLabel,
    ModeUnitary,
    OpticalNetwork,
    PhaseShifter,
    PhotonState,
    PolarizingBeamsplitter,
    Rotator,
    UnknownMode,
    apply_element,
    build_cascade_network,
    build_module_network,
    exit_amplitudes,
    propagate,
    transfer_matrices,
)
from povmcascade.povm import density_from_pure, kraus_from_povm, outcome_probabilities
from povmcascade.qmath import max_abs, phase_fixed, rotation
from povmcascade.synthesis import CascadePlan, ModuleSettings, reconstruct_kraus, synthesize_cascade
from povmcascade.verify import random_povm, random_pure_state, random_rank_one_povm

I2 = np.eye(2, dtype=complex)
IN = ModeLabel(0, "in")
AUX = ModeLabel(0, "aux")
OUT_A = ModeLabel(0, "out_a")
OUT_B = ModeLabel(0, "out_b")


def state_with_vacuum(mode, amplitudes, *vacuum_modes):
    state = PhotonState.pure(mode, amplitudes)
    for vac in vacuum_modes:
        state.amplitudes[(vac, H)] = 0.0j
        state.amplitudes[(vac, V)] = 0.0j
    return state


class TestApplyElement:
    def test_pbs_splits_polarizations(self):
        a, b = 0.6, 0.8j
        state = state_with_vacuum(IN, [a, b], AUX)
        split = apply_element(state, PolarizingBeamsplitter(IN, AUX, OUT_A, OUT_B))
        np.testing.assert_allclose(split.mode_vector(OUT_A), [a, 0.0])
        np.testing.assert_allclose(split.mode_vector(OUT_B), [0.0, b])
        assert IN not in split.modes()

    def test_pbs_second_input_routes_complementarily(self):
        state = state_with_vacuum(AUX, [0.6, 0.8], IN)
        split = apply_element(state, PolarizingBeamsplitter(IN, AUX, OUT_A, OUT_B))
        np.testing.assert_allclose(split.mode_vector(OUT_B), [0.6, 0.0])
        np.testing.assert_allclose(split.mode_vector(OUT_A), [0.0, 0.8])

    def test_pbs_is_norm_preserving(self):
        rng = np.random.default_rng(4)
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        amps /= np.linalg.norm(amps)
        state = PhotonState(
            {
                (IN, H): amps[0],
                (IN, V): amps[1],
                (AUX, H): amps[2],
                (AUX, V): amps[3],
            }
        )
        split = apply_element(state, PolarizingBeamsplitter(IN, AUX, OUT_A, OUT_B))
        assert split.total_probability() == pytest.approx(1.0, abs=1e-15)

    def test_zero_angle_rotator_is_identity(self):
        state = PhotonState.pure(IN, [0.3, 0.4j])
        rotated = apply_element(state, Rotator(IN, 0.0))
        np.testing.assert_allclose(rotated.mode_vector(IN), [0.3, 0.4j])

    def test_rotator_convention(self):
        rotated = apply_element(PhotonState.pure(IN, [1.0, 0.0]), Rotator(IN, 0.3))
        np.testing.assert_allclose(rotated.mode_vector(IN), [math.cos(0.3), math.sin(0.3)])

    def test_pi_phase_twice_is_identity(self):
        state = PhotonState.pure(IN, [0.6, 0.8])
        once = apply_element(state, PhaseShifter(IN, math.pi))
        twice = apply_element(once, PhaseShifter(IN, math.pi))
        np.testing.assert_allclose(twice.mode_vector(IN), [0.6, 0.8], atol=1e-15)

    def test_mode_unitary_applies_matrix(self):
        u = rotation(0.9) @ np.diag([1.0, 1.0j])
        moved = apply_element(PhotonState.pure(IN, [0.6, 0.8]), ModeUnitary(IN, u))
        np.testing.assert_allclose(moved.mode_vector(IN), u @ [0.6, 0.8])

    def test_unknown_mode_raises(self):
        state = PhotonState.pure(IN, [1.0, 0.0])
        with pytest.raises(UnknownMode):
            apply_element(state, Rotator(AUX, 0.1))
        with pytest.raises(UnknownMode):
            apply_element(state, PolarizingBeamsplitter(IN, AUX, OUT_A, OUT_B))

    def test_non_element_raises_type_error(self):
        # a look-alike with a mode and an angle is still not a Rotator
        state = PhotonState.pure(IN, [0.6, 0.8])
        stranger = SimpleNamespace(mode=IN, angle=0.3)
        with pytest.raises(TypeError, match="not an optical element"):
            apply_element(state, stranger)
        with pytest.raises(TypeError, match="not an optical element"):
            propagate(state, OpticalNetwork((stranger,), (IN,), IN))

    @pytest.mark.parametrize(
        "matrix, message",
        [(np.array([[1.0, np.nan], [0.0, 1.0]]), "non-finite"), (np.eye(3), "must be 2x2")],
        ids=["nan", "3x3"],
    )
    def test_malformed_mode_unitary_raises_when_it_acts(self, matrix, message):
        state = PhotonState.pure(IN, [0.6, 0.8])
        element = ModeUnitary(IN, matrix)
        with pytest.raises(ValueError, match=message):
            apply_element(state, element)
        with pytest.raises(ValueError, match=message):
            propagate(state, OpticalNetwork((element,), (IN,), IN))


class TestModuleNetwork:
    def test_exit_arms_match_diagonal_transfers(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            theta, phi = rng.uniform(0.0, math.pi / 2, size=2)
            zeta, xi = rng.uniform(-math.pi, math.pi, size=2)
            settings = ModuleSettings(theta=theta, phi=phi, zeta=zeta, xi=xi)
            network = build_module_network(settings)
            psi = random_pure_state(rng)
            out = propagate(PhotonState.pure(network.input, psi), network)
            p1, p2 = network.exits
            np.testing.assert_allclose(
                out.mode_vector(p1), settings.exit_transfer() @ psi, atol=1e-12
            )
            np.testing.assert_allclose(
                out.mode_vector(p2), settings.pass_transfer() @ psi, atol=1e-12
            )

    def test_unitaries_dress_the_module(self):
        rng = np.random.default_rng(53)
        pre = rotation(0.4)
        exit_u = rotation(-1.1) @ np.diag([1.0, np.exp(0.2j)])
        settings = ModuleSettings(theta=0.5, phi=1.2, pre_unitary=pre, exit_unitary=exit_u)
        network = build_module_network(settings)
        psi = random_pure_state(rng)
        out = propagate(PhotonState.pure(network.input, psi), network)
        p1, p2 = network.exits
        np.testing.assert_allclose(
            out.mode_vector(p1), exit_u @ settings.exit_transfer() @ pre @ psi, atol=1e-12
        )
        np.testing.assert_allclose(
            out.mode_vector(p2), settings.pass_transfer() @ pre @ psi, atol=1e-12
        )

    def test_fully_transmissive_module_passes_input_through(self):
        settings = ModuleSettings(theta=0.0, phi=0.0)
        network = build_module_network(settings)
        out = propagate(PhotonState.pure(network.input, [0.6, 0.8j]), network)
        p1, p2 = network.exits
        np.testing.assert_allclose(out.mode_vector(p1), [0.6, 0.8j], atol=1e-15)
        assert max_abs(out.mode_vector(p2)) <= 1e-15

    def test_dark_ports_stay_dark_even_with_phases(self):
        rng = np.random.default_rng(54)
        for _ in range(50):
            theta, phi = rng.uniform(0.0, math.pi / 2, size=2)
            settings = ModuleSettings(
                theta=theta, phi=phi, zeta=rng.uniform(-3, 3), xi=rng.uniform(-3, 3)
            )
            network = build_module_network(settings)
            transfer = transfer_matrices(network)
            for mode in network.dark_ports:
                assert max_abs(transfer[mode]) <= 1e-10, mode

    def test_module_contains_five_beamsplitters(self):
        network = build_module_network(ModuleSettings(theta=0.3, phi=0.7))
        count = sum(isinstance(e, PolarizingBeamsplitter) for e in network.elements)
        assert count == 5


class TestCascadeNetwork:
    def test_trine_topology(self):
        _, _, plan = trine_povm()
        network = build_cascade_network(plan)
        assert len(network.exits) == 3
        assert {mode.module_index for mode in network.exits} == {1, 2}

    def test_two_outcome_plan_is_single_module(self):
        plan = CascadePlan((ModuleSettings(theta=0.2, phi=0.9),), I2)
        network = build_cascade_network(plan)
        assert len(network.exits) == 2
        count = sum(isinstance(e, PolarizingBeamsplitter) for e in network.elements)
        assert count == 5

    def test_five_outcome_plan_has_twenty_beamsplitters(self):
        plan = synthesize_cascade(kraus_from_povm(random_povm(5, 77)))
        network = build_cascade_network(plan)
        assert len(network.exits) == 5
        count = sum(isinstance(e, PolarizingBeamsplitter) for e in network.elements)
        assert count == 20

    def test_norm_preserved_through_cascade(self):
        rng = np.random.default_rng(55)
        plan = synthesize_cascade(kraus_from_povm(random_povm(6, 13)))
        network = build_cascade_network(plan)
        for _ in range(20):
            out = propagate(PhotonState.pure(network.input, random_pure_state(rng)), network)
            assert abs(out.total_probability() - 1.0) <= 1e-12


class TestPropagate:
    def test_empty_network_is_identity(self):
        network = OpticalNetwork((), (IN,), IN)
        out = propagate(PhotonState.pure(IN, [0.6, 0.8]), network)
        np.testing.assert_allclose(out.mode_vector(IN), [0.6, 0.8])

    def test_external_inputs_are_the_modes_consumed_before_produced(self):
        plan = synthesize_cascade(kraus_from_povm(random_povm(4, 2)))
        for network in (build_module_network(ModuleSettings(theta=0.1, phi=0.2)), build_cascade_network(plan)):
            produced, expected = set(), [network.input]
            for element in network.elements:
                if isinstance(element, PolarizingBeamsplitter):
                    consumed, outputs = (element.in_a, element.in_b), (element.out_a, element.out_b)
                else:
                    consumed, outputs = (element.mode,), ()
                expected += [m for m in consumed if m not in produced and m not in expected]
                produced.update(outputs)
            assert network.external_inputs() == tuple(expected)
            # computed once per network: every call returns the same tuple
            assert network.external_inputs() is network.external_inputs()

    def test_rejects_state_on_unknown_mode(self):
        network = build_module_network(ModuleSettings(theta=0.1, phi=0.2))
        with pytest.raises(UnknownMode):
            propagate(PhotonState.pure(ModeLabel(9, "nowhere"), [1.0, 0.0]), network)

    def test_random_element_sequences_preserve_norm(self):
        rng = np.random.default_rng(57)
        other = ModeLabel(0, "other")
        split_a, split_b = ModeLabel(1, "a"), ModeLabel(1, "b")
        for _ in range(50):
            elements = (
                Rotator(IN, rng.uniform(-3, 3)),
                PhaseShifter(IN, rng.uniform(-3, 3)),
                ModeUnitary(IN, rotation(rng.uniform(-3, 3)) @ np.diag([1.0, np.exp(1j * rng.uniform(-3, 3))])),
                Rotator(IN, rng.uniform(-3, 3)),
                PolarizingBeamsplitter(IN, other, split_a, split_b),
                Rotator(split_b, rng.uniform(-3, 3)),
            )
            network = OpticalNetwork(elements, (split_a, split_b), IN)
            out = propagate(PhotonState.pure(IN, random_pure_state(rng)), network)
            assert abs(out.total_probability() - 1.0) <= 1e-12

    def test_caller_state_is_left_untouched(self):
        network = build_cascade_network(synthesize_cascade(kraus_from_povm(random_povm(6, 13))))
        pbs = PolarizingBeamsplitter(IN, AUX, OUT_A, OUT_B)
        cases = [
            (PhotonState.pure(network.input, [0.6, 0.8j]), lambda state: propagate(state, network)),
            (state_with_vacuum(IN, [0.6, 0.8j], AUX), lambda state: apply_element(state, pbs)),
        ]
        for state, run in cases:
            before = list(state.amplitudes.items())
            first = run(state)
            assert list(state.amplitudes.items()) == before
            assert first.amplitudes is not state.amplitudes
            assert list(run(state).amplitudes.items()) == list(first.amplitudes.items())

    def test_consumed_mode_raises_unknown_mode(self):
        # the beamsplitter takes IN away, so the rotator after it has nothing to act on
        network = OpticalNetwork(
            (PolarizingBeamsplitter(IN, AUX, OUT_A, OUT_B), Rotator(IN, 0.1)), (OUT_A, OUT_B), IN
        )
        with pytest.raises(UnknownMode) as caught:
            propagate(PhotonState.pure(IN, [0.6, 0.8]), network)
        assert caught.value.mode == IN

    def test_beamsplitter_onto_live_mode_raises(self):
        # OUT_A is seeded as a vacuum input, so the beamsplitter would overwrite it
        network = OpticalNetwork(
            (Rotator(OUT_A, 0.1), PolarizingBeamsplitter(IN, AUX, OUT_A, OUT_B)), (OUT_A, OUT_B), IN
        )
        with pytest.raises(ValueError, match="already occupied"):
            propagate(PhotonState.pure(IN, [0.6, 0.8]), network)

    def test_trine_exit_weights_for_horizontal_input(self):
        _, _, plan = trine_povm()
        network = build_cascade_network(plan)
        out = propagate(PhotonState.pure(network.input, [1.0, 0.0]), network)
        weights = [float(np.vdot(v, v).real) for v in (out.mode_vector(m) for m in network.exits)]
        np.testing.assert_allclose(weights, [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0], atol=1e-12)


ANGLE = st.floats(-10.0, 10.0)
ONE_MODE_ELEMENT = st.one_of(
    st.builds(Rotator, st.just(IN), ANGLE),
    st.builds(PhaseShifter, st.just(IN), ANGLE),
    st.builds(
        lambda a, b, c: ModeUnitary(IN, np.exp(1j * c) * rotation(a) @ np.diag([1.0, np.exp(1j * b)])),
        ANGLE,
        ANGLE,
        ANGLE,
    ),
)


def numpy_step(vec, element):
    """The per-element formula as a numpy matrix-vector product."""
    if isinstance(element, Rotator):
        return rotation(element.angle) @ vec
    if isinstance(element, PhaseShifter):
        return np.exp(1j * element.phase) * vec
    return element.matrix @ vec


@settings(max_examples=200, deadline=None, derandomize=True)
@given(elements=st.lists(ONE_MODE_ELEMENT, max_size=12), theta=ANGLE, phase=ANGLE)
def test_propagate_matches_numpy_formula(elements, theta, phase):
    # scalar and numpy arithmetic round differently, by about an ulp per element
    psi = np.array([math.cos(theta), np.exp(1j * phase) * math.sin(theta)])
    out = propagate(PhotonState.pure(IN, psi), OpticalNetwork(tuple(elements), (IN,), IN))
    expected = psi
    for element in elements:
        expected = numpy_step(expected, element)
    assert max_abs(out.mode_vector(IN) - expected) <= 1e-15


class TestExitAmplitudes:
    def test_trine_conditional_states_match_kraus_action(self):
        _, kraus, plan = trine_povm()
        network = build_cascade_network(plan)
        psi = np.array([1.0, 0.0], dtype=complex)
        out = propagate(PhotonState.pure(network.input, psi), network)
        for record, m in zip(exit_amplitudes(out, network), kraus):
            target = m @ psi
            p = float(np.vdot(target, target).real)
            assert record.probability == pytest.approx(p, abs=1e-12)
            np.testing.assert_allclose(
                record.polarization, phase_fixed(target / math.sqrt(p)), atol=1e-12
            )

    def test_projective_plan_on_vertical_input(self):
        from povmcascade.povm import validate_kraus

        plan = synthesize_cascade(
            validate_kraus([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
        )
        network = build_cascade_network(plan)
        out = propagate(PhotonState.pure(network.input, [0.0, 1.0]), network)
        records = exit_amplitudes(out, network)
        assert records[0].probability == pytest.approx(0.0, abs=1e-15)
        assert records[0].polarization is None
        assert records[1].probability == pytest.approx(1.0, abs=1e-12)

    def test_random_plan_matches_analytic_oracle(self):
        rng = np.random.default_rng(56)
        for seed in range(10):
            kraus = kraus_from_povm(random_povm(4, seed))
            network = build_cascade_network(synthesize_cascade(kraus))
            psi = random_pure_state(rng)
            out = propagate(PhotonState.pure(network.input, psi), network)
            records = exit_amplitudes(out, network)
            oracle = outcome_probabilities(density_from_pure(psi), kraus)
            for record, expected in zip(records, oracle):
                assert record.probability == pytest.approx(expected.probability, abs=1e-9)


def cascade_plan(spec):
    kind, *params = spec
    if kind == "trine":
        return trine_povm()[2]
    if kind == "ekert":
        alpha, beta = params
        return ekert_povm(EkertParams(math.radians(alpha), math.radians(beta)))[1]
    family, n = {"random": random_povm, "rank_one": random_rank_one_povm}[kind], params[0]
    return synthesize_cascade(kraus_from_povm(family(n, n)))


def linearity_network(spec):
    kind, *params = spec
    if kind == "module":
        theta, phi, zeta, xi = params
        settings = ModuleSettings(
            theta=theta,
            phi=phi,
            zeta=zeta,
            xi=xi,
            pre_unitary=rotation(0.4),
            exit_unitary=rotation(-1.1) @ np.diag([1.0, np.exp(0.2j)]),
        )
        return build_module_network(settings, module_index=3)
    return build_cascade_network(cascade_plan(spec))


LINEARITY_SPECS = (
    [("trine",), ("ekert", 0.0, 45.0), ("ekert", 10.0, 70.0)]
    + [("module", 0.0, 0.0, 0.0, 0.0), ("module", 0.5, 1.2, 0.3, -2.0), ("module", math.pi / 2, 0.7, -1.0, 2.5)]
    + [(kind, n) for kind in ("random", "rank_one") for n in (*range(2, 21), 40, 80)]
)


class TestTransferMatrices:
    @pytest.mark.parametrize("spec", LINEARITY_SPECS, ids=lambda spec: "-".join(map(str, spec)))
    def test_map_reproduces_propagation_on_every_mode(self, spec):
        # verification reads the network off |H> and |V> alone; that is only
        # sound because propagation is linear, which this pins down
        network = linearity_network(spec)
        transfer = transfer_matrices(network)
        rng = np.random.default_rng(57)
        for _ in range(3):
            psi = random_pure_state(rng)
            out = propagate(PhotonState.pure(network.input, psi), network)
            assert set(transfer) == out.modes()
            for mode in out.modes():
                assert max_abs(transfer[mode] @ psi - out.mode_vector(mode)) <= 1e-14, mode

    @pytest.mark.parametrize(
        "spec", [spec for spec in LINEARITY_SPECS if spec[0] != "module"], ids=lambda spec: "-".join(map(str, spec))
    )
    def test_stage_walk_matches_network_exits(self, spec):
        # verify_plan reads the network only; this keeps the algebraic stage
        # walk that the demos and round-trip tests use tied to the physics
        plan = cascade_plan(spec)
        network = build_cascade_network(plan)
        transfer = transfer_matrices(network)
        for mode, operator in zip(network.exits, reconstruct_kraus(plan), strict=True):
            assert max_abs(transfer[mode] - operator) <= 1e-14, mode
