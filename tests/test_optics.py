"""Element-level simulator: beamsplitter semantics, module transfer, cascades."""

import cmath
import dataclasses
import math
import operator
import re
import sys
import threading
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from povmcascade import optics
from povmcascade.demos import EkertParams, ekert_povm, trine_povm
from povmcascade.optics import (
    ModeLabel,
    ModeUnitary,
    OpticalNetwork,
    PhaseShifter,
    PhotonState,
    PolarizingBeamsplitter,
    Rotator,
    UnknownMode,
    build_cascade_network,
    exit_amplitudes,
    propagate,
    transfer_matrices,
)
from povmcascade.povm import PROBABILITY_FLOOR, density_matrix, kraus_from_povm, outcome_probabilities
from povmcascade.qmath import _phase_fixed, max_abs, rotation
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
        state.amplitudes[vac] = (0.0j, 0.0j)
    return state


def apply_one(state, element, *exits):
    """Propagate through a network of the one element, entered at IN."""
    return propagate(state, OpticalNetwork((element,), exits, IN))


def gauge(vec):
    """The phase gauge of a 2-vector, as an array."""
    return np.array(_phase_fixed(*np.asarray(vec, dtype=complex).tolist())[0], dtype=complex)


def total_probability(state):
    return sum(abs(h) ** 2 + abs(v) ** 2 for h, v in state.amplitudes.values())


#: the two walks of the element kernel, each given a state and a network:
#: propagate the state, or read the network's map off both input columns
#: at once (the state is unused); an error test expects the same error of both
WALKS = (propagate, lambda state, network: transfer_matrices(network))


def module_network(settings):
    """One module as a network: a one-module plan with an identity final
    unitary, so exit 1 is the p1 arm and exit 2 the p2 arm."""
    return build_cascade_network(CascadePlan((settings,), I2))


def module_transfers(settings):
    """The exit and pass arms of one module, read off reconstruct_kraus."""
    return tuple(reconstruct_kraus(CascadePlan((settings,), I2)))


class TestApplyElement:
    """One element at a time, each through a network holding only it."""

    def test_pbs_splits_polarizations(self):
        a, b = 0.6, 0.8j
        state = state_with_vacuum(IN, [a, b], AUX)
        split = apply_one(state, PolarizingBeamsplitter(IN, AUX, OUT_A, OUT_B))
        np.testing.assert_allclose(split.mode_vector(OUT_A), [a, 0.0])
        np.testing.assert_allclose(split.mode_vector(OUT_B), [0.0, b])
        assert IN not in split.amplitudes

    def test_pbs_second_input_routes_complementarily(self):
        state = state_with_vacuum(AUX, [0.6, 0.8], IN)
        split = apply_one(state, PolarizingBeamsplitter(IN, AUX, OUT_A, OUT_B))
        np.testing.assert_allclose(split.mode_vector(OUT_B), [0.6, 0.0])
        np.testing.assert_allclose(split.mode_vector(OUT_A), [0.0, 0.8])

    def test_pbs_is_norm_preserving(self):
        rng = np.random.default_rng(4)
        amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        amps /= np.linalg.norm(amps)
        state = PhotonState({IN: (amps[0], amps[1]), AUX: (amps[2], amps[3])})
        split = apply_one(state, PolarizingBeamsplitter(IN, AUX, OUT_A, OUT_B))
        assert total_probability(split) == pytest.approx(1.0, abs=1e-15)

    def test_zero_angle_rotator_is_identity(self):
        state = PhotonState.pure(IN, [0.3, 0.4j])
        rotated = apply_one(state, Rotator(IN, 0.0))
        np.testing.assert_allclose(rotated.mode_vector(IN), [0.3, 0.4j])

    def test_rotator_convention(self):
        rotated = apply_one(PhotonState.pure(IN, [1.0, 0.0]), Rotator(IN, 0.3))
        np.testing.assert_allclose(rotated.mode_vector(IN), [math.cos(0.3), math.sin(0.3)])

    def test_pi_phase_twice_is_identity(self):
        state = PhotonState.pure(IN, [0.6, 0.8])
        once = apply_one(state, PhaseShifter(IN, math.pi))
        twice = apply_one(once, PhaseShifter(IN, math.pi))
        np.testing.assert_allclose(twice.mode_vector(IN), [0.6, 0.8], atol=1e-15)

    def test_mode_unitary_applies_matrix(self):
        u = rotation(0.9) @ np.diag([1.0, 1.0j])
        moved = apply_one(PhotonState.pure(IN, [0.6, 0.8]), ModeUnitary(IN, u))
        np.testing.assert_allclose(moved.mode_vector(IN), u @ [0.6, 0.8])

    def test_unknown_mode_raises(self):
        # a network seeds every mode it consumes before producing it, so the
        # unknown mode is one the first beamsplitter has already taken away
        state = PhotonState.pure(IN, [1.0, 0.0])
        split = PolarizingBeamsplitter(IN, AUX, OUT_A, OUT_B)
        for walk in WALKS:
            for element in (Rotator(IN, 0.1), PolarizingBeamsplitter(OUT_A, IN, ModeLabel(0, "c"), ModeLabel(0, "d"))):
                with pytest.raises(UnknownMode) as caught:
                    walk(state, OpticalNetwork((split, element), (OUT_B,), IN))
                assert caught.value.mode == IN

    def test_non_element_raises_type_error(self):
        # a look-alike with a mode and an angle is still not a Rotator: not an
        # object with those attributes, not a plain tuple with those values and
        # not a record of another class that happens to share the name
        state = PhotonState.pure(IN, [0.6, 0.8])
        named_alike = NamedTuple("Rotator", [("mode", ModeLabel), ("angle", float)])
        strangers = (SimpleNamespace(mode=IN, angle=0.3), (IN, 0.3), named_alike(IN, 0.3))
        for stranger in strangers:
            with pytest.raises(TypeError, match="not an optical element"):
                OpticalNetwork((stranger,), (IN,), IN).external_inputs()
            for walk in WALKS:
                with pytest.raises(TypeError, match="not an optical element"):
                    walk(state, OpticalNetwork((stranger,), (IN,), IN))
        for walk in WALKS:
            # without a mode it is turned away before the network's inputs are traced
            with pytest.raises(TypeError, match="not an optical element"):
                walk(state, OpticalNetwork((object(),), (IN,), IN))
        # a copy of a built network traces its inputs again, and turns the stranger away there
        built = build_cascade_network(trine_povm()[2])
        for stranger in (*strangers, object()):
            copy = dataclasses.replace(built, elements=(*built.elements[:5], stranger, *built.elements[5:]))
            with pytest.raises(TypeError, match="not an optical element"):
                copy.external_inputs()
            for walk in WALKS:
                with pytest.raises(TypeError, match="not an optical element"):
                    walk(PhotonState.pure(copy.input, [0.6, 0.8]), copy)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("kind", [Rotator, PhaseShifter])
    def test_non_finite_angle_raises_when_it_acts(self, kind, bad):
        state = PhotonState.pure(IN, [0.6, 0.8])
        element = kind(IN, bad)
        message = f"{kind.__name__} on mode {IN} has non-finite angle"
        for walk in WALKS:
            with pytest.raises(ValueError, match=re.escape(message)):
                walk(state, OpticalNetwork((element,), (IN,), IN))

    @pytest.mark.parametrize(
        "matrix, message",
        [
            (np.array([[1.0, np.nan], [0.0, 1.0]]), "non-finite"),
            (np.eye(3), "must be 2x2"),
            (((1 + 0j, complex(math.nan)), (0j, 1 + 0j)), re.escape("matrix contains non-finite entries")),
            (tuple(tuple(complex(z) for z in row) for row in np.eye(3)), re.escape("matrix must be 2x2, got shape (3, 3)")),
        ],
        ids=["nan", "3x3", "nan-rows", "3x3-rows"],
    )
    def test_malformed_mode_unitary_raises_when_it_acts(self, matrix, message):
        state = PhotonState.pure(IN, [0.6, 0.8])
        element = ModeUnitary(IN, matrix)
        for walk in WALKS:
            with pytest.raises(ValueError, match=message):
                walk(state, OpticalNetwork((element,), (IN,), IN))

    def test_mode_unitary_rows_act_like_the_equal_array(self):
        # a plan's settings hand rows to ModeUnitary, user code may hand an array:
        # both walks must see the same bits
        rng = np.random.default_rng(58)
        for _ in range(20):
            array = rotation(rng.uniform(-3, 3)) @ np.diag([1.0, np.exp(1j * rng.uniform(-3, 3))])
            (a, b), (c, d) = array.tolist()
            state = PhotonState.pure(IN, random_pure_state(rng))
            networks = [OpticalNetwork((ModeUnitary(IN, m),), (IN,), IN) for m in (((a, b), (c, d)), array)]
            from_rows, from_array = (propagate(state, network).amplitudes for network in networks)
            assert from_rows == from_array
            maps = [transfer_matrices(network)[IN] for network in networks]
            assert maps[0].tobytes() == maps[1].tobytes()


class TestElementEquality:
    """Elements compare by kind and fields, never as the tuples they are built on."""

    def test_equal_fields_of_one_kind_compare_equal(self):
        rows = ((1 + 0j, 0j), (0j, 1 + 0j))
        twins = [
            (PolarizingBeamsplitter(IN, AUX, OUT_A, OUT_B), PolarizingBeamsplitter(IN, AUX, OUT_A, OUT_B)),
            (Rotator(IN, 0.3), Rotator(ModeLabel(0, "in"), 0.3)),
            (PhaseShifter(IN, 0.3), PhaseShifter(ModeLabel(0, "in"), 0.3)),
        ]
        for first, second in twins:
            assert first is not second
            assert (first == second) is True and (first != second) is False
            assert hash(first) == hash(second)
            assert len({first, second}) == 1
        # a matrix holder compares by identity, as PovmSet and CascadePlan do
        unitary = ModeUnitary(IN, rows)
        assert (unitary == unitary) is True and (unitary != unitary) is False
        assert (unitary == ModeUnitary(IN, rows)) is False and (unitary != ModeUnitary(IN, rows)) is True
        assert len({unitary, unitary, ModeUnitary(IN, rows)}) == 2

    def test_no_element_equals_another_kind_or_a_plain_tuple(self):
        rows = ((1 + 0j, 0j), (0j, 1 + 0j))
        items = [
            PolarizingBeamsplitter(IN, AUX, OUT_A, OUT_B),
            (IN, AUX, OUT_A, OUT_B),
            Rotator(IN, 0.3),
            PhaseShifter(IN, 0.3),
            (IN, 0.3),
            Rotator(IN, 0.4),
            ModeUnitary(IN, rows),
            (IN, rows),
        ]
        for i, first in enumerate(items):
            for j, second in enumerate(items):
                # both operand orders, so a plain tuple on the left is covered too
                assert (first == second) is (i == j), (first, second)
                assert (first != second) is (i != j), (first, second)

    def test_elements_have_no_order(self):
        # tuple ordering would disagree with the typed equality: Rotator(m, x) <= PhaseShifter(m, x)
        rows = ((1 + 0j, 0j), (0j, 1 + 0j))
        elements = [
            PolarizingBeamsplitter(IN, AUX, OUT_A, OUT_B),
            Rotator(IN, 0.3),
            PhaseShifter(IN, 0.3),
            ModeUnitary(IN, rows),
        ]
        others = elements + [Rotator(IN, 0.4), (IN, 0.4), (IN, AUX, OUT_A, OUT_B)]
        for element in elements:
            for other in others:
                for compare in (operator.lt, operator.le, operator.gt, operator.ge):
                    with pytest.raises(TypeError):
                        compare(element, other)
                    with pytest.raises(TypeError):
                        compare(other, element)


class TestModuleNetwork:
    def test_exit_arms_match_diagonal_transfers(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            theta, phi = rng.uniform(0.0, math.pi / 2, size=2)
            zeta, xi = rng.uniform(-math.pi, math.pi, size=2)
            settings = ModuleSettings(theta=theta, phi=phi, zeta=zeta, xi=xi)
            network = module_network(settings)
            psi = random_pure_state(rng)
            out = propagate(PhotonState.pure(network.input, psi), network)
            p1, p2 = network.exits
            exit_transfer = np.diag([np.exp(1j * zeta) * math.cos(theta), math.cos(phi)])
            pass_transfer = np.diag([np.exp(1j * xi) * math.sin(theta), math.sin(phi)])
            np.testing.assert_allclose(out.mode_vector(p1), exit_transfer @ psi, atol=1e-12)
            np.testing.assert_allclose(out.mode_vector(p2), pass_transfer @ psi, atol=1e-12)
            np.testing.assert_allclose(module_transfers(settings), (exit_transfer, pass_transfer), atol=1e-15)

    def test_unitaries_dress_the_module(self):
        rng = np.random.default_rng(53)
        pre = rotation(0.4)
        exit_u = rotation(-1.1) @ np.diag([1.0, np.exp(0.2j)])
        settings = ModuleSettings(theta=0.5, phi=1.2, pre_unitary=pre, exit_unitary=exit_u)
        network = module_network(settings)
        psi = random_pure_state(rng)
        out = propagate(PhotonState.pure(network.input, psi), network)
        p1, p2 = network.exits
        exit_op, pass_op = module_transfers(settings)
        np.testing.assert_allclose(out.mode_vector(p1), exit_op @ psi, atol=1e-12)
        np.testing.assert_allclose(out.mode_vector(p2), pass_op @ psi, atol=1e-12)
        exit_transfer = np.diag([math.cos(0.5), math.cos(1.2)])
        pass_transfer = np.diag([math.sin(0.5), math.sin(1.2)])
        np.testing.assert_allclose(exit_op, exit_u @ exit_transfer @ pre, atol=1e-15)
        np.testing.assert_allclose(pass_op, pass_transfer @ pre, atol=1e-15)

    def test_fully_transmissive_module_passes_input_through(self):
        settings = ModuleSettings(theta=0.0, phi=0.0)
        network = module_network(settings)
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
            network = module_network(settings)
            transfer = transfer_matrices(network)
            for mode in network.dark_ports:
                assert max_abs(transfer[mode]) <= 1e-10, mode

    def test_module_contains_five_beamsplitters(self):
        network = module_network(ModuleSettings(theta=0.3, phi=0.7))
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
            assert abs(total_probability(out) - 1.0) <= 1e-12


def reference_network(plan):
    """(elements, exits, dark ports, external inputs) of the plan's network,
    written out with the record constructors, one module after another."""
    elements, exits, darks = [], [], []
    inputs = [ModeLabel(1, "in")]
    current = ModeLabel(1, "in")
    for j, settings in enumerate(plan.modules, start=1):
        s1, s2, t1, t2, t3, t4, p1, p2, dark1, dark2, vac_in, vac_s1, vac_s2 = (
            ModeLabel(j, name) for name in "s1 s2 t1 t2 t3 t4 p1 p2 dark1 dark2 vac_in vac_s1 vac_s2".split()
        )
        elements += [
            ModeUnitary(current, settings.pre_unitary),
            PolarizingBeamsplitter(current, vac_in, s1, s2),
            Rotator(s1, settings.theta),
            Rotator(s2, settings.phi),
            Rotator(s1, math.pi / 2),
            PolarizingBeamsplitter(s1, vac_s1, t1, t2),
            PolarizingBeamsplitter(s2, vac_s2, t4, t3),
            Rotator(t2, -math.pi / 2),
            Rotator(t1, math.pi),
            Rotator(t4, math.pi / 2),
            Rotator(t4, math.pi),
            PhaseShifter(t2, settings.zeta),
            PhaseShifter(t1, settings.xi),
            PolarizingBeamsplitter(t2, t3, p1, dark1),
            PolarizingBeamsplitter(t1, t4, p2, dark2),
            ModeUnitary(p1, settings.exit_unitary),
        ]
        exits.append(p1)
        darks += [dark1, dark2]
        inputs += [vac_in, vac_s1, vac_s2]
        current = p2
    elements.append(ModeUnitary(current, plan.final_exit_unitary))
    exits.append(current)
    return elements, exits, darks, inputs


def typed(items):
    """Each item as its exact kind and fields, every field with its kind too, so
    a ModeUnitary (equal only to itself) is compared by its mode and matrix, and
    a label compares unequal to a plain tuple with the same values."""
    return [(type(item), [(type(field), field) for field in item]) for item in items]


def network_records(network):
    return [typed(part) for part in (network.elements, network.exits, network.dark_ports, network.external_inputs())]


class TestSharedLayout:
    """The settings-free part of each module is made once per process and shared."""

    def test_networks_match_the_written_out_layout(self):
        # n = 80 first, so the smaller builds read layouts that are already there;
        # then two different plans of one n back to back
        povms = [random_povm(80, 1), random_povm(2, 2), random_povm(12, 3), random_povm(3, 4)]
        povms += [random_povm(12, 5), random_rank_one_povm(12, 6)]
        plans = [synthesize_cascade(kraus_from_povm(povm)) for povm in povms]
        networks = [build_cascade_network(plan) for plan in plans]
        for plan, network in zip(plans, networks):
            assert network_records(network) == [typed(part) for part in reference_network(plan)]
            assert typed([network.input]) == typed([ModeLabel(1, "in")])
        # a plan value leaking into a shared record would move the second plan's maps
        transfer = transfer_matrices(networks[-1])
        for mode, operator in zip(networks[-1].exits, reconstruct_kraus(plans[-1]), strict=True):
            assert max_abs(transfer[mode] - operator) <= 1e-14, mode
        # a module's input is the previous pass arm itself, as the walk's table holds it
        for network in networks:
            assert network.input is network.elements[0].mode
            for start in range(16, len(network.elements) - 1, 16):
                assert network.elements[start].mode is network.elements[start - 2].out_a
        # the fixed beamsplitter on the input of module 2 is one record in every network
        split = [network.elements[17] for network in networks if len(network.exits) > 2]
        p2, vac_in, s1, s2 = ModeLabel(1, "p2"), ModeLabel(2, "vac_in"), ModeLabel(2, "s1"), ModeLabel(2, "s2")
        assert len(split) == 5 and split[0] == PolarizingBeamsplitter(p2, vac_in, s1, s2)
        assert all(record is split[0] for record in split)

    def test_concurrent_first_builds_give_the_serial_networks(self):
        plans = [synthesize_cascade(kraus_from_povm(random_povm(n, n))) for n in range(2, 41)]
        serial = [network_records(build_cascade_network(plan)) for plan in plans]
        results = {}
        start = threading.Barrier(4, timeout=60)

        def build(worker):
            # each thread walks the sizes from its own starting point
            order = list(range(len(plans)))
            start.wait()
            for k in order[9 * worker :] + order[: 9 * worker]:
                results[worker, k] = network_records(build_cascade_network(plans[k]))

        interval = sys.getswitchinterval()
        optics._module_layout.cache_clear()  # every layout is first made by one of the threads
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(worker,)) for worker in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == 4 * len(plans)
        assert all(records == serial[k] for (_, k), records in results.items())


class TestBuiltPorts:
    """A cascade build supplies the vacuum ports that a hand-made network walks for."""

    @staticmethod
    def assert_ports_of_the_walk(plans):
        for plan in plans:
            network = build_cascade_network(plan)
            # the build filled the walk's cache slot before any read, and that tuple
            # is the one read; a bare copy has the slot empty until it walks
            slot = OpticalNetwork._external_inputs.attrname
            ports = vars(network)[slot]
            assert network.external_inputs() is ports
            bare = OpticalNetwork(network.elements, network.exits, network.input, network.dark_ports)
            assert slot not in vars(bare)
            # the same ports in the walk's order, as records of the same kinds
            assert typed(network.external_inputs()) == typed(bare.external_inputs())
            assert len(network.external_inputs()) == 1 + 3 * len(plan.modules)

    def test_built_ports_equal_the_walk_for_both_families(self):
        plans = [
            synthesize_cascade(kraus_from_povm(family(n, n)))
            for family in (random_povm, random_rank_one_povm)
            for n in range(2, 81)
        ]
        self.assert_ports_of_the_walk(plans)
        # layouts made afresh, in a new order, give the same ports
        optics._module_layout.cache_clear()
        self.assert_ports_of_the_walk(plans[::-1])

    def test_built_ports_equal_the_walk_beyond_the_layout_cache(self):
        # 4,097 modules: the first layouts have left the cache when the build ends
        plan = synthesize_cascade(kraus_from_povm(random_povm(4098, 3)))
        assert len(plan.modules) > optics._module_layout.cache_info().maxsize
        self.assert_ports_of_the_walk([plan])


class TestPropagate:
    def test_empty_network_is_identity(self):
        network = OpticalNetwork((), (IN,), IN)
        out = propagate(PhotonState.pure(IN, [0.6, 0.8]), network)
        np.testing.assert_allclose(out.mode_vector(IN), [0.6, 0.8])

    def test_external_inputs_are_the_modes_consumed_before_produced(self):
        plan = synthesize_cascade(kraus_from_povm(random_povm(4, 2)))
        for network in (module_network(ModuleSettings(theta=0.1, phi=0.2)), build_cascade_network(plan)):
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
        network = module_network(ModuleSettings(theta=0.1, phi=0.2))
        with pytest.raises(UnknownMode):
            propagate(PhotonState.pure(ModeLabel(9, "nowhere"), [1.0, 0.0]), network)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_amplitude_raises_where_it_enters(self, bad):
        network = module_network(ModuleSettings(theta=0.1, phi=0.2))
        message = f"input mode {network.input} has non-finite amplitudes"
        with pytest.raises(ValueError, match=re.escape(message)):
            propagate(PhotonState.pure(network.input, [bad, 0.0]), network)

    @pytest.mark.parametrize(
        "amplitudes, shape",
        [([1, 2, 3], (3,)), ([[1, 0], [0, 1]], (2, 2)), (1.0, ())],
        ids=["three", "matrix", "scalar"],
    )
    def test_pure_state_of_the_wrong_shape_is_a_value_error(self, amplitudes, shape):
        with pytest.raises(ValueError, match=re.escape(f"a pure state needs 2 amplitudes, got shape {shape}")):
            PhotonState.pure(IN, amplitudes)

    def test_non_finite_vacuum_pair_raises_where_it_enters(self):
        network = module_network(ModuleSettings(theta=0.1, phi=0.2))
        vacuum = ModeLabel(1, "vac_in")
        assert vacuum in network.external_inputs()
        state = PhotonState({network.input: (0.6, 0.8), vacuum: (0j, complex(math.nan))})
        with pytest.raises(ValueError, match=re.escape(f"input mode {vacuum} has non-finite amplitudes")):
            propagate(state, network)

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
            assert abs(total_probability(out) - 1.0) <= 1e-12

    def test_caller_state_is_left_untouched(self):
        network = build_cascade_network(synthesize_cascade(kraus_from_povm(random_povm(6, 13))))
        pbs = PolarizingBeamsplitter(IN, AUX, OUT_A, OUT_B)
        cases = [
            (PhotonState.pure(network.input, [0.6, 0.8j]), lambda state: propagate(state, network)),
            (state_with_vacuum(IN, [0.6, 0.8j], AUX), lambda state: apply_one(state, pbs, OUT_A, OUT_B)),
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
        for walk in WALKS:
            with pytest.raises(ValueError, match="already occupied"):
                walk(PhotonState.pure(IN, [0.6, 0.8]), network)

    def test_beamsplitter_with_one_output_mode_raises(self):
        # the second output would overwrite the first and lose its light
        network = OpticalNetwork((PolarizingBeamsplitter(IN, AUX, OUT_A, OUT_A),), (OUT_A,), IN)
        state = PhotonState({IN: (0.6, 0.0), AUX: (0.0, 0.8)})
        for walk in WALKS:
            with pytest.raises(ValueError, match=re.escape(f"beamsplitter output mode {OUT_A} already occupied")):
                walk(state, network)

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


SLOT = st.integers(0, 3)
STEP = st.one_of(
    st.tuples(st.just("beamsplitter"), SLOT, st.integers(1, 3)),
    st.tuples(st.just("rotator"), SLOT, ANGLE),
    st.tuples(st.just("phase"), SLOT, ANGLE),
    st.tuples(st.just("unitary"), SLOT, ANGLE, ANGLE, ANGLE),
)


def dense_network(steps):
    """Steps on four path slots, as an OpticalNetwork and as one dense 8x8
    matrix per element on the (slot, polarization) basis, entry 2 * slot + pol.

    Returns (network, the slots' input labels, their final labels, matrices).
    A beamsplitter on slots i, j gives both slots fresh labels.
    """
    first = [ModeLabel(0, f"slot{i}") for i in range(4)]
    labels = list(first)
    elements, matrices = [], []
    for k, (kind, slot, *params) in enumerate(steps, start=1):
        dense = np.eye(8, dtype=complex)
        if kind == "beamsplitter":
            other = (slot + params[0]) % 4
            outputs = ModeLabel(k, "a"), ModeLabel(k, "b")
            elements.append(PolarizingBeamsplitter(labels[slot], labels[other], *outputs))
            labels[slot], labels[other] = outputs
            # H stays on its slot; the V entries of the two slots trade places
            dense[[2 * slot + 1, 2 * other + 1]] = dense[[2 * other + 1, 2 * slot + 1]]
        else:
            if kind == "rotator":
                element, block = Rotator(labels[slot], params[0]), rotation(params[0])
            elif kind == "phase":
                element, block = PhaseShifter(labels[slot], params[0]), np.exp(1j * params[0]) * I2
            else:
                a, b, c = params
                block = np.exp(1j * c) * rotation(a) @ np.diag([1.0, np.exp(1j * b)])
                element = ModeUnitary(labels[slot], block)
            elements.append(element)
            dense[2 * slot : 2 * slot + 2, 2 * slot : 2 * slot + 2] = block
        matrices.append(dense)
    return OpticalNetwork(tuple(elements), tuple(labels), first[0]), first, labels, matrices


@settings(max_examples=200, deadline=None, derandomize=True)
@given(steps=st.lists(STEP, max_size=10), seed=st.integers(0, 2**32 - 1))
def test_propagate_matches_dense_mode_polarization_model(steps, seed):
    # beamsplitters over up to four modes mixed with one-mode elements, fed
    # a state on every external input the network has
    network, first, labels, matrices = dense_network(steps)
    rng = np.random.default_rng(seed)
    live = [mode in network.external_inputs() for mode in first]
    vec = np.zeros(8, dtype=complex)
    for i, on in enumerate(live):
        if on:
            vec[2 * i : 2 * i + 2] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    vec /= np.linalg.norm(vec)
    state = PhotonState({mode: tuple(vec[2 * i : 2 * i + 2].tolist()) for i, mode in enumerate(first) if live[i]})
    out = propagate(state, network)
    for dense in matrices:
        vec = dense @ vec
    assert set(out.amplitudes) == {mode for mode, on in zip(labels, live) if on}
    for i, mode in enumerate(labels):
        assert max_abs(out.mode_vector(mode) - vec[2 * i : 2 * i + 2]) <= 1e-15, mode


@settings(max_examples=200, deadline=None, derandomize=True)
@given(steps=st.lists(STEP, max_size=10))
def test_transfer_matrices_is_both_propagations_in_one_walk(steps):
    # the one walk must hold the bits of two propagations, |H> and |V> in turn
    network, first, labels, matrices = dense_network(steps)
    transfer = transfer_matrices(network)
    from_h = propagate(PhotonState.pure(network.input, [1.0, 0.0]), network).amplitudes
    from_v = propagate(PhotonState.pure(network.input, [0.0, 1.0]), network).amplitudes
    assert list(transfer) == list(from_h) == list(from_v)
    for mode, t in transfer.items():
        assert t.tobytes() == np.array(list(zip(from_h[mode], from_v[mode]))).tobytes(), mode
    # and agree with the dense model's input column (slot 0, both polarizations)
    column = np.eye(8, dtype=complex)[:, :2]
    for dense in matrices:
        column = dense @ column
    live = [mode in network.external_inputs() for mode in first]
    assert set(transfer) == {mode for mode, on in zip(labels, live) if on}
    for i, mode in enumerate(labels):
        if live[i]:
            assert max_abs(transfer[mode] - column[2 * i : 2 * i + 2]) <= 1e-15, mode


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
                record.polarization, gauge(target / math.sqrt(p)), atol=1e-12
            )

    def test_polarization_pivot_is_exactly_real(self):
        # the gauge sets the pivot to its modulus, so no round-off imaginary
        # part can print as "-0.000000j"
        kraus = kraus_from_povm(random_povm(20, 4))
        network = build_cascade_network(synthesize_cascade(kraus))
        rng = np.random.default_rng(20)
        for _ in range(5):
            out = propagate(PhotonState.pure(network.input, random_pure_state(rng)), network)
            for record in exit_amplitudes(out, network):
                if record.polarization is not None:
                    pivot = record.polarization[int(np.argmax(np.abs(record.polarization)))]
                    assert pivot.imag == 0.0 and pivot.real > 0.0

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
            oracle = outcome_probabilities(density_matrix(np.outer(psi, psi.conj())), kraus)
            for record, expected in zip(records, oracle):
                assert record.probability == pytest.approx(expected.probability, abs=1e-9)

    def test_polarization_is_the_gauge_of_numpys_normalized_pair_bit_for_bit(self):
        # the scalar read must keep the zero signs of numpy's complex division by
        # sqrt(p), which a plain product by 1 / sqrt(p) flips
        parts = (0.0, -0.0, 0.3, -0.7)
        pairs = [(complex(a, b), complex(c, d)) for a in parts for b in parts for c in (0.0, -0.0, 0.6) for d in (-0.0, 0.8)]
        for h, v in pairs:
            vec = np.array([h, v])
            p = float(np.vdot(vec, vec).real)
            (record,) = exit_amplitudes(PhotonState({IN: (h, v)}), OpticalNetwork((), (IN,), IN))
            assert record.probability == p
            if p == 0.0:
                assert record.polarization is None
            else:
                assert record.polarization.tobytes() == gauge(vec / math.sqrt(p)).tobytes(), (h, v)


def per_exit_read(state, network):
    """exit_amplitudes as one numpy read per exit, the reference the stacked read
    must match bit for bit: np.vdot, numpy's division by math.sqrt(p), the gauge."""
    records = []
    for i, mode in enumerate(network.exits, start=1):
        vec = np.array(state.amplitudes.get(mode, (0j, 0j)), dtype=complex)
        p = float(np.vdot(vec, vec).real)
        records.append((i, p, gauge(vec / math.sqrt(p)) if p >= PROBABILITY_FLOOR else None))
    return records


def assert_exit_read_bits(state, network):
    records = exit_amplitudes(state, network)
    expected = per_exit_read(state, network)
    assert len(records) == len(expected)
    for record, (i, p, polarization) in zip(records, expected):
        assert record.index == i
        assert type(record.probability) is float
        assert np.float64(record.probability).tobytes() == np.float64(p).tobytes(), (i, record.probability, p)
        if polarization is None:
            assert record.polarization is None, i
        else:
            assert isinstance(record.polarization, np.ndarray) and record.polarization.dtype == complex
            assert record.polarization.tobytes() == polarization.tobytes(), i


class TestStackedExitRead:
    """exit_amplitudes reads all exits in one stacked pass; every bit must be
    the per-exit read's, on both cascade families and on hand-made pairs."""

    @pytest.mark.parametrize("family", [random_povm, random_rank_one_povm], ids=["random", "rank_one"])
    @pytest.mark.parametrize("n", [2, 5, 17, 40])
    def test_cascade_exits_match_the_per_exit_read(self, family, n):
        network = build_cascade_network(synthesize_cascade(kraus_from_povm(family(n, n))))
        rng = np.random.default_rng(n)
        inputs = [[1.0, 0.0], [0.0, 1.0], [0.0, 1j]] + [random_pure_state(rng) for _ in range(6)]
        for psi in inputs:
            assert_exit_read_bits(propagate(PhotonState.pure(network.input, psi), network), network)

    def test_dead_exits_of_a_projective_plan(self):
        from povmcascade.povm import validate_kraus

        network = build_cascade_network(synthesize_cascade(validate_kraus([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])))
        for psi in ([0.0, 1.0], [1.0, 0.0], [0.6, 0.8j]):
            out = propagate(PhotonState.pure(network.input, psi), network)
            assert_exit_read_bits(out, network)
        assert exit_amplitudes(out, network)[0].polarization is not None

    def test_hand_made_pairs_on_many_exits(self):
        parts = (0.0, -0.0, 0.3, -0.7, 5e-324, -1e-310)
        pairs = [(complex(a, b), complex(c, d)) for a in parts for b in parts for c in (0.0, -0.0, 0.6) for d in (-0.0, 0.8, 2e-320)]
        nan = math.nan
        pairs += [(complex(nan, 0.0), 0j), (complex(nan, nan), complex(0.6, 0.0)), (0j, -0j), (-0j, 0j), (1e-6 + 0j, 0j)]
        modes = [ModeLabel(0, f"e{k}") for k in range(len(pairs))]
        absent = ModeLabel(0, "absent")
        state = PhotonState(dict(zip(modes, pairs)))
        # an exit the state does not carry, first, among the others and last
        network = OpticalNetwork((), (absent, *modes[:50], ModeLabel(1, "absent"), *modes[50:], ModeLabel(2, "absent")), IN)
        records = exit_amplitudes(state, network)
        assert sum(record.polarization is None for record in records) > 3
        assert sum(record.polarization is not None for record in records) > 100
        assert_exit_read_bits(state, network)
        # one exit at a time reads the same as among the others
        for mode in modes[::7]:
            assert_exit_read_bits(state, OpticalNetwork((), (mode,), IN))

    def test_no_exits_and_only_absent_exits(self):
        assert exit_amplitudes(PhotonState({IN: (0.6, 0.8)}), OpticalNetwork((), (), IN)) == []
        network = OpticalNetwork((), (OUT_A, OUT_B), IN)
        assert_exit_read_bits(PhotonState({IN: (0.6, 0.8)}), network)
        assert [record.polarization for record in exit_amplitudes(PhotonState({}), network)] == [None, None]


def table_free_walk(pair, elements):
    """The one-mode walk with each element's four coefficients computed from its
    angle by the walk's formulas, with no table: the reference for the table."""
    h, v = pair
    for element in elements:
        if type(element) is Rotator:
            c, s = complex(math.cos(element.angle)), complex(math.sin(element.angle))
            m00, m01, m10, m11 = c, -s, s, c
        else:
            m00 = m11 = cmath.exp(1j * element.phase)
            m01 = m10 = 0j
        if type(h) is complex:
            h, v = m00 * h + m01 * v, m10 * h + m11 * v
        else:
            (a, b), (c, d) = h, v
            h, v = (m00 * a + m01 * c, m00 * b + m01 * d), (m10 * a + m11 * c, m10 * b + m11 * d)
    return h, v


class TestCoefficientTable:
    """Rotators at the layout's fixed angles and phase shifters at zero read their
    coefficients from a table; every bit must be the formulas', whatever the
    angle's type and the sign of its zero."""

    ANGLES = [math.pi / 2, -math.pi / 2, math.pi, 0.37, np.float64(math.pi / 2), -math.pi]
    PHASES = [0.0, -0.0, 0, np.float64(0.0), np.float64(-0.0), False, 0.41]

    def elements(self):
        rotators = [Rotator(IN, angle) for angle in self.ANGLES]
        phases = [PhaseShifter(IN, phase) for phase in self.PHASES]
        # every element alone, then all of them in one chain, twice in turn
        return [(element,) for element in rotators + phases] + [tuple(rotators + phases) * 2]

    def test_propagate_matches_the_table_free_walk(self):
        parts = (0.0, -0.0, 0.6, -0.8)
        pairs = [(complex(a, b), complex(c, d)) for a in parts for b in parts for c in parts for d in (0.0, -0.0, 0.8)]
        for elements in self.elements():
            network = OpticalNetwork(elements, (IN,), IN)
            for pair in pairs:
                out = propagate(PhotonState({IN: pair}), network).amplitudes[IN]
                expected = table_free_walk(pair, elements)
                assert np.array(out).tobytes() == np.array(expected).tobytes(), (elements, pair)

    def test_transfer_matrices_match_the_table_free_walk(self):
        for elements in self.elements():
            rows = table_free_walk(((1 + 0j, 0j), (0j, 1 + 0j)), elements)
            assert transfer_matrices(OpticalNetwork(elements, (IN,), IN))[IN].tobytes() == np.array(rows).tobytes()

    def test_a_cascade_walk_matches_the_walk_without_table(self, monkeypatch):
        network = build_cascade_network(synthesize_cascade(kraus_from_povm(random_povm(6, 6))))
        state = PhotonState.pure(network.input, random_pure_state(np.random.default_rng(6)))
        with_table = propagate(state, network).amplitudes, transfer_matrices(network)
        monkeypatch.setattr(optics, "_FIXED", {Rotator: {}, PhaseShifter: {}})
        without = propagate(state, network).amplitudes, transfer_matrices(network)
        assert repr(with_table[0]) == repr(without[0])
        assert list(with_table[1]) == list(without[1])
        assert all(with_table[1][mode].tobytes() == without[1][mode].tobytes() for mode in with_table[1])

    @pytest.mark.parametrize("kind", [Rotator, PhaseShifter])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan), complex(math.pi / 2), 0j, 1j])
    def test_bad_angles_raise_as_before(self, kind, bad):
        # the finiteness check comes before the table: a complex angle equal to a
        # tabled value is still turned away by math.isfinite
        if isinstance(bad, complex):
            with pytest.raises(TypeError) as expected:
                math.isfinite(bad)
            error, message = TypeError, f"^{re.escape(str(expected.value))}$"
        else:
            error, message = ValueError, f"^{re.escape(f'{kind.__name__} on mode {IN} has non-finite angle {bad!r}')}$"
        for walk in WALKS:
            with pytest.raises(error, match=message):
                walk(PhotonState.pure(IN, [0.6, 0.8]), OpticalNetwork((kind(IN, bad),), (IN,), IN))


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
        return module_network(settings)
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
            assert set(transfer) == set(out.amplitudes)
            for mode in out.amplitudes:
                assert max_abs(transfer[mode] @ psi - out.mode_vector(mode)) <= 1e-14, mode

    def test_live_modes_come_in_walk_order(self):
        # the walk's order of live modes fixes the summation order, and so
        # the bits, of verify_plan's norm residual; the exit unitary on p1 and
        # then the final unitary on p2 act last, so those two come last
        network = module_network(ModuleSettings(0.3, 0.7))
        names = ["dark1", "dark2", "p1", "p2"]
        assert list(transfer_matrices(network)) == [ModeLabel(1, name) for name in names]

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
