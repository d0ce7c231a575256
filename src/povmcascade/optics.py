"""Element-level simulator for the polarizing-beamsplitter cascade.

The photon lives on (path mode, polarization) pairs.  A single module is
five polarizing beamsplitters plus rotators and phase shifters: the input
is split into path s1 (H component) and s2 (V component), rotated by the
variable angles theta and phi, fanned out onto paths t1..t4 by two more
beamsplitters, and recombined by beamsplitters P1 (t2 + t3 -> p1) and
P2 (t1 + t4 -> p2).  Fixed +-pi/2 and pi rotators make the interference
work out so that, for input a|H> + b|V>,

    p1 carries  e^{i zeta} a cos(theta)|H> + b cos(phi)|V>
    p2 carries  e^{i xi}   a sin(theta)|H> + b sin(phi)|V>

and the second output port of each recombining beamsplitter stays dark.
All beamsplitters share one polarization basis: H transmits, V reflects,
with no extra reflection phase (any physical phase belongs to the unitary
elements).  Vacuum inputs are explicit zero-amplitude modes, which makes
the whole transfer manifestly unitary.

propagate keeps one amplitude table per call and lets each element act on
it in place, so a network costs the same per element at any depth; the
caller's state is never modified.  Each element updates the table with
Python-complex arithmetic on the four entries of its 2x2 matrix, with no
numpy call per element.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Union

import numpy as np

from .povm import PROBABILITY_FLOOR
from .qmath import as_matrix2, phase_fixed
from .synthesis import CascadePlan, ModuleSettings

__all__ = [
    "H",
    "V",
    "UnknownMode",
    "ModeLabel",
    "PhotonState",
    "PolarizingBeamsplitter",
    "Rotator",
    "PhaseShifter",
    "ModeUnitary",
    "OpticalElement",
    "OpticalNetwork",
    "ExitAmplitude",
    "apply_element",
    "propagate",
    "transfer_matrices",
    "exit_amplitudes",
    "build_module_network",
    "build_cascade_network",
]

H = "H"
V = "V"


class UnknownMode(ValueError):
    """A mode referenced by an element or state is not available."""

    def __init__(self, mode: "ModeLabel"):
        super().__init__(f"unknown mode {mode}")
        self.mode = mode


class ModeLabel(NamedTuple):
    """Path mode identifier: (module index, symbolic name).

    Module-internal names follow the physical layout: in, s1, s2, t1..t4,
    p1, p2, plus explicit vacuum ports (vac_*) and the dark output ports
    (dark1, dark2) of the recombining beamsplitters.  Exit modes of a
    cascade are the p1 arms of each module and the p2 arm of the last one.
    """

    module_index: int
    name: str


@dataclass
class PhotonState:
    """Single-photon amplitudes keyed by (mode, polarization).

    Live modes carry explicit entries for both polarizations; a unit-norm
    state has total probability 1.
    """

    amplitudes: dict[tuple[ModeLabel, str], complex]

    @classmethod
    def pure(cls, mode: ModeLabel, amplitudes) -> "PhotonState":
        a, b = (complex(x) for x in np.asarray(amplitudes, dtype=complex))
        return cls({(mode, H): a, (mode, V): b})

    def modes(self) -> set[ModeLabel]:
        return {mode for mode, _ in self.amplitudes}

    def mode_vector(self, mode: ModeLabel) -> np.ndarray:
        """(H, V) amplitude pair on one mode (zeros if absent)."""
        return np.array(
            [self.amplitudes.get((mode, H), 0.0), self.amplitudes.get((mode, V), 0.0)],
            dtype=complex,
        )

    def total_probability(self) -> float:
        return float(sum(abs(a) ** 2 for a in self.amplitudes.values()))


@dataclass(frozen=True)
class PolarizingBeamsplitter:
    """Two-port PBS: H transmits straight through, V reflects to the other output."""

    in_a: ModeLabel
    in_b: ModeLabel
    out_a: ModeLabel
    out_b: ModeLabel


@dataclass(frozen=True)
class Rotator:
    """Polarization rotator |H> -> cos|H> + sin|V>, |V> -> cos|V> - sin|H>."""

    mode: ModeLabel
    angle: float


@dataclass(frozen=True)
class PhaseShifter:
    """Path phase e^{i phase} on one mode (both polarizations)."""

    mode: ModeLabel
    phase: float


@dataclass(frozen=True)
class ModeUnitary:
    """Arbitrary polarization unitary acting on one mode."""

    mode: ModeLabel
    matrix: np.ndarray


OpticalElement = Union[PolarizingBeamsplitter, Rotator, PhaseShifter, ModeUnitary]


@dataclass(frozen=True)
class OpticalNetwork:
    """Ordered elements plus bookkeeping: input, exits in outcome order, dark ports."""

    elements: tuple[OpticalElement, ...]
    exits: tuple[ModeLabel, ...]
    input: ModeLabel
    dark_ports: tuple[ModeLabel, ...] = ()

    def external_inputs(self) -> tuple[ModeLabel, ...]:
        """Modes consumed by some element before any element produced them.

        These are the photon input plus the vacuum ports; propagate seeds
        them all with explicit zero amplitudes.  Computed once per network.
        """
        return self._external_inputs

    @cached_property
    def _external_inputs(self) -> tuple[ModeLabel, ...]:
        produced: set[ModeLabel] = set()
        needed: list[ModeLabel] = [self.input]
        seen: set[ModeLabel] = {self.input}
        for element in self.elements:
            if isinstance(element, PolarizingBeamsplitter):
                inputs = (element.in_a, element.in_b)
                outputs = (element.out_a, element.out_b)
            else:
                inputs = (element.mode,)
                outputs = ()
            for mode in inputs:
                if mode not in produced and mode not in seen:
                    needed.append(mode)
                    seen.add(mode)
            produced.update(outputs)
        return tuple(needed)


class ExitAmplitude(NamedTuple):
    """Per-exit statistics: 1-based exit index, probability, and the
    normalized conditional polarization (None below the probability floor)."""

    index: int
    probability: float
    polarization: np.ndarray | None


def _mode_pair(amps, mode: ModeLabel) -> tuple[complex, complex]:
    try:
        return amps.pop((mode, H)), amps.pop((mode, V))
    except KeyError:
        raise UnknownMode(mode) from None


def _act(amps, element: OpticalElement) -> None:
    """Act with one element on an amplitude table, in place."""
    if isinstance(element, PolarizingBeamsplitter):
        a_h, a_v = _mode_pair(amps, element.in_a)
        b_h, b_v = _mode_pair(amps, element.in_b)
        for key in ((element.out_a, H), (element.out_a, V), (element.out_b, H), (element.out_b, V)):
            if key in amps:
                raise ValueError(f"beamsplitter output mode {key[0]} already occupied")
        amps[(element.out_a, H)] = a_h
        amps[(element.out_a, V)] = b_v
        amps[(element.out_b, H)] = b_h
        amps[(element.out_b, V)] = a_v
        return
    # Four Python-complex coefficients, no numpy call per element; complex
    # rotator entries keep the image of a float amplitude complex
    if isinstance(element, Rotator):
        c, s = complex(math.cos(element.angle)), complex(math.sin(element.angle))
        m00, m01, m10, m11 = c, -s, s, c
    elif isinstance(element, PhaseShifter):
        m00 = m11 = cmath.exp(1j * element.phase)
        m01 = m10 = 0j
    elif isinstance(element, ModeUnitary):
        (m00, m01), (m10, m11) = as_matrix2(element.matrix).tolist()
    else:
        raise TypeError(f"not an optical element: {element!r}")
    a_h, a_v = _mode_pair(amps, element.mode)
    amps[(element.mode, H)] = m00 * a_h + m01 * a_v
    amps[(element.mode, V)] = m10 * a_h + m11 * a_v


def apply_element(state: PhotonState, element: OpticalElement) -> PhotonState:
    """Act with one element; amplitudes on untouched modes pass through.

    Returns a new state; the caller's state is left untouched.
    """
    amps = dict(state.amplitudes)
    _act(amps, element)
    return PhotonState(amps)


def propagate(state: PhotonState, network: OpticalNetwork) -> PhotonState:
    """Feed a state through the network, seeding all vacuum ports with zeros.

    The input state must live on the network's external input modes.  The
    elements act in place on one fresh amplitude table per call, so the cost
    is linear in the number of elements and the caller's state is left
    untouched.
    """
    external = network.external_inputs()
    allowed = set(external)
    for mode in state.modes():
        if mode not in allowed:
            raise UnknownMode(mode)
    amps = {(mode, pol): 0.0j for mode in external for pol in (H, V)}
    amps.update({k: complex(v) for k, v in state.amplitudes.items()})
    for element in network.elements:
        _act(amps, element)
    return PhotonState(amps)


def transfer_matrices(network: OpticalNetwork) -> dict[ModeLabel, np.ndarray]:
    """The network's linear map, read off by propagating |H> and |V> once each.

    For every mode a propagated state carries (exits, dark ports and any
    other live mode), the 2x2 matrix T with
    ``propagate(PhotonState.pure(network.input, psi), network).mode_vector(mode)
    == T @ psi``: column 0 is the image of |H>, column 1 of |V>.
    """
    from_h = propagate(PhotonState.pure(network.input, (1.0, 0.0)), network).amplitudes
    from_v = propagate(PhotonState.pure(network.input, (0.0, 1.0)), network).amplitudes
    modes = list(dict.fromkeys(mode for mode, _ in from_h))
    stacked = np.array([[[from_h[(m, p)], from_v[(m, p)]] for p in (H, V)] for m in modes], dtype=complex)
    return dict(zip(modes, stacked))


def exit_amplitudes(state: PhotonState, network: OpticalNetwork) -> list[ExitAmplitude]:
    """Probability and conditional polarization at each exit of a propagated state.

    Conditional states are reported in the fixed phase gauge (largest
    component real positive); exits with probability below PROBABILITY_FLOOR
    get None.
    """
    records = []
    for i, mode in enumerate(network.exits, start=1):
        vec = state.mode_vector(mode)
        p = float(np.vdot(vec, vec).real)
        if p >= PROBABILITY_FLOOR:
            records.append(ExitAmplitude(i, p, phase_fixed(vec / math.sqrt(p))))
        else:
            records.append(ExitAmplitude(i, p, None))
    return records


def _module_elements(settings: ModuleSettings, index: int, input_mode: ModeLabel):
    """Elements of one module in signal-path order, faithful to the layout."""

    def mode(name: str) -> ModeLabel:
        return ModeLabel(index, name)

    s1, s2 = mode("s1"), mode("s2")
    t1, t2, t3, t4 = mode("t1"), mode("t2"), mode("t3"), mode("t4")
    p1, p2 = mode("p1"), mode("p2")
    dark1, dark2 = mode("dark1"), mode("dark2")
    elements = [
        ModeUnitary(input_mode, settings.pre_unitary),
        PolarizingBeamsplitter(input_mode, mode("vac_in"), s1, s2),
        Rotator(s1, settings.theta),
        Rotator(s2, settings.phi),
        Rotator(s1, math.pi / 2),
        PolarizingBeamsplitter(s1, mode("vac_s1"), t1, t2),
        PolarizingBeamsplitter(s2, mode("vac_s2"), t4, t3),
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
    return elements, p1, p2, (dark1, dark2)


def build_module_network(settings: ModuleSettings, module_index: int = 1) -> OpticalNetwork:
    """Standalone two-exit module: exit 1 is the p1 arm (after the exit
    unitary), exit 2 the bare p2 arm that would feed a following module."""
    input_mode = ModeLabel(module_index, "in")
    elements, p1, p2, darks = _module_elements(settings, module_index, input_mode)
    return OpticalNetwork(tuple(elements), (p1, p2), input_mode, darks)


def build_cascade_network(plan: CascadePlan) -> OpticalNetwork:
    """Chain the plan's modules: module j's pass arm feeds module j + 1, and
    the final pass arm becomes the last exit after the plan's final unitary."""
    elements: list[OpticalElement] = []
    exits: list[ModeLabel] = []
    darks: list[ModeLabel] = []
    input_mode = ModeLabel(1, "in")
    current = input_mode
    for j, settings in enumerate(plan.modules, start=1):
        module_elements, p1, p2, module_darks = _module_elements(settings, j, current)
        elements.extend(module_elements)
        exits.append(p1)
        darks.extend(module_darks)
        current = p2
    elements.append(ModeUnitary(current, plan.final_exit_unitary))
    exits.append(current)
    return OpticalNetwork(tuple(elements), tuple(exits), input_mode, tuple(darks))
