"""Element-level simulator for the polarizing-beamsplitter cascade.

The photon state holds one (H, V) amplitude pair per path mode: every
rotator, phase shifter and polarization unitary acts on the pair of one
mode, and every polarizing beamsplitter routes the pairs of two modes.  A
single module is
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

The elements are immutable records: each is one tuple of its fields
(``typing.NamedTuple``).  Of a module's 16 elements, the 10 that carry no
setting (its five beamsplitters and five fixed rotators) and its 13 mode
labels, its three vacuum ports among them, are made once per process, keyed
by the module's index alone (the 4,096 used last are kept), and shared by
every network built in it, so a build makes only the six records per module
that hold the plan's values, and ``is`` can hold between two networks'
elements and labels.  A build also hands the network its vacuum ports, so
no walk has to find them.  Equality is typed: two elements are equal when
they are of the same exact kind with equal fields, so a Rotator never equals
a PhaseShifter or a plain tuple with the same values.  A ModeUnitary, which
holds a matrix, compares by identity.  Elements have no order: < and its kin
raise TypeError.

propagate keeps one amplitude table per call and lets each element act on
it in place, in one loop, so a network costs the same per element at any
depth; the caller's state is never modified.  A rotator or phase shifter
reads its four coefficients from a table made once at import for the
layout's fixed rotator angles (pi/2, -pi/2 and pi) and the synthesizer's
phase 0.0, and computes them with math and cmath at any other angle.
Besides that and builtins (dict pops), the one call an element makes is a
ModeUnitary's, to qmath._matrix2_rows on its matrix.
Each element is dispatched on its exact type and read by unpacking its
fields; an object of any other type, a subclass of an element kind included,
is not an optical element, and network.external_inputs(), from which both
walks seed their table, turns it away with TypeError.  A beamsplitter moves
whole pairs between modes; a one-mode element replaces its mode's pair using
Python-complex arithmetic on the four entries of its 2x2 matrix.  A rotator
or phase shifter makes no numpy call; a ModeUnitary makes none when its
matrix is already rows of Python complex numbers, as a build makes it, and
goes through numpy otherwise.
transfer_matrices runs the same elements once over a table whose pairs are
the two rows of each mode's 2x2 map, so both input polarizations go through
the network in one walk.
exit_amplitudes reads all exits at once: their pairs in one array, every
probability in one stacked product with np.vdot's bits, one numpy division
by the square roots, and the phase gauge in Python on each live row.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Union

import numpy as np

from .povm import PROBABILITY_FLOOR
from .qmath import Rows2, _matrix2_rows, _phase_fixed
from .synthesis import CascadePlan

__all__ = [
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
    "propagate",
    "transfer_matrices",
    "exit_amplitudes",
    "build_cascade_network",
]


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
    """Single-photon amplitudes: one (H, V) pair of complex numbers per path mode.

    Every live mode carries its pair explicitly; a unit-norm state has total
    probability 1.
    """

    amplitudes: dict[ModeLabel, tuple[complex, complex]]

    @classmethod
    def pure(cls, mode: ModeLabel, amplitudes) -> "PhotonState":
        pair = np.asarray(amplitudes, dtype=complex)
        if pair.shape != (2,):
            raise ValueError(f"a pure state needs 2 amplitudes, got shape {pair.shape}")
        return cls({mode: tuple(pair.tolist())})

    def mode_vector(self, mode: ModeLabel) -> np.ndarray:
        """(H, V) amplitude pair on one mode (zeros if absent)."""
        return np.array(self.amplitudes.get(mode, (0j, 0j)), dtype=complex)


def _unordered(self, other):
    raise TypeError(f"optical elements have no order: {type(self).__name__}")


def _typed_equality(kind):
    """Give a tuple record typed equality: equal means the same exact kind and
    equal fields, never another kind or a plain tuple with the same values.
    The hash stays the tuple's, which equal records share.  Ordering raises
    TypeError, as tuple ordering would disagree with this equality."""
    # False for another kind, not NotImplemented: Python would fall back to tuple equality
    kind.__eq__ = lambda self, other: type(other) is type(self) and tuple.__eq__(self, other)
    kind.__ne__ = lambda self, other: not self == other
    kind.__lt__ = kind.__le__ = kind.__gt__ = kind.__ge__ = _unordered
    return kind


@_typed_equality
class PolarizingBeamsplitter(NamedTuple):
    """Two-port PBS: H transmits straight through, V reflects to the other output."""

    in_a: ModeLabel
    in_b: ModeLabel
    out_a: ModeLabel
    out_b: ModeLabel


@_typed_equality
class Rotator(NamedTuple):
    """Polarization rotator |H> -> cos|H> + sin|V>, |V> -> cos|V> - sin|H>."""

    mode: ModeLabel
    angle: float


@_typed_equality
class PhaseShifter(NamedTuple):
    """Path phase e^{i phase} on one mode (both polarizations)."""

    mode: ModeLabel
    phase: float


class ModeUnitary(NamedTuple):
    """Arbitrary polarization unitary acting on one mode.

    matrix is rows ``((m00, m01), (m10, m11))`` of Python complex numbers,
    as a plan's settings hold them and the walk reads them, or anything
    array-like; its shape and finiteness are checked where it acts.  It
    compares and hashes by identity, as the other holders of matrices do.
    """

    mode: ModeLabel
    matrix: Rows2

    __hash__ = object.__hash__

    def __eq__(self, other) -> bool:
        return self is other

    def __ne__(self, other) -> bool:
        return self is not other

    __lt__ = __le__ = __gt__ = __ge__ = _unordered


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

        These are the photon input plus the vacuum ports; propagate and
        transfer_matrices seed them all with explicit zeros.  A cascade build
        supplies them from its module layouts, in the order a walk would find
        them; a hand-made network walks its elements for them once, and one
        that holds a non-element raises TypeError here.
        """
        return self._external_inputs

    @cached_property
    def _external_inputs(self) -> tuple[ModeLabel, ...]:
        needed: dict[ModeLabel, None] = {self.input: None}  # an ordered set
        produced: set[ModeLabel] = set()
        for element in self.elements:
            kind = type(element)
            if kind is PolarizingBeamsplitter:
                in_a, in_b, out_a, out_b = element
                if in_a not in produced:
                    needed[in_a] = None
                if in_b not in produced:
                    needed[in_b] = None
                produced.add(out_a)
                produced.add(out_b)
            elif kind is Rotator or kind is PhaseShifter or kind is ModeUnitary:
                if element[0] not in produced:
                    needed[element[0]] = None
            else:
                raise TypeError(f"not an optical element: {element!r}")
        return tuple(needed)


class ExitAmplitude(NamedTuple):
    """Per-exit statistics: 1-based exit index, probability, and the
    normalized conditional polarization (None below the probability floor)."""

    index: int
    probability: float
    polarization: np.ndarray | None


def _coefficients(kind, angle) -> tuple[complex, complex, complex, complex]:
    """A rotator's or phase shifter's 2x2 matrix as four Python complex numbers
    (m00, m01, m10, m11); complex rotator entries keep the image of a float
    amplitude complex."""
    if kind is Rotator:
        c, s = complex(math.cos(angle)), complex(math.sin(angle))
        return c, -s, s, c
    phase = cmath.exp(1j * angle)
    return phase, 0j, 0j, phase


#: per kind, _coefficients at the layout's fixed rotator angles and at the phase 0.0 the
#: synthesizer sets, made once at import; the walk reads it for an angle of exact type float
_FIXED = {
    Rotator: {angle: _coefficients(Rotator, angle) for angle in (math.pi / 2, -math.pi / 2, math.pi)},
    # -0.0 finds 0.0's entry, so there is one only where the formula gives both zeros the same bits
    PhaseShifter: {0.0: one for one in [_coefficients(PhaseShifter, 0.0)] if repr(one) == repr(_coefficients(PhaseShifter, -0.0))},
}


def _walk(amps, network: OpticalNetwork) -> None:
    """Act with the network's elements in order on the amplitude table, in place.

    An entry is a mode's (H, V) pair: two complex amplitudes in propagate,
    or the two rows of the mode's 2x2 map in transfer_matrices.  Each element
    is dispatched on its exact type and read by unpacking its fields, in this
    one loop.  Both callers seed the table from network.external_inputs()
    first, which turns away a non-element with TypeError, so the loop reads
    any element that is not a beamsplitter, rotator or phase shifter as a
    ModeUnitary.  A rotator or phase shifter whose angle is an exact float
    found in _FIXED reads its coefficients there, and any other calls
    _coefficients; either way its angle's finiteness is checked first.  Besides these and
    builtins, the one call an element makes is a ModeUnitary's, to
    _matrix2_rows on its matrix.  An element's pop of a mode
    the table lacks, the one KeyError a walk can raise, becomes UnknownMode
    naming that mode.
    """
    pop = amps.pop
    try:
        for element in network.elements:
            kind = type(element)
            if kind is PolarizingBeamsplitter:
                in_a, in_b, out_a, out_b = element
                (a_h, a_v), (b_h, b_v) = pop(in_a), pop(in_b)
                # an output that is already live, or two outputs that are one mode, would lose a pair
                if out_a in amps or out_b in amps or out_b == out_a:
                    raise ValueError(f"beamsplitter output mode {out_a if out_a in amps else out_b} already occupied")
                amps[out_a], amps[out_b] = (a_h, b_v), (b_h, a_v)
                continue
            if kind is Rotator or kind is PhaseShifter:
                mode, angle = element
                # checked where the element acts, not at construction: networks are built per use
                if not math.isfinite(angle):
                    raise ValueError(f"{kind.__name__} on mode {mode} has non-finite angle {angle!r}")
                m00, m01, m10, m11 = (type(angle) is float and _FIXED[kind].get(angle)) or _coefficients(kind, angle)
            else:  # a ModeUnitary: external_inputs() has turned away anything else
                mode, matrix = element
                (m00, m01), (m10, m11) = _matrix2_rows(matrix)
            h, v = pop(mode)
            if type(h) is complex:
                amps[mode] = (m00 * h + m01 * v, m10 * h + m11 * v)
            else:
                # the H row (a, b) and V row (c, d): each column takes the products of a walk of its own
                (a, b), (c, d) = h, v
                amps[mode] = ((m00 * a + m01 * c, m00 * b + m01 * d), (m10 * a + m11 * c, m10 * b + m11 * d))
    except KeyError as missing:
        raise UnknownMode(missing.args[0]) from None


def propagate(state: PhotonState, network: OpticalNetwork) -> PhotonState:
    """Feed a state through the network, seeding all vacuum ports with zeros.

    The input state must live on the network's external input modes, with
    finite amplitudes.  The elements act in place on one fresh amplitude
    table per call, so the cost is linear in the number of elements and the
    caller's state is left untouched.
    """
    amps = dict.fromkeys(network.external_inputs(), (0j, 0j))
    for mode, (h, v) in state.amplitudes.items():
        if mode not in amps:
            raise UnknownMode(mode)
        h, v = complex(h), complex(v)
        if not (cmath.isfinite(h) and cmath.isfinite(v)):
            raise ValueError(f"input mode {mode} has non-finite amplitudes ({h!r}, {v!r})")
        amps[mode] = (h, v)
    _walk(amps, network)
    return PhotonState(amps)


def _transfer_rows(network: OpticalNetwork) -> dict[ModeLabel, Rows2]:
    """transfer_matrices before its conversion: each live mode's map as the
    walk leaves it, the pair of its two rows of Python complex numbers."""
    amps = dict.fromkeys(network.external_inputs(), ((0j, 0j), (0j, 0j))) | {network.input: ((1 + 0j, 0j), (0j, 1 + 0j))}
    _walk(amps, network)
    return amps


def transfer_matrices(network: OpticalNetwork) -> dict[ModeLabel, np.ndarray]:
    """The network's linear map, read off in one walk that carries |H> and |V> together.

    For every mode a propagated state carries (exits, dark ports and any
    other live mode), the 2x2 matrix T with
    ``propagate(PhotonState.pure(network.input, psi), network).mode_vector(mode)
    == T @ psi``: column 0 is the image of |H>, column 1 of |V>.  The walk
    seeds the input with the identity's rows and every vacuum port with
    zero rows, and each element acts on both columns with the scalar
    products propagate uses, so T holds the same bits as two propagations.
    """
    rows = _transfer_rows(network)
    return dict(zip(rows, np.array(list(rows.values()), dtype=complex)))


def exit_amplitudes(state: PhotonState, network: OpticalNetwork) -> list[ExitAmplitude]:
    """Probability and conditional polarization at each exit of a propagated state.

    Conditional states are reported in the fixed phase gauge (largest
    component real positive); exits with probability below PROBABILITY_FLOOR
    get None.  An exit the state does not carry reads as the pair (0j, 0j).
    """
    pairs = np.array([state.amplitudes.get(mode, (0j, 0j)) for mode in network.exits], dtype=complex).reshape(-1, 2)
    # each row's conjugate times the row in BLAS, not |h|^2 + |v|^2 in Python: the bits
    # np.vdot gives, whose fused multiply-adds no FMA-free Python order reproduces; unlike
    # np.vdot, matmul would warn of an overflowing or non-finite product
    with np.errstate(all="ignore"):
        probabilities = (pairs.conj()[:, None, :] @ pairs[:, :, None])[:, 0, 0].real
    live = probabilities >= PROBABILITY_FLOOR
    # numpy's division, not h * (1 / sqrt(p)) in Python: numpy divides by the complex
    # sqrt(p) + 0j, and the plain product would flip some zero parts' signs
    units = (pairs[live] / np.sqrt(probabilities[live])[:, None]).tolist()
    # the gauge on each live row in Python, then one array whose rows the records hold
    polarizations = iter(np.array([_phase_fixed(*unit)[0] for unit in units], dtype=complex).reshape(-1, 2))
    return [
        ExitAmplitude(i, p, next(polarizations) if on else None)
        for i, (p, on) in enumerate(zip(probabilities.tolist(), live.tolist()), start=1)
    ]


#: the names of a module's own modes; its input mode is the previous module's pass arm
_MODULE_MODES = "s1 s2 t1 t2 t3 t4 p1 p2 dark1 dark2 vac_in vac_s1 vac_s2".split()


@lru_cache(maxsize=4096)
def _module_layout(index: int):
    """The part of module `index` that no setting touches, made once per process
    and shared by every network: its input mode (module index - 1's pass arm,
    the same object), the labels the settings act on, its pass arm, dark
    ports and vacuum ports (vac_in, vac_s1, vac_s2, in the order a walk meets
    them), and its ten fixed records in three runs of signal-path order.  It
    holds no plan value.  Keyed by the index, not grown as a list in module
    order, which two threads building at once could fill with one layout twice.
    At about 2 KiB a module, the bound keeps at most some 8 MiB."""
    # tuple.__new__ takes the fields in declaration order and skips the Python
    # frame of a record's own __new__: half of what calling the class costs
    new = tuple.__new__
    s1, s2, t1, t2, t3, t4, p1, p2, dark1, dark2, vac_in, vac_s1, vac_s2 = [
        new(ModeLabel, (index, name)) for name in _MODULE_MODES
    ]
    # the previous module's pass arm p2, made in its layout, which a build has just read
    input_mode = new(ModeLabel, (1, "in")) if index == 1 else _module_layout(index - 1)[6]
    split = new(PolarizingBeamsplitter, (input_mode, vac_in, s1, s2))
    fan_out = (
        new(Rotator, (s1, math.pi / 2)),
        new(PolarizingBeamsplitter, (s1, vac_s1, t1, t2)),
        new(PolarizingBeamsplitter, (s2, vac_s2, t4, t3)),
        new(Rotator, (t2, -math.pi / 2)),
        new(Rotator, (t1, math.pi)),
        new(Rotator, (t4, math.pi / 2)),
        new(Rotator, (t4, math.pi)),
    )
    recombine = (new(PolarizingBeamsplitter, (t2, t3, p1, dark1)), new(PolarizingBeamsplitter, (t1, t4, p2, dark2)))
    return input_mode, s1, s2, t1, t2, p1, p2, (dark1, dark2), (vac_in, vac_s1, vac_s2), split, fan_out, recombine


def build_cascade_network(plan: CascadePlan) -> OpticalNetwork:
    """Chain the plan's modules: module j's pass arm feeds module j + 1, and
    the final pass arm becomes the last exit after the plan's final unitary.
    Each module's elements are in signal-path order, faithful to the layout;
    only the six records that carry its settings are made here.  The network
    carries its external inputs from the layouts: the input, then each
    module's vacuum ports, in the order of the walk that would otherwise
    find them."""
    new = tuple.__new__
    elements: list[OpticalElement] = []
    exits: list[ModeLabel] = []
    darks: list[ModeLabel] = []
    ports = [_module_layout(1)[0]]  # the walk's order: the input, then each module's vac_in, vac_s1, vac_s2
    for j, settings in enumerate(plan.modules, start=1):
        input_mode, s1, s2, t1, t2, p1, current, module_darks, vacs, split, fan_out, recombine = _module_layout(j)
        elements += (
            new(ModeUnitary, (input_mode, settings.pre_unitary)),
            split,
            new(Rotator, (s1, settings.theta)),
            new(Rotator, (s2, settings.phi)),
            *fan_out,
            new(PhaseShifter, (t2, settings.zeta)),
            new(PhaseShifter, (t1, settings.xi)),
            *recombine,
            new(ModeUnitary, (p1, settings.exit_unitary)),
        )
        exits.append(p1)
        darks += module_darks
        ports += vacs
    elements.append(ModeUnitary(current, plan.final_exit_unitary))
    exits.append(current)
    network = OpticalNetwork(tuple(elements), tuple(exits), ports[0], tuple(darks))
    network.__dict__[OpticalNetwork._external_inputs.attrname] = tuple(ports)  # the slot the walk would fill
    return network
