"""Compile a Kraus set into per-module optical settings, and back.

Each cascade stage splits the incoming amplitude between an exit arm and a
pass arm.  With rotator angles theta (H path) and phi (V path) the stage
applies the diagonal transfers

    exit arm:  diag(e^{i zeta} cos theta, cos phi)
    pass arm:  diag(e^{i xi}   sin theta, sin phi)

in its own eigenbasis, so the two arms partition the remaining identity by
construction.  n outcomes need n - 1 stages: stage j realizes operator j on
its exit arm and hands the residual amplitude to stage j + 1; the leftover
pass arm of the last stage is outcome n.

The synthesizer keeps the running pass-arm prefix T (a product of diagonal
transfers and rotations, T_0 = I), whose Gram matrix T^dag T always equals
the unmeasured remainder I - sum of the already-implemented operators.  At
each stage it conjugates the next measurement operator into the frame of
the surviving amplitude, diagonalizes, and reads the rotator angles off the
eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .povm import KrausSet, validate_kraus
from .qmath import (
    DEFAULT_TOL,
    _align,
    _diag,
    _eig,
    as_matrix2,
    dagger,
    identity2,
    is_unitary,
    max_abs,
    pinv_support,
)

__all__ = [
    "PINV_CUTOFF",
    "DomainError",
    "EigenvalueOutOfRange",
    "UnsupportedOperator",
    "ModuleSettings",
    "CascadePlan",
    "SynthesisStep",
    "synthesize_cascade",
    "synthesis_steps",
    "reconstruct_kraus",
    "ekert_alpha_prime",
]

#: singular values of the pass-arm prefix below this are treated as exactly 0
PINV_CUTOFF = 1e-10
#: slack allowed on effective-operator eigenvalues before declaring the input invalid
EIG_SLACK = 1e-9
#: weight of an operator outside the surviving subspace beyond this is an error
SUPPORT_TOL = 1e-8
#: eigenvalues this close to 0 or 1 snap exactly, so projective inputs give exact zeros
EIG_SNAP = 1e-12
#: how close to the domain boundary angle parameters may get
BOUNDARY_EPS = 1e-12


class DomainError(ValueError):
    """Parameters outside the region where a construction is defined."""


class EigenvalueOutOfRange(ValueError):
    """An effective operator has an eigenvalue outside [0, 1] beyond tolerance.

    This means the operator is not dominated by the unmeasured remainder,
    i.e. the input set was inconsistent.
    """

    def __init__(self, module_index: int, eigenvalue: float):
        super().__init__(
            f"module {module_index}: effective eigenvalue {eigenvalue:.12g} outside [0, 1]"
        )
        self.module_index = module_index
        self.eigenvalue = eigenvalue


class UnsupportedOperator(ValueError):
    """An operator has weight outside the support of the surviving amplitude."""

    def __init__(self, module_index: int, residual: float):
        super().__init__(
            f"module {module_index}: operator weight {residual:.3e} outside the surviving subspace"
        )
        self.module_index = module_index
        self.residual = residual


@dataclass(frozen=True)
class ModuleSettings:
    """Physical knobs of one cascade stage.

    theta and phi are the variable rotator angles on the H and V paths,
    zeta and xi the phase-shifter settings on the exit and pass arms,
    pre_unitary the polarization unitary applied at the stage entrance and
    exit_unitary the one applied on the exit arm before its detector.
    """

    theta: float
    phi: float
    zeta: float = 0.0
    xi: float = 0.0
    pre_unitary: np.ndarray = field(default_factory=identity2)
    exit_unitary: np.ndarray = field(default_factory=identity2)

    def __post_init__(self):
        for label in ("theta", "phi"):
            value = float(getattr(self, label))
            if not (-BOUNDARY_EPS <= value <= math.pi / 2 + BOUNDARY_EPS):
                raise ValueError(f"{label} = {value!r} outside [0, pi/2]")
            object.__setattr__(self, label, value)
        for label in ("zeta", "xi"):
            value = float(getattr(self, label))
            if not math.isfinite(value):
                raise ValueError(f"{label} must be finite")
            object.__setattr__(self, label, value)
        for label in ("pre_unitary", "exit_unitary"):
            u = as_matrix2(getattr(self, label), name=label)
            if not is_unitary(u, DEFAULT_TOL):
                raise ValueError(f"{label} is not unitary")
            object.__setattr__(self, label, u)

    def exit_transfer(self) -> np.ndarray:
        """diag(e^{i zeta} cos theta, cos phi): amplitude transfer onto the exit arm."""
        return np.array(
            [
                [np.exp(1j * self.zeta) * math.cos(self.theta), 0.0],
                [0.0, math.cos(self.phi)],
            ],
            dtype=complex,
        )

    def pass_transfer(self) -> np.ndarray:
        """diag(e^{i xi} sin theta, sin phi): amplitude transfer onto the pass arm."""
        return np.array(
            [
                [np.exp(1j * self.xi) * math.sin(self.theta), 0.0],
                [0.0, math.sin(self.phi)],
            ],
            dtype=complex,
        )


@dataclass(frozen=True)
class CascadePlan:
    """Ordered stage settings plus the unitary on the final pass-arm exit.

    A plan for n outcomes has n - 1 modules; reconstruct_kraus(plan) yields
    the Kraus set the plan implements (its completeness is guaranteed by the
    diagonal-transfer construction).
    """

    modules: tuple[ModuleSettings, ...]
    final_exit_unitary: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "modules", tuple(self.modules))
        if not self.modules:
            raise ValueError("a plan needs at least one module")
        u = as_matrix2(self.final_exit_unitary, name="final_exit_unitary")
        if not is_unitary(u, DEFAULT_TOL):
            raise ValueError("final_exit_unitary is not unitary")
        object.__setattr__(self, "final_exit_unitary", u)

    @property
    def n(self) -> int:
        """Number of outcomes realized by the plan."""
        return len(self.modules) + 1


@dataclass(frozen=True)
class SynthesisStep:
    """Trace record for one synthesized stage (diagnostics and invariants).

    residual_prefix is T before the stage acted; its Gram matrix equals the
    operator sum still to be implemented.  effective_operator is the target
    operator conjugated into the surviving frame; eigenvalues are its
    (clamped) spectrum, i.e. cos^2 of the stage angles.
    """

    residual_prefix: np.ndarray
    effective_operator: np.ndarray
    eigenvalues: tuple[float, float]


def _plan_from_stages(kraus: KrausSet, stage) -> CascadePlan:
    """Walk the cascade over the running pass-arm prefix T (T_0 = I).

    stage(j, m_j, T_{j-1}) gives stage j's eigenvalue pair
    (cos^2 theta, cos^2 phi) and pre-unitary U_j.  The stage's exit unitary
    aligns its exit arm diag(sqrt(lam)) U_j T_{j-1} onto m_j, and its pass
    arm diag(sqrt(1 - lam)) U_j T_{j-1} becomes T_j; the final exit unitary
    aligns T_{n-1} onto m_n.
    """
    modules = []
    prefix = identity2()
    for j, m in enumerate(kraus.operators[:-1], start=1):
        lam, pre = stage(j, m, prefix)
        lam = np.asarray(lam, dtype=float)
        exit_diag = _diag(np.sqrt(lam)).astype(complex)
        pass_diag = _diag(np.sqrt(1.0 - lam)).astype(complex)
        modules.append(
            ModuleSettings(
                theta=math.acos(math.sqrt(lam[0])),
                phi=math.acos(math.sqrt(lam[1])),
                pre_unitary=pre,
                exit_unitary=_align(m, exit_diag @ pre @ prefix),
            )
        )
        prefix = pass_diag @ pre @ prefix
    return CascadePlan(tuple(modules), _align(kraus.operators[-1], prefix))


def _synthesize(kraus: KrausSet) -> tuple[CascadePlan, list[SynthesisStep]]:
    steps = []

    def read_stage(j: int, m: np.ndarray, prefix: np.ndarray):
        f = dagger(m) @ m
        pinv, projector = pinv_support(prefix, PINV_CUTOFF)
        outside = max_abs(f - projector @ f @ projector)
        if outside > SUPPORT_TOL:
            raise UnsupportedOperator(j, outside)
        g = dagger(pinv) @ f @ pinv
        g = 0.5 * (g + dagger(g))
        lam, basis = _eig(g)
        if lam[0] > 1.0 + EIG_SLACK or lam[1] < -EIG_SLACK:
            bad = lam[0] if lam[0] > 1.0 + EIG_SLACK else lam[1]
            raise EigenvalueOutOfRange(j, float(bad))
        lam = lam.clip(0.0, 1.0)
        lam[lam < EIG_SNAP] = 0.0
        lam[lam > 1.0 - EIG_SNAP] = 1.0
        steps.append(SynthesisStep(prefix, g, (float(lam[0]), float(lam[1]))))
        return lam, dagger(basis)

    return _plan_from_stages(kraus, read_stage), steps


def synthesize_cascade(kraus: KrausSet) -> CascadePlan:
    """Compile a Kraus set into cascade settings.

    Stage j gets angles theta_j = arccos(sqrt(lambda_1)) and
    phi_j = arccos(sqrt(lambda_2)) from the descending eigenvalues of the
    j-th effective operator, zero phase shifts (complex phases are absorbed
    into the unitaries), the eigenbasis as pre-unitary, and the exit
    unitary that maps the exit-arm amplitude onto the requested Kraus
    operator (unitary completion on dead directions is gauge-fixed).

    Raises EigenvalueOutOfRange or UnsupportedOperator for inconsistent
    inputs; neither can occur for a validated Kraus set beyond round-off.
    """
    plan, _ = _synthesize(kraus)
    return plan


def synthesis_steps(kraus: KrausSet) -> list[SynthesisStep]:
    """The per-stage trace of :func:`synthesize_cascade` (for invariant checks)."""
    _, steps = _synthesize(kraus)
    return steps


def reconstruct_kraus(plan: CascadePlan) -> KrausSet:
    """Kraus operators realized by a plan.

    Walking the cascade, outcome j < n is V_j D_j U_j T_{j-1} and outcome n
    is V_n T_{n-1}, where D_j is the exit transfer of stage j and T the
    accumulated pass-arm prefix.
    """
    ops = []
    prefix = identity2()
    for settings in plan.modules:
        staged = settings.pre_unitary @ prefix
        ops.append(settings.exit_unitary @ settings.exit_transfer() @ staged)
        prefix = settings.pass_transfer() @ staged
    ops.append(plan.final_exit_unitary @ prefix)
    return validate_kraus(ops)


def ekert_alpha_prime(alpha: float, beta: float) -> float:
    """Second-stage rotation angle for discriminating polarizations alpha and beta.

    alpha' = arccot( sqrt(1 + 1/cos(beta - alpha)) * cot(beta - alpha) ),
    with arccot taken in (0, pi).  Requires cos(beta - alpha) > 0 and
    beta != alpha (both boundaries detected to ~1e-12 so that a separation
    entered as 90 degrees is rejected despite rounding); for beta - alpha
    in (0, pi/2) the result lies in (0, pi/2) and tends to pi/2 as the
    separation approaches pi/2.
    """
    delta = beta - alpha
    cos_delta = math.cos(delta)
    sin_delta = math.sin(delta)
    if cos_delta <= BOUNDARY_EPS or abs(sin_delta) <= BOUNDARY_EPS:
        raise DomainError(
            f"separation beta - alpha = {delta!r} outside the valid region "
            "(need cos(beta - alpha) > 0 and beta != alpha)"
        )
    cot = cos_delta / sin_delta
    return math.atan2(1.0, math.sqrt(1.0 + 1.0 / cos_delta) * cot)
