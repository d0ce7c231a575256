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

That split is a 2x2 cosine-sine (CS) decomposition of one block of an
isometry (Paige & Wei, Linear Algebra Appl. 208, 1994), so the synthesizer
inverts nothing.  A backward sweep of thin QR factorizations,
M_n = Q_n R_n and [M_j; R_{j+1}] = Q_j R_j, stacks the operators still to
be measured: R_j^dag R_j = F_j + ... + F_n.  The top block A_j of Q_j
splits as X_j diag(cos) W_j^dag (an SVD) and the bottom block B_j as
B_j W_j = Y_j diag(sin), with cos^2 + sin^2 = 1 because Q_j is an
isometry.  Stage j then gets the angles atan2(sin, cos), the exit unitary
X_j and the pre-unitary W_j^dag Y_{j-1}; the pass arm it hands on is
exactly Y_j^dag R_{j+1}, and the final exit unitary is Q_n Y_{n-1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .povm import IncompleteSum, KrausSet, validate_kraus
from .qmath import (
    DEFAULT_TOL,
    _column_split,
    _svd,
    as_matrix2,
    dagger,
    identity2,
    is_unitary,
    max_abs,
)

__all__ = [
    "DomainError",
    "ModuleSettings",
    "CascadePlan",
    "SynthesisStep",
    "synthesize_cascade",
    "synthesis_steps",
    "reconstruct_kraus",
    "ekert_alpha_prime",
]

#: how close to the domain boundary angle parameters may get
BOUNDARY_EPS = 1e-12


class DomainError(ValueError):
    """Parameters outside the region where a construction is defined."""


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
            if not is_unitary(u):
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
        if not is_unitary(u):
            raise ValueError("final_exit_unitary is not unitary")
        object.__setattr__(self, "final_exit_unitary", u)

    @property
    def n(self) -> int:
        """Number of outcomes realized by the plan."""
        return len(self.modules) + 1


@dataclass(frozen=True)
class SynthesisStep:
    """Trace record for one synthesized stage (diagnostics and invariants).

    residual_prefix is the pass-arm amplitude Y_{j-1}^dag R_j entering the
    stage; its Gram matrix equals the operator sum still to be implemented.
    effective_operator Y_{j-1}^dag A_j^dag A_j Y_{j-1} is the target
    operator in the frame of that amplitude, whose eigenbasis the
    pre-unitary selects; eigenvalues are its spectrum, (cos^2 theta,
    cos^2 phi).
    """

    residual_prefix: np.ndarray
    effective_operator: np.ndarray
    eigenvalues: tuple[float, float]


def _qr(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR m = q @ r in the package gauge: diag(r) real and >= 0.

    A zero pivot leaves its column of q free (any unit vector orthogonal to
    the other); that column is gauge-fixed like qmath.phase_fixed
    (largest-modulus entry real >= 0) and its row of r rephased to match.
    """
    q, r = np.linalg.qr(m)
    for k in range(2):
        pivot = r[k, k]
        if pivot == 0:
            pivot = np.conj(q[np.abs(q[:, k]).argmax(), k])
        phase = pivot / abs(pivot)
        q[:, k] *= phase
        r[k] *= np.conj(phase)
    return q, r


def _synthesize(kraus: KrausSet) -> tuple[CascadePlan, list[tuple]]:
    """The plan, and (Y_{j-1}, A_j, R_j) per stage for :func:`synthesis_steps`."""
    ops = kraus.operators
    final_q, r = _qr(ops[-1])
    blocks = []
    for m in reversed(ops[:-1]):
        q, r = _qr(np.vstack([m, r]))
        blocks.append((q[:2], q[2:], r))
    # R_1^dag R_1 is the sum of all M^dag M; written so NaN and Inf fail too
    residual = max_abs(dagger(r) @ r - identity2())
    if not residual <= DEFAULT_TOL:
        raise IncompleteSum(f"sum of M^dag M deviates from identity by {residual:.3e}", residual)
    v, _, u = _svd(r)
    y = v @ u  # Y_0: the unitary polar factor of R_1, which is I up to that residual
    modules, stages = [], []
    for a, b, r in reversed(blocks):
        x, c, w_dag = _svd(a)
        y_next, s = _column_split(b @ dagger(w_dag))
        theta, phi = math.atan2(s[0], c[0]), math.atan2(s[1], c[1])
        modules.append(ModuleSettings(theta, phi, pre_unitary=w_dag @ y, exit_unitary=x))
        stages.append((y, a, r))
        y = y_next
    return CascadePlan(tuple(modules), final_q @ y), stages


def synthesize_cascade(kraus: KrausSet) -> CascadePlan:
    """Compile a Kraus set into cascade settings.

    Stage j gets angles (theta_j, phi_j) = atan2(sin, cos) from the CS split
    of its isometry block (see the module docstring), zero phase shifts
    (complex phases are absorbed into the unitaries), the pre-unitary
    W_j^dag Y_{j-1} and the exit unitary X_j; nothing is inverted, so
    rank-deficient and tiny operators compile like any other.  Unitary
    completions on dead directions are gauge-fixed.

    Raises IncompleteSum when sum M^dag M misses the identity by more than
    DEFAULT_TOL (NaN and Inf included); a Kraus set that passed
    validate_kraus passes this check too, up to round-off at the boundary.
    """
    plan, _ = _synthesize(kraus)
    return plan


def synthesis_steps(kraus: KrausSet) -> list[SynthesisStep]:
    """The per-stage trace of :func:`synthesize_cascade` (for invariant checks)."""
    plan, stages = _synthesize(kraus)
    return [
        SynthesisStep(
            dagger(y) @ r,
            dagger(y) @ dagger(a) @ a @ y,
            (math.cos(module.theta) ** 2, math.cos(module.phi) ** 2),
        )
        for (y, a, r), module in zip(stages, plan.modules)
    ]


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
    separation approaches pi/2.  A NaN angle is outside the region.
    """
    delta = beta - alpha
    cos_delta = math.cos(delta)
    sin_delta = math.sin(delta)
    if not (cos_delta > BOUNDARY_EPS and abs(sin_delta) > BOUNDARY_EPS):
        raise DomainError(
            f"separation beta - alpha = {delta!r} outside the valid region "
            "(need cos(beta - alpha) > 0 and beta != alpha)"
        )
    cot = cos_delta / sin_delta
    return math.atan2(1.0, math.sqrt(1.0 + 1.0 / cos_delta) * cot)
