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
[M_j; R_{j+1}] = Q_j R_j, stacks the operators still to be measured:
R_j^dag R_j = F_j + ... + F_n.  The first stage is [M_n; 0], R_{n+1} = 0,
so Q_n's top block is M_n's own Q.  The top block A_j of Q_j
splits as X_j diag(cos) W_j^dag (an SVD) and the bottom block B_j as
B_j W_j = Y_j diag(sin), with cos^2 + sin^2 = 1 because Q_j is an
isometry.  Stage j then gets the angles atan2(sin, cos), the exit unitary
X_j and the pre-unitary W_j^dag Y_{j-1}; the pass arm it hands on is
exactly Y_j^dag R_{j+1}, and the final exit unitary is Q_n Y_{n-1}.

The sweep and the splits run on the scalar cores of :mod:`qmath`, on
Python complex numbers: every QR step, the first included, is the one
fixed-size 4-row step of qmath._qr, two unrolled Householder reflections;
each split is a closed-form SVD and column completion.  The settings keep that
form: ModuleSettings and CascadePlan hold their unitaries as rows of Python
complex numbers, which reconstruct_kraus and the network walk read as they
are.  Only the Kraus stacks on either side are numpy arrays.  Every
module is built by the ModuleSettings constructor, which reads rows that are
already in that form as they are.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .povm import KrausSet, _check_complete, _check_unitary, validate_kraus
from .qmath import (
    _IDENTITY,
    Rows2,
    _column_split,
    _dag,
    _mul,
    _qr,
    _svd,
    _unitary_residual,
)

__all__ = [
    "DomainError",
    "ModuleSettings",
    "CascadePlan",
    "synthesize_cascade",
    "reconstruct_kraus",
    "ekert_alpha_prime",
]

#: how close to the domain boundary angle parameters may get
BOUNDARY_EPS = 1e-12


class DomainError(ValueError):
    """Parameters outside the region where a construction is defined."""


@dataclass(frozen=True, eq=False, init=False)
class ModuleSettings:
    """Physical knobs of one cascade stage.

    theta and phi are the variable rotator angles on the H and V paths,
    zeta and xi the phase-shifter settings on the exit and pass arms,
    pre_unitary the polarization unitary applied at the stage entrance and
    exit_unitary the one applied on the exit arm before its detector.

    The unitaries may be given as rows of Python complex numbers or as
    anything array-like; they are checked once and held as rows
    ``((m00, m01), (m10, m11))``, the form the scalar cores read
    (``np.array(settings.pre_unitary)`` gives the array).  The constructor
    (and so ``dataclasses.replace``, the plan reader of :mod:`cli` and
    synthesize_cascade) converts and checks every field, in field order:
    the angles' range, zeta's and xi's finiteness, then each unitary read
    as rows and checked unitary.
    """

    theta: float
    phi: float
    zeta: float
    xi: float
    pre_unitary: Rows2
    exit_unitary: Rows2

    def __init__(self, theta: float, phi: float, zeta: float = 0.0, xi: float = 0.0, pre_unitary=_IDENTITY, exit_unitary=_IDENTITY):
        theta, phi = float(theta), float(phi)
        # an angle outside [0, pi/2] by more than BOUNDARY_EPS fails, NaN included
        if not -BOUNDARY_EPS <= theta <= math.pi / 2 + BOUNDARY_EPS:
            raise ValueError(f"theta = {theta!r} outside [0, pi/2]")
        if not -BOUNDARY_EPS <= phi <= math.pi / 2 + BOUNDARY_EPS:
            raise ValueError(f"phi = {phi!r} outside [0, pi/2]")
        zeta, xi = float(zeta), float(xi)
        if not math.isfinite(zeta):
            raise ValueError("zeta must be finite")
        if not math.isfinite(xi):
            raise ValueError("xi must be finite")
        pre = _check_unitary(pre_unitary, "pre_unitary")
        exit_unitary = _check_unitary(exit_unitary, "exit_unitary")
        # frozen: the checked values are stored past __setattr__, in field order
        self.__dict__.update(theta=theta, phi=phi, zeta=zeta, xi=xi, pre_unitary=pre, exit_unitary=exit_unitary)


@dataclass(frozen=True, eq=False)
class CascadePlan:
    """Ordered stage settings plus the unitary on the final pass-arm exit.

    A plan for n outcomes has n - 1 modules; reconstruct_kraus(plan) yields
    the Kraus set the plan implements.  The diagonal transfers partition the
    identity exactly, so that set is complete only as far as the plan's
    unitaries are unitary: each is accepted within DEFAULT_TOL, and their
    defects add up, so a plan whose unitaries are each (1 + 0.49e-9) I
    reconstructs to a sum 1.96e-9 off the identity, which validate_kraus
    rejects with IncompleteSum.  final_exit_unitary is checked and held as
    rows of Python complex numbers, as in :class:`ModuleSettings`.
    """

    modules: tuple[ModuleSettings, ...]
    final_exit_unitary: Rows2

    def __post_init__(self):
        object.__setattr__(self, "modules", tuple(self.modules))
        if not self.modules:
            raise ValueError("a plan needs at least one module")
        final = _check_unitary(self.final_exit_unitary, "final_exit_unitary")
        object.__setattr__(self, "final_exit_unitary", final)

    @property
    def n(self) -> int:
        """Number of outcomes realized by the plan."""
        return len(self.modules) + 1


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
    ops = np.asarray(kraus.operators, dtype=complex).tolist()
    (m00, m01), (m10, m11) = ops[-1]
    final, _, r = _qr((m00, m10, 0j, 0j), (m01, m11, 0j, 0j))  # [M_n; 0] = Q_n R_n
    blocks = []
    for (m00, m01), (m10, m11) in reversed(ops[:-1]):
        (r00, r01), (_, r11) = r
        top, bottom, r = _qr((m00, m10, r00, 0j), (m01, m11, r01, r11))
        blocks.append((top, bottom))
    # R_1^dag R_1 is the sum of all M^dag M; written so NaN and Inf fail too
    _check_complete(_unitary_residual(r), "M^dag M")
    v, _, u = _svd(r)
    y = _mul(v, u)  # Y_0: the unitary polar factor of R_1, which is I up to that residual
    modules = []
    for a, b in reversed(blocks):
        x, (c0, c1), w_dag = _svd(a)
        y_next, (s0, s1) = _column_split(_mul(b, _dag(w_dag)))
        modules.append(ModuleSettings(math.atan2(s0, c0), math.atan2(s1, c1), 0.0, 0.0, _mul(w_dag, y), x))
        y = y_next
    return CascadePlan(tuple(modules), _mul(final, y))


def reconstruct_kraus(plan: CascadePlan) -> KrausSet:
    """Kraus operators realized by a plan.

    Walking the cascade, outcome j < n is V_j D_j U_j T_{j-1} and outcome n
    is V_n T_{n-1}, where D_j is the exit transfer of stage j and T the
    accumulated pass-arm prefix.
    """
    ops = []
    prefix = _IDENTITY
    for settings in plan.modules:
        # the diagonals of the exit and pass transfers, diag(e^{i zeta} cos theta,
        # cos phi) and diag(e^{i xi} sin theta, sin phi), as Python complex numbers
        e_h, e_v = cmath.exp(1j * settings.zeta) * math.cos(settings.theta), complex(math.cos(settings.phi))
        p_h, p_v = cmath.exp(1j * settings.xi) * math.sin(settings.theta), complex(math.sin(settings.phi))
        (a, b), (c, d) = _mul(settings.pre_unitary, prefix)
        ops.append(_mul(settings.exit_unitary, ((e_h * a, e_h * b), (e_v * c, e_v * d))))
        prefix = (p_h * a, p_h * b), (p_v * c, p_v * d)
    ops.append(_mul(plan.final_exit_unitary, prefix))
    return validate_kraus(ops)


def ekert_alpha_prime(alpha: float, beta: float) -> float:
    """Second-stage rotation angle for discriminating polarizations alpha and beta.

    alpha' = arccot( sqrt(1 + 1/cos(beta - alpha)) * cot(beta - alpha) ),
    with arccot taken in (0, pi).  Requires cos(beta - alpha) > 0 and
    beta != alpha (both boundaries detected to ~1e-12 so that a separation
    entered as 90 degrees is rejected despite rounding); for beta - alpha
    in (0, pi/2) the result lies in (0, pi/2) and tends to pi/2 as the
    separation approaches pi/2.  A NaN or infinite angle is outside the region.
    """
    delta = beta - alpha
    cos_delta, sin_delta = (math.cos(delta), math.sin(delta)) if math.isfinite(delta) else (math.nan, math.nan)
    if not (cos_delta > BOUNDARY_EPS and abs(sin_delta) > BOUNDARY_EPS):
        raise DomainError(
            f"separation beta - alpha = {delta!r} outside the valid region "
            "(need cos(beta - alpha) > 0 and beta != alpha)"
        )
    cot = cos_delta / sin_delta
    return math.atan2(1.0, math.sqrt(1.0 + 1.0 / cos_delta) * cot)
