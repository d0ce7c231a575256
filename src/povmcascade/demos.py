"""Built-in worked examples with their published settings.

Two classics of non-orthogonal measurement:

* the trine: three projective operators whose axes are evenly spread
  (pairwise 120 degrees apart on the Poincare sphere), and
* the unambiguous-discrimination POVM used in the Ekert-style cryptography
  protocols: conclusively tell two non-orthogonal linear polarizations
  apart at the cost of a third, inconclusive outcome.

Each constructor returns hard-coded settings rather than running the
synthesizer, so they double as golden references for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .povm import KrausSet, PovmSet, kraus_from_povm, validate_povm
from .qmath import aligning_unitary, identity2, rotation
from .synthesis import CascadePlan, ModuleSettings, ekert_alpha_prime

__all__ = ["EkertParams", "trine_povm", "ekert_povm"]


@dataclass(frozen=True)
class EkertParams:
    """The two linear-polarization angles to discriminate, in radians.

    The construction needs cos(beta - alpha) > 0 and alpha != beta; outside
    that the third operator would not be positive.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        ekert_alpha_prime(self.alpha, self.beta)  # raises DomainError outside the region


def _plan_from_stages(kraus: KrausSet, stages) -> CascadePlan:
    """Walk the cascade over the running pass-arm prefix T (T_0 = I).

    Stage j has the published eigenvalue pair lam = (cos^2 theta,
    cos^2 phi) and pre-unitary U_j.  Its exit unitary aligns the exit arm
    diag(sqrt(lam)) U_j T_{j-1} onto m_j, and its pass arm
    diag(sqrt(1 - lam)) U_j T_{j-1} becomes T_j; the final exit unitary
    aligns T_{n-1} onto m_n.
    """
    modules = []
    prefix = identity2()
    for m, (lam, pre) in zip(kraus.operators[:-1], stages):
        lam = np.asarray(lam, dtype=float)
        exit_diag = np.diag(np.sqrt(lam)).astype(complex)
        pass_diag = np.diag(np.sqrt(1.0 - lam)).astype(complex)
        modules.append(
            ModuleSettings(
                theta=math.acos(math.sqrt(lam[0])),
                phi=math.acos(math.sqrt(lam[1])),
                pre_unitary=pre,
                exit_unitary=aligning_unitary(m, exit_diag @ pre @ prefix),
            )
        )
        prefix = pass_diag @ pre @ prefix
    return CascadePlan(tuple(modules), aligning_unitary(kraus.operators[-1], prefix))


def trine_povm() -> tuple[PovmSet, KrausSet, CascadePlan]:
    """The symmetric three-outcome trine measurement on linear polarization.

    Elements: F1 = (2/3) diag(1, 0), F2 = (1/6)[[1, r3], [r3, 3]],
    F3 = (1/6)[[1, -r3], [-r3, 3]] with r3 = sqrt(3).  The Kraus gauge
    rotates each outcome onto its own trine axis, so the three conditional
    output polarizations for any input are mutually 120 degrees apart on
    the Poincare sphere.  Settings: first stage theta = arccos(sqrt(2/3)),
    phi = pi/2 with no entrance rotation; second stage theta = 0,
    phi = pi/2 behind a pi/4 entrance rotation.
    """
    r3 = math.sqrt(3.0)
    f1 = (2.0 / 3.0) * np.diag([1.0, 0.0]).astype(complex)
    f2 = (1.0 / 6.0) * np.array([[1.0, r3], [r3, 3.0]], dtype=complex)
    f3 = (1.0 / 6.0) * np.array([[1.0, -r3], [-r3, 3.0]], dtype=complex)
    povm = validate_povm([f1, f2, f3])

    exit_gauges = [
        identity2(),
        0.5 * np.array([[1.0, -r3], [r3, 1.0]], dtype=complex),
        0.5 * np.array([[1.0, r3], [-r3, 1.0]], dtype=complex),
    ]
    kraus = kraus_from_povm(povm, exit_gauges)

    stages = [((2.0 / 3.0, 0.0), identity2()), ((1.0, 0.0), rotation(-math.pi / 4))]
    return povm, kraus, _plan_from_stages(kraus, stages)


def ekert_povm(params: EkertParams) -> tuple[PovmSet, CascadePlan]:
    """Unambiguous discrimination of polarizations at angles alpha and beta.

    Outcome 1 never fires for input alpha (it certifies beta), outcome 2
    never fires for beta, outcome 3 is inconclusive:

        F1 = k [[sin^2 a, -sin a cos a], [-sin a cos a, cos^2 a]]
        F2 = the same at angle b
        F3 = I - F1 - F2,           k = 1 / (1 + cos(b - a)).

    The plan uses entrance rotations by alpha and then alpha' (see
    :func:`ekert_alpha_prime`), with stage transfers diag(0, sqrt(k)) and
    diag(0, 1).  Exit gauges send each conclusive outcome to the
    polarization orthogonal to the input it excludes.
    """
    alpha, beta = params.alpha, params.beta
    k = 1.0 / (1.0 + math.cos(beta - alpha))

    def excluded(angle: float) -> np.ndarray:
        sin, cos = math.sin(angle), math.cos(angle)
        return k * np.array(
            [[sin * sin, -sin * cos], [-sin * cos, cos * cos]], dtype=complex
        )

    f1 = excluded(alpha)
    f2 = excluded(beta)
    f3 = identity2() - f1 - f2
    povm = validate_povm([f1, f2, f3])
    kraus = kraus_from_povm(povm)

    alpha_prime = ekert_alpha_prime(alpha, beta)
    stages = [((0.0, k), rotation(-alpha)), ((0.0, 1.0), rotation(-alpha_prime))]
    return povm, _plan_from_stages(kraus, stages)
