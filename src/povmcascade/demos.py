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
from dataclasses import dataclass, replace

import numpy as np

from .povm import KrausSet, PovmSet, kraus_from_povm, validate_povm
from .qmath import aligning_unitary, identity2, rotation
from .synthesis import CascadePlan, ModuleSettings, ekert_alpha_prime, reconstruct_kraus

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
    """Plan from published stage settings (theta, phi, pre-unitary).

    The cascade is walked once, by reconstruct_kraus on the plan with
    identity exit unitaries; each exit unitary then aligns that bare
    outcome operator onto the target m_j.
    """
    bare = [ModuleSettings(theta, phi, pre_unitary=pre) for theta, phi, pre in stages]
    realized = reconstruct_kraus(CascadePlan(tuple(bare), identity2()))
    exits = [aligning_unitary(m, r) for m, r in zip(kraus, realized)]
    modules = tuple(replace(module, exit_unitary=u) for module, u in zip(bare, exits))
    return CascadePlan(modules, exits[-1])


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

    stages = [
        (math.acos(math.sqrt(2.0 / 3.0)), math.pi / 2, identity2()),
        (0.0, math.pi / 2, rotation(-math.pi / 4)),
    ]
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

    stages = [
        (math.pi / 2, math.acos(math.sqrt(k)), rotation(-alpha)),
        (math.pi / 2, 0.0, rotation(-ekert_alpha_prime(alpha, beta))),
    ]
    return povm, _plan_from_stages(kraus, stages)
