"""End-to-end checks: compiled-and-simulated cascade vs the analytic oracle.

verify_plan drives random pure states through the optical network built
from a plan and compares exit statistics and conditional states against
direct application of the Kraus operators, alongside operator-level
round-trip residuals, dark-port leakage, and norm conservation.  Reports
are deterministic for fixed inputs and seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .optics import PhotonState, build_cascade_network, dark_port_leakage, propagate
from .povm import (
    PROBABILITY_FLOOR,
    DensityMatrix,
    KrausSet,
    OutcomeRecord,
    PovmSet,
    outcome_probabilities,
    validate_povm,
)
from .qmath import dagger, eig_hermitian2, max_abs
from .synthesis import CascadePlan, reconstruct_kraus

__all__ = [
    "TOLERANCES",
    "CheckResult",
    "VerificationReport",
    "random_pure_state",
    "random_povm",
    "random_rank_one_povm",
    "verify_plan",
    "simulate_density",
    "verify_density",
]

#: check-name -> tolerance used by verify_plan / verify_density
TOLERANCES = {
    "f_roundtrip": 1e-8,
    "kraus_roundtrip": 1e-8,
    "probability": 1e-9,
    "conditional_state": 1e-9,
    "dark_port": 1e-10,
    "norm": 1e-9,
    "post_state": 1e-9,
}


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    max_residual: float
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "pass": self.passed,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
        }


@dataclass(frozen=True)
class VerificationReport:
    """Bundle of named residual checks; passes iff every check passes."""

    checks: tuple[CheckResult, ...]
    seed: int
    case_count: int

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def to_dict(self) -> dict:
        return {
            "checks": [c.to_dict() for c in self.checks],
            "seed": self.seed,
            "case_count": self.case_count,
        }


def random_pure_state(rng: np.random.Generator) -> np.ndarray:
    """Normalized pair of complex Gaussians: rotation-invariant on the sphere."""
    vec = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return vec / np.linalg.norm(vec)


def _sandwich_povm(n: int, seed: int, shape, positive) -> PovmSet:
    """POVM from G_i = positive(complex Gaussian of the given shape), i = 1..n,
    drawn in order from one seeded stream and sandwiched as in random_povm."""
    if n < 2:
        raise ValueError(f"need n >= 2 outcomes, got {n}")
    rng = np.random.default_rng(seed)
    while True:
        positives = [positive(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) for _ in range(n)]
        total = sum(positives[1:], start=positives[0])
        lam, basis = eig_hermitian2(0.5 * (total + dagger(total)))
        if lam[1] < 1e-12:
            continue
        inv_sqrt = basis @ np.diag(1.0 / np.sqrt(lam)) @ dagger(basis)
        elements = []
        for g in positives:
            f = inv_sqrt @ g @ inv_sqrt
            elements.append(0.5 * (f + dagger(f)))
        return validate_povm(elements)


def random_povm(n: int, seed: int) -> PovmSet:
    """Random n-outcome POVM: sandwich random positive matrices G_i = A A^dag
    between S^{-1/2} factors of their sum S, which forces completeness exactly.

    Deterministic under seed; near-singular sums (eigenvalue below 1e-12)
    are rejected and redrawn from the same stream.
    """
    return _sandwich_povm(n, seed, (2, 2), lambda a: a @ dagger(a))


def random_rank_one_povm(n: int, seed: int) -> PovmSet:
    """Random projective (all elements rank 1) n-outcome POVM, same sandwich trick."""
    return _sandwich_povm(n, seed, 2, lambda k: np.outer(k, k.conj()))


def _report(residuals: dict[str, float], seed: int, case_count: int) -> VerificationReport:
    checks = tuple(
        CheckResult(name, bool(value <= TOLERANCES[name]), float(value), TOLERANCES[name])
        for name, value in residuals.items()
    )
    return VerificationReport(checks, seed, case_count)


def verify_plan(
    kraus: KrausSet,
    plan: CascadePlan,
    trial_states: int = 100,
    seed: int = 42,
) -> VerificationReport:
    """Check that a plan implements a Kraus set, at operator and photon level.

    Checks (name: tolerance): f_roundtrip 1e-8 (measurement operators of the
    reconstructed plan vs the input), kraus_roundtrip 1e-8 (operators
    themselves, exit unitaries included), probability 1e-9 and
    conditional_state 1e-9 (simulated exits vs the analytic oracle over
    ``trial_states`` random pure inputs; conditional comparison is
    1 - |overlap|, global-phase free), dark_port 1e-10, norm 1e-9.
    Residual failures are report entries, never exceptions; only an
    outcome-count mismatch between plan and Kraus set, or trial_states < 1
    (which would pass vacuously), raises.
    """
    if trial_states < 1:
        raise ValueError(f"trial_states must be at least 1, got {trial_states}")
    if plan.n != len(kraus):
        raise ValueError(f"plan realizes {plan.n} outcomes, Kraus set has {len(kraus)}")
    reconstructed = reconstruct_kraus(plan)
    f_res = 0.0
    k_res = 0.0
    for produced, wanted in zip(reconstructed, kraus):
        f_res = max(f_res, max_abs(dagger(produced) @ produced - dagger(wanted) @ wanted))
        k_res = max(k_res, max_abs(produced - wanted))

    network = build_cascade_network(plan)
    rng = np.random.default_rng(seed)
    prob_res = 0.0
    cond_res = 0.0
    dark_res = 0.0
    norm_res = 0.0
    for _ in range(trial_states):
        psi = random_pure_state(rng)
        out = propagate(PhotonState.pure(network.input, psi), network)
        dark_res = max(dark_res, dark_port_leakage(out, network))
        norm_res = max(norm_res, abs(out.total_probability() - 1.0))
        for mode, m in zip(network.exits, kraus):
            target = m @ psi
            p_oracle = float(np.vdot(target, target).real)
            vec = out.mode_vector(mode)
            p_sim = float(np.vdot(vec, vec).real)
            prob_res = max(prob_res, abs(p_sim - p_oracle))
            if p_oracle >= PROBABILITY_FLOOR and p_sim >= PROBABILITY_FLOOR:
                overlap = abs(np.vdot(vec, target)) / np.sqrt(p_sim * p_oracle)
                cond_res = max(cond_res, 1.0 - min(overlap, 1.0))

    residuals = {
        "f_roundtrip": f_res,
        "kraus_roundtrip": k_res,
        "probability": prob_res,
        "conditional_state": cond_res,
        "dark_port": dark_res,
        "norm": norm_res,
    }
    return _report(residuals, seed, trial_states)


def simulate_density(plan: CascadePlan, rho: DensityMatrix) -> tuple[list[OutcomeRecord], int]:
    """Exit statistics of a mixed state, simulated through the plan's network.

    rho is decomposed into its eigencomponents; each one with weight above
    PROBABILITY_FLOOR is propagated, and exit probabilities / unnormalized
    conditional projectors are recombined with the eigenvalue weights.
    Returns one record per exit (post_state None below PROBABILITY_FLOOR)
    and the number of components propagated.
    """
    lam, basis = eig_hermitian2(rho.rho)
    components = [(float(q), basis[:, k]) for k, q in enumerate(lam) if q > PROBABILITY_FLOOR]
    network = build_cascade_network(plan)
    probs = np.zeros(plan.n)
    posts = [np.zeros((2, 2), dtype=complex) for _ in range(plan.n)]
    for weight, psi in components:
        out = propagate(PhotonState.pure(network.input, psi), network)
        for i, mode in enumerate(network.exits):
            vec = out.mode_vector(mode)
            probs[i] += weight * float(np.vdot(vec, vec).real)
            posts[i] += weight * np.outer(vec, vec.conj())
    records = [
        OutcomeRecord(i + 1, float(p), DensityMatrix(post / p) if p >= PROBABILITY_FLOOR else None)
        for i, (p, post) in enumerate(zip(probs, posts))
    ]
    return records, len(components)


def verify_density(rho: DensityMatrix, kraus: KrausSet, plan: CascadePlan) -> VerificationReport:
    """Mixed-state contract: compare :func:`simulate_density` exit statistics
    and post states against the analytic oracle.  case_count reports how
    many eigencomponents of rho carried weight.
    """
    if plan.n != len(kraus):
        raise ValueError(f"plan realizes {plan.n} outcomes, Kraus set has {len(kraus)}")
    simulated, components = simulate_density(plan, rho)
    prob_res = 0.0
    post_res = 0.0
    for sim, record in zip(simulated, outcome_probabilities(rho, kraus)):
        prob_res = max(prob_res, abs(sim.probability - record.probability))
        if record.post_state is not None and sim.post_state is not None:
            post_res = max(post_res, max_abs(sim.post_state.rho - record.post_state.rho))
    return _report({"probability": prob_res, "post_state": post_res}, 0, components)
