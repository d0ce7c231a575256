"""End-to-end checks: compiled-and-simulated cascade vs the analytic oracle.

verify_plan simulates the optical network built from a plan once, reading
its linear map off |H> and |V> (optics.transfer_matrices), applies that map
to random pure states and compares exit statistics and conditional states
against direct application of the Kraus operators, alongside
operator-level round-trip residuals, dark-port leakage, and norm
conservation.  Reports are deterministic for fixed inputs and seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .optics import build_cascade_network, transfer_matrices
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

#: random_povm redraws a sample whose element sum has an eigenvalue below this
SANDWICH_FLOOR = 1e-12


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
        if lam[1] < SANDWICH_FLOOR:
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

    Deterministic under seed; near-singular sums (eigenvalue below
    SANDWICH_FLOOR) are rejected and redrawn from the same stream.
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

    The photon-level residuals come from one simulation: the network's
    per-mode maps T (:func:`optics.transfer_matrices`, two propagations)
    are applied to all trial states at once, so exit i of trial psi is
    T[exit i] @ psi.  norm sums |T @ psi|^2 over every mode the propagated
    state carries, not only exits and dark ports, so it checks the whole
    network for loss or gain; light sent to a stray mode keeps the norm and
    shows in probability instead.
    Trial states are drawn one random_pure_state per trial, in order;
    case_count is trial_states.
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
    transfer = transfer_matrices(network)
    rng = np.random.default_rng(seed)
    psis = np.array([random_pure_state(rng) for _ in range(trial_states)]).T

    def images(operators) -> np.ndarray:
        """Amplitudes operator @ psi, indexed (operator, polarization, trial)."""
        return np.array(list(operators)) @ psis

    sim = images(transfer[mode] for mode in network.exits)
    target = images(kraus)
    p_sim = np.sum(np.abs(sim) ** 2, axis=1)
    p_oracle = np.sum(np.abs(target) ** 2, axis=1)
    live = (p_oracle >= PROBABILITY_FLOOR) & (p_sim >= PROBABILITY_FLOOR)
    overlap = np.abs(np.sum(sim.conj() * target, axis=1))[live] / np.sqrt(p_sim * p_oracle)[live]
    prob_res = np.max(np.abs(p_sim - p_oracle))
    cond_res = np.max(1.0 - np.minimum(overlap, 1.0), initial=0.0)
    dark_res = np.max(np.abs(images(transfer[mode] for mode in network.dark_ports)))
    norm_res = np.max(np.abs(np.sum(np.abs(images(transfer.values())) ** 2, axis=(0, 1)) - 1.0))

    residuals = {
        "f_roundtrip": f_res,
        "kraus_roundtrip": k_res,
        "probability": prob_res,
        "conditional_state": cond_res,
        "dark_port": dark_res,
        "norm": norm_res,
    }
    return _report(residuals, seed, trial_states)


def simulate_density(plan: CascadePlan, rho: DensityMatrix) -> list[OutcomeRecord]:
    """Exit statistics of a mixed state, simulated through the plan's network.

    Each exit's unnormalized conditional state is T rho T^dag, with T the
    exit's map from :func:`optics.transfer_matrices`; its trace is the exit
    probability.  Returns one record per exit, post_state normalized (and
    Hermitian-symmetrized, as the oracle does) or None below PROBABILITY_FLOOR.
    """
    network = build_cascade_network(plan)
    transfer = transfer_matrices(network)
    records = []
    for i, mode in enumerate(network.exits, start=1):
        post = transfer[mode] @ rho.rho @ dagger(transfer[mode])
        post = 0.5 * (post + dagger(post))
        p = float(np.trace(post).real)
        records.append(OutcomeRecord(i, p, DensityMatrix(post / p) if p >= PROBABILITY_FLOOR else None))
    return records


def verify_density(rho: DensityMatrix, kraus: KrausSet, plan: CascadePlan) -> VerificationReport:
    """Mixed-state contract: compare :func:`simulate_density` exit statistics
    and post states against the analytic oracle.

    case_count is the rank of rho: the number of its eigenvalues above
    PROBABILITY_FLOOR.  It is counted from rho, not from propagated
    components; the simulation itself propagates |H> and |V> whatever the
    rank.
    """
    if plan.n != len(kraus):
        raise ValueError(f"plan realizes {plan.n} outcomes, Kraus set has {len(kraus)}")
    simulated = simulate_density(plan, rho)
    prob_res = 0.0
    post_res = 0.0
    for sim, record in zip(simulated, outcome_probabilities(rho, kraus)):
        prob_res = max(prob_res, abs(sim.probability - record.probability))
        if record.post_state is not None and sim.post_state is not None:
            post_res = max(post_res, max_abs(sim.post_state.rho - record.post_state.rho))
    rank = int(np.sum(eig_hermitian2(rho.rho)[0] > PROBABILITY_FLOOR))
    return _report({"probability": prob_res, "post_state": post_res}, 0, rank)
