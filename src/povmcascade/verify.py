"""End-to-end checks: the simulated cascade network vs the analytic oracle.

verify_plan builds the optical network from a plan once and reads its
linear map off |H> and |V> (optics.transfer_matrices): one 2x2 operator T
per live mode.  Every check looks at that network, never at a second
model of the plan.  The operator checks compare each exit's T with its
Kraus operator, sum T^dag T over every live mode, and bound the dark-mode
maps, so they hold for all input states at once; the photon checks apply
the exit maps to seeded random pure states and compare exit statistics
and conditional states against direct application of the Kraus operators.
Reports are deterministic for fixed inputs and seed.
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
from .synthesis import CascadePlan

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


def _trial_states(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` random pure states as the columns of a (2, count) array, from
    one draw of 4 * count normals: per state 2 real parts, then 2 imaginary."""
    draws = rng.standard_normal((count, 2, 2))
    vecs = draws[:, 0] + 1j * draws[:, 1]
    return (vecs / np.linalg.norm(vecs, axis=1, keepdims=True)).T


def random_pure_state(rng: np.random.Generator) -> np.ndarray:
    """Normalized pair of complex Gaussians: rotation-invariant on the sphere."""
    return _trial_states(rng, 1)[:, 0]


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


def _daggers(maps: np.ndarray) -> np.ndarray:
    """T^dag for each 2x2 map of a stack."""
    return maps.conj().transpose(0, 2, 1)


def _gram(maps: np.ndarray) -> np.ndarray:
    """T^dag T for each 2x2 map of a stack."""
    return _daggers(maps) @ maps


def verify_plan(
    kraus: KrausSet,
    plan: CascadePlan,
    trial_states: int = 100,
    seed: int = 42,
) -> VerificationReport:
    """Check that the plan's network implements a Kraus set, at operator and
    photon level.

    One simulation feeds every check: the network's per-mode maps T
    (:func:`optics.transfer_matrices`, two propagations).  With T_i the map
    of exit i and M_i the i-th Kraus operator, the checks (name: tolerance)
    are:

    - f_roundtrip 1e-8: max |T_i^dag T_i - M_i^dag M_i|, the measurement
      operators the network realizes;
    - kraus_roundtrip 1e-8: max |T_i - M_i|, exit unitaries included;
    - probability 1e-9 and conditional_state 1e-9: exit i of trial psi is
      T_i @ psi, compared with M_i @ psi over ``trial_states`` random pure
      inputs (conditional comparison is 1 - |overlap|, global-phase free);
    - dark_port 1e-10: the largest entry of any dark port's map;
    - norm 1e-9: max |sum of T^dag T over every live mode - I|, not only
      exits and dark ports, so it checks the whole network for loss or
      gain; light sent to a stray mode keeps the norm and shows in the exit
      checks instead.

    The first two and the last two are state-independent: they do not
    depend on ``trial_states`` or ``seed``.  Trial states are drawn in one
    batch from the seeded stream, the same states as ``trial_states``
    successive random_pure_state calls; case_count is trial_states.
    Residual failures are report entries, never exceptions; only an
    outcome-count mismatch between plan and Kraus set, or trial_states < 1
    (which would pass the photon checks vacuously), raises.
    """
    if trial_states < 1:
        raise ValueError(f"trial_states must be at least 1, got {trial_states}")
    if plan.n != len(kraus):
        raise ValueError(f"plan realizes {plan.n} outcomes, Kraus set has {len(kraus)}")
    network = build_cascade_network(plan)
    transfer = transfer_matrices(network)
    exits = np.array([transfer[mode] for mode in network.exits])
    wanted = np.array(kraus.operators)
    rng = np.random.default_rng(seed)
    psis = _trial_states(rng, trial_states)

    sim, target = exits @ psis, wanted @ psis  # indexed (outcome, polarization, trial)
    p_sim = np.sum(np.abs(sim) ** 2, axis=1)
    p_oracle = np.sum(np.abs(target) ** 2, axis=1)
    live = (p_oracle >= PROBABILITY_FLOOR) & (p_sim >= PROBABILITY_FLOOR)
    overlap = np.abs(np.sum(sim.conj() * target, axis=1))[live] / np.sqrt(p_sim * p_oracle)[live]

    residuals = {
        "f_roundtrip": max_abs(_gram(exits) - _gram(wanted)),
        "kraus_roundtrip": max_abs(exits - wanted),
        "probability": np.max(np.abs(p_sim - p_oracle)),
        "conditional_state": np.max(1.0 - np.minimum(overlap, 1.0), initial=0.0),
        "dark_port": max_abs([transfer[mode] for mode in network.dark_ports]),
        "norm": max_abs(np.sum(_gram(np.array(list(transfer.values()))), axis=0) - np.eye(2)),
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
    exits = np.array([transfer[mode] for mode in network.exits])
    posts = exits @ rho.rho @ _daggers(exits)
    posts = 0.5 * (posts + _daggers(posts))
    probabilities = np.trace(posts, axis1=1, axis2=2).real.tolist()
    return [
        OutcomeRecord(i, p, DensityMatrix(post / p) if p >= PROBABILITY_FLOOR else None)
        for i, (p, post) in enumerate(zip(probabilities, posts), start=1)
    ]


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
