"""End-to-end checks: the simulated cascade network vs the analytic oracle.

verify_plan builds the optical network from a plan once and reads its
linear map off one walk that carries |H> and |V> together: one 2x2 operator
T per live mode.  The exit maps are stacked straight from the rows the walk
leaves, with no array per mode in between; optics.transfer_matrices is the
public form of the same walk, with the same bits.  Every check
looks at that network, never at a second model of the plan.  The operator
checks compare each exit's T with its Kraus operator, sum T^dag T over
every live mode, and bound the dark-mode maps, so they hold for all input
states at once; the photon checks apply the exit maps to seeded random
pure states and compare exit statistics and conditional states against
direct application of the Kraus operators.  simulate_density and
verify_density run the oracle's own kernel, T rho T^dag
(povm._conditional_states), on the exit maps, so the mixed-state contract
compares two outputs of one formula.  Reports are deterministic for fixed
inputs and seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .optics import _transfer_rows, build_cascade_network
from .povm import (
    PROBABILITY_FLOOR,
    DensityMatrix,
    KrausSet,
    OutcomeRecord,
    PovmSet,
    _conditional_states,
    _outcome_records,
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
        positives = np.array([positive(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) for _ in range(n)])
        total = sum(positives[1:], start=positives[0])
        lam, basis = eig_hermitian2(0.5 * (total + dagger(total)))
        if lam[1] < SANDWICH_FLOOR:
            continue
        inv_sqrt = basis @ np.diag(1.0 / np.sqrt(lam)) @ dagger(basis)
        f = inv_sqrt @ positives @ inv_sqrt
        return validate_povm(0.5 * (f + dagger(f)))


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


def _gram(maps: np.ndarray) -> np.ndarray:
    """T^dag T for each 2x2 map of a stack."""
    return dagger(maps) @ maps


def _network_maps(plan: CascadePlan):
    """(network, rows, exits): the plan's network, its per-mode maps as the
    walk leaves them (rows of Python complex numbers, see
    :func:`optics.transfer_matrices`) and the exit maps stacked in exit order,
    converted straight from those rows."""
    network = build_cascade_network(plan)
    rows = _transfer_rows(network)
    return network, rows, np.array([rows[mode] for mode in network.exits], dtype=complex)


def verify_plan(
    kraus: KrausSet,
    plan: CascadePlan,
    trial_states: int = 100,
    seed: int = 42,
) -> VerificationReport:
    """Check that the plan's network implements a Kraus set, at operator and
    photon level.

    One simulation feeds every check: the network's per-mode maps T
    (:func:`optics.transfer_matrices`, one walk of the elements).  With
    T_i the map of exit i and M_i the i-th Kraus operator, the checks
    (name: tolerance) are:

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
    network, rows, exits = _network_maps(plan)
    wanted = np.asarray(kraus.operators)
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
        "dark_port": max_abs([rows[mode] for mode in network.dark_ports]),
        "norm": max_abs(np.sum(_gram(np.array(list(rows.values()), dtype=complex)), axis=0) - np.eye(2)),
    }
    return _report(residuals, seed, trial_states)


def simulate_density(plan: CascadePlan, rho: DensityMatrix) -> list[OutcomeRecord]:
    """Exit statistics of a mixed state, simulated through the plan's network.

    Each exit's unnormalized conditional state is T rho T^dag, with T the
    exit's map from :func:`optics.transfer_matrices`; its trace is the exit
    probability.  This is the oracle's kernel (:func:`povm.outcome_probabilities`)
    run on the exit maps instead of the Kraus operators, with no clamp:
    one record per exit, post_state normalized and Hermitian-symmetrized, or
    None below PROBABILITY_FLOOR.
    """
    return _outcome_records(*_conditional_states(_network_maps(plan)[2], rho))


def verify_density(rho: DensityMatrix, kraus: KrausSet, plan: CascadePlan) -> VerificationReport:
    """Mixed-state contract: compare :func:`simulate_density` exit statistics
    and post states against the analytic oracle.

    Both sides are one kernel, T rho T^dag, run on the network's exit maps
    and on the Kraus operators; their arrays are compared directly.  The
    checks (name: tolerance) are probability 1e-9, max |p_sim - p_oracle|
    with the oracle's p clamped into [0, 1] as :func:`povm.outcome_probabilities`
    does, and post_state 1e-9, the largest entry of the difference of the
    normalized post states over the outcomes where both p are at or above
    PROBABILITY_FLOOR.

    case_count is the rank of rho: the number of its eigenvalues above
    PROBABILITY_FLOOR.  It is counted from rho, not from propagated
    components; the simulation itself reads the network's whole map, both
    columns in one walk, whatever the rank.
    """
    if plan.n != len(kraus):
        raise ValueError(f"plan realizes {plan.n} outcomes, Kraus set has {len(kraus)}")
    p_sim, sim = _conditional_states(_network_maps(plan)[2], rho)
    p_oracle, oracle = _conditional_states(np.asarray(kraus.operators), rho)
    p_oracle = np.clip(p_oracle, 0.0, 1.0)
    live = (p_sim >= PROBABILITY_FLOOR) & (p_oracle >= PROBABILITY_FLOOR)
    posts = sim[live] / p_sim[live, None, None] - oracle[live] / p_oracle[live, None, None]
    prob_res = np.max(np.abs(p_sim - p_oracle))
    post_res = np.max(np.abs(posts), initial=0.0)
    rank = int(np.sum(eig_hermitian2(rho.rho)[0] > PROBABILITY_FLOOR))
    return _report({"probability": prob_res, "post_state": post_res}, 0, rank)
