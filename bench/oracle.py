"""Independent reference for the benchmark: input generation and output checks.

Nothing here imports povmcascade.  Inputs come from the benchmark's own
seeded sandwich generator, and every check recomputes the expected result
with plain numpy (eigh-based square roots, the cascade walk re-derived from
the stage formulas) and compares it under the fixed bounds below, so that
changing the program's own tolerances or generators cannot change what the
benchmark accepts.
"""

from __future__ import annotations

import math

import numpy as np

#: operator round trip: realized Kraus operators vs the input Kraus set and F_i
OPERATOR_BOUND = 1e-8
#: exit probabilities vs |M_i psi|^2 and tr(M_i rho M_i^dag)
PROBABILITY_BOUND = 1e-9


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(m, -1, -2))


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + dagger(m))


def sqrt_psd(f: np.ndarray) -> np.ndarray:
    """Principal square root of a stack of PSD matrices (negative round-off clipped)."""
    w, v = np.linalg.eigh(hermitian_part(f))
    return hermitian_part((v * np.sqrt(np.clip(w, 0.0, None))[..., None, :]) @ dagger(v))


# ----------------------------------------------------------------------
# input generation


def _sandwich(positives: np.ndarray) -> np.ndarray:
    """S^{-1/2} G_i S^{-1/2} with S = sum G_i: completeness by construction."""
    w, v = np.linalg.eigh(hermitian_part(positives.sum(axis=0)))
    inv_sqrt = (v / np.sqrt(w)) @ dagger(v)
    return hermitian_part(inv_sqrt @ positives @ inv_sqrt)


def full_rank_povm(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, 2, 2)) + 1j * rng.standard_normal((n, 2, 2))
    return _sandwich(a @ dagger(a))


def rank_one_povm(rng: np.random.Generator, n: int) -> np.ndarray:
    k = rng.standard_normal((n, 2)) + 1j * rng.standard_normal((n, 2))
    return _sandwich(k[:, :, None] * np.conj(k)[:, None, :])


def near_deficient_povm(rng: np.random.Generator, n: int) -> np.ndarray:
    """The rank-deficient family: commuting elements R diag(a_k, b_k) R^T whose
    a-weights sum to one, the last of them a tiny eps, followed by the
    remainder I - sum F_k, which has zero a-weight up to round-off."""
    eps = 10.0 ** rng.uniform(-6.0, -3.0)
    angle = rng.uniform(0.0, math.pi)
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]], dtype=complex)
    a = np.empty(n - 1)
    a[:-1] = (1.0 - eps) * rng.dirichlet(np.ones(n - 2))
    a[-1] = eps
    b = rng.dirichlet(np.ones(n))[: n - 1]
    diag = np.zeros((n - 1, 2, 2), dtype=complex)
    diag[:, 0, 0] = a
    diag[:, 1, 1] = b
    head = rot @ diag @ rot.T
    remainder = np.eye(2) - head.sum(axis=0)
    return np.concatenate([head, remainder[None]])


FAMILIES = {
    "full_rank": full_rank_povm,
    "rank_one": rank_one_povm,
    "near_deficient": near_deficient_povm,
}


def bit_reversed(count: int) -> list[int]:
    """0..count-1 (a power of two) in bit-reversed order: every prefix is spread evenly."""
    bits = count.bit_length() - 1
    if 1 << bits != count:
        raise ValueError(f"{count} is not a power of two")
    return [int(format(i, f"0{bits}b")[::-1], 2) if bits else 0 for i in range(count)]


def stratified_sizes(count: int, lo: int, hi: int) -> list[int]:
    """count outcome numbers covering [lo, hi] log-uniformly: the midpoints of
    count equal strata in log n, visited in bit-reversed order.

    Every integer size in the range is reachable (no gaps between size
    classes), any prefix of the sequence covers the range evenly, so a run
    that stops part-way through a cycle keeps the same mix, and the latency
    quantiles do not move with the seed's draw of sizes.
    """
    span = math.log(hi + 0.5) - math.log(lo - 0.5)
    return [
        int(round(math.exp(math.log(lo - 0.5) + (k + 0.5) / count * span)))
        for k in bit_reversed(count)
    ]


def family_sequence(rng: np.random.Generator, count: int, mix: dict[str, int]) -> list[str]:
    """Family per position, in blocks of sum(mix) with the given counts, shuffled per block."""
    block = [name for name, k in mix.items() for _ in range(k)]
    out = []
    while len(out) < count:
        out.extend(block[i] for i in rng.permutation(len(block)))
    return out[:count]


def random_pure_state(rng: np.random.Generator) -> np.ndarray:
    vec = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return vec / np.linalg.norm(vec)


def random_density(rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    rho = a @ dagger(a)
    return hermitian_part(rho / np.trace(rho).real)


# ----------------------------------------------------------------------
# plan documents and the cascade walk


def _complex(pair) -> complex:
    return complex(float(pair[0]), float(pair[1]))


def matrix_from_pairs(obj) -> np.ndarray:
    return np.array([[_complex(obj[r][c]) for c in range(2)] for r in range(2)], dtype=complex)


def matrix_to_pairs(m: np.ndarray) -> list:
    return [[[float(m[r, c].real), float(m[r, c].imag)] for c in range(2)] for r in range(2)]


def povm_document(elements: np.ndarray) -> dict:
    return {"schema_version": "1", "elements": [matrix_to_pairs(f) for f in elements]}


def stage_settings(plan) -> tuple[list[tuple], np.ndarray]:
    """(theta, phi, zeta, xi, pre, exit) per stage and the final exit unitary of a plan object."""
    stages = [
        (m.theta, m.phi, m.zeta, m.xi, np.asarray(m.pre_unitary), np.asarray(m.exit_unitary))
        for m in plan.modules
    ]
    return stages, np.asarray(plan.final_exit_unitary)


def document_settings(doc: dict) -> tuple[list[tuple], np.ndarray]:
    """The same, read from a plan document (JSON with [re, im] pairs)."""
    stages = [
        (
            float(m["theta"]),
            float(m["phi"]),
            float(m["zeta"]),
            float(m["xi"]),
            matrix_from_pairs(m["pre_unitary"]),
            matrix_from_pairs(m["exit_unitary"]),
        )
        for m in doc["modules"]
    ]
    return stages, matrix_from_pairs(doc["final_exit_unitary"])


def realized_operators(stages, final: np.ndarray) -> np.ndarray:
    """Kraus operators the cascade realizes: V_j D_j U_j T_{j-1}, then V_n T_{n-1}."""
    ops = []
    prefix = np.eye(2, dtype=complex)
    for theta, phi, zeta, xi, pre, exit_unitary in stages:
        staged = pre @ prefix
        exit_diag = np.array([np.exp(1j * zeta) * math.cos(theta), math.cos(phi)])
        pass_diag = np.array([np.exp(1j * xi) * math.sin(theta), math.sin(phi)])
        ops.append(exit_unitary @ (exit_diag[:, None] * staged))
        prefix = pass_diag[:, None] * staged
    ops.append(final @ prefix)
    return np.array(ops)


def perturb_exit(stages, elements: np.ndarray, angle: float = 1e-2):
    """Copy of stages with the exit unitary of the heaviest stage rotated by angle."""
    j = int(np.argmax(np.trace(elements[:-1], axis1=1, axis2=2).real))
    c, s = math.cos(angle), math.sin(angle)
    twist = np.array([[c, -s], [s, c]], dtype=complex)
    out = list(stages)
    theta, phi, zeta, xi, pre, exit_unitary = out[j]
    out[j] = (theta, phi, zeta, xi, pre, exit_unitary @ twist)
    return out, j


# ----------------------------------------------------------------------
# checks: each returns a list of failure reasons, empty when the output is right


def check_operators(realized: np.ndarray, kraus: np.ndarray, elements: np.ndarray, what: str) -> list[str]:
    if realized.shape != kraus.shape:
        return [f"{what}: {len(realized)} operators for {len(kraus)} outcomes"]
    reasons = []
    k_res = float(np.max(np.abs(realized - kraus)))
    if not k_res <= OPERATOR_BOUND:
        reasons.append(f"{what} kraus_roundtrip {k_res:.2e}")
    f_res = float(np.max(np.abs(dagger(realized) @ realized - elements)))
    if not f_res <= OPERATOR_BOUND:
        reasons.append(f"{what} f_roundtrip {f_res:.2e}")
    return reasons


def check_pure_exits(records, psi: np.ndarray, kraus: np.ndarray, elements: np.ndarray) -> list[str]:
    """Exit records (index, probability, polarization) vs |M_i psi|^2 and M_i psi psi^dag M_i^dag."""
    if len(records) != len(elements):
        return [f"{len(records)} exits for {len(elements)} outcomes"]
    p_ref = np.einsum("i,kij,j->k", np.conj(psi), elements, psi).real
    target = kraus @ psi
    reasons = []
    p_res = 0.0
    proj_res = 0.0
    for (_, p, pol), p_want, t in zip(records, p_ref, target):
        p_res = max(p_res, abs(p - p_want))
        got = np.zeros((2, 2), dtype=complex) if pol is None else p * np.outer(pol, np.conj(pol))
        proj_res = max(proj_res, float(np.max(np.abs(got - np.outer(t, np.conj(t))))))
    if not p_res <= PROBABILITY_BOUND:
        reasons.append(f"pure probability {p_res:.2e}")
    if not proj_res <= OPERATOR_BOUND:
        reasons.append(f"pure conditional_state {proj_res:.2e}")
    return reasons


def check_density_report(report, rank: int) -> list[str]:
    """verify_density's exit-probability residual (its references are built from the
    Kraus set passed in) under our bound, and the number of components it propagated.

    Its post_state residual is not judged: it is an operator-level error divided by
    the outcome probability, so it has no bound comparable to OPERATOR_BOUND; the
    conditional outputs are judged unnormalized in check_pure_exits instead.
    """
    reasons = []
    residual = report.check("probability").max_residual
    if not residual <= PROBABILITY_BOUND:
        reasons.append(f"density probability {residual:.2e}")
    if report.case_count != rank:
        reasons.append(f"density propagated {report.case_count} components, state has rank {rank}")
    return reasons
