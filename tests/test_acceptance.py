"""Acceptance battery: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

import itertools
import math
import time

import numpy as np

from povmcascade.demos import EkertParams, ekert_povm, trine_povm
from povmcascade.optics import (
    PhotonState,
    build_cascade_network,
    exit_amplitudes,
    propagate,
)
from povmcascade.povm import kraus_from_povm
from povmcascade.qmath import dagger, eig_hermitian2, max_abs, svd2
from povmcascade.synthesis import (
    CascadePlan,
    ModuleSettings,
    reconstruct_kraus,
    synthesize_cascade,
)
from povmcascade.verify import (
    TOLERANCES,
    random_povm,
    random_pure_state,
    random_rank_one_povm,
    verify_plan,
)

R3 = math.sqrt(3.0)
I2 = np.eye(2, dtype=complex)


def report(name: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
    assert passed, f"{name}: {detail}"


def test_criterion_1_trine_reproduction():
    start = time.perf_counter()
    povm, _, plan = trine_povm()
    assert plan.modules[0].theta == math.acos(math.sqrt(2.0 / 3.0))
    assert plan.modules[0].phi == math.pi / 2
    assert plan.modules[1].theta == 0.0
    assert plan.modules[1].phi == math.pi / 2
    rebuilt = reconstruct_kraus(plan)
    expected = [
        (2.0 / 3.0) * np.diag([1.0, 0.0]).astype(complex),
        (1.0 / 6.0) * np.array([[1.0, R3], [R3, 3.0]], dtype=complex),
        (1.0 / 6.0) * np.array([[1.0, -R3], [-R3, 3.0]], dtype=complex),
    ]
    residual = max(
        max_abs(dagger(m) @ m - f) for m, f in zip(rebuilt, expected)
    )
    elapsed = time.perf_counter() - start
    report(
        "criterion 1 trine reproduction",
        residual <= 1e-12 and elapsed < 1.0,
        f"element residual {residual:.3e} (tol 1e-12), runtime {elapsed:.3f} s (< 1 s)",
    )


def test_criterion_2_trine_output_geometry():
    _, kraus, plan = trine_povm()
    network = build_cascade_network(plan)
    out = propagate(PhotonState.pure(network.input, [1.0, 0.0]), network)
    records = exit_amplitudes(out, network)
    probs = [r.probability for r in records]
    prob_residual = max(
        abs(p - e) for p, e in zip(probs, [2.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0])
    )
    angle_residual = 0.0
    for a, b in itertools.combinations(records, 2):
        overlap = abs(np.vdot(a.polarization, b.polarization))
        angle = 2.0 * math.acos(min(overlap, 1.0))
        angle_residual = max(angle_residual, abs(angle - 2.0 * math.pi / 3.0))
    report(
        "criterion 2 trine output geometry",
        prob_residual <= 1e-12 and angle_residual <= 1e-9,
        f"probability residual {prob_residual:.3e} (tol 1e-12), "
        f"pairwise angle residual {angle_residual:.3e} rad (tol 1e-9)",
    )


def test_criterion_3_ekert_reproduction():
    start = time.perf_counter()
    f_residual = 0.0
    min_eigenvalue = 0.0
    cases = 0
    for alpha in np.linspace(-0.6, 0.9, 4):
        for delta in np.linspace(0.07, math.pi / 2 - 0.07, 5):
            alpha = float(alpha)
            beta = alpha + float(delta)
            povm, plan = ekert_povm(EkertParams(alpha, beta))
            rebuilt = reconstruct_kraus(plan)
            k = 1.0 / (1.0 + math.cos(beta - alpha))
            for angle, m in [(alpha, rebuilt[0]), (beta, rebuilt[1])]:
                closed = k * np.array(
                    [
                        [math.sin(angle) ** 2, -math.sin(angle) * math.cos(angle)],
                        [-math.sin(angle) * math.cos(angle), math.cos(angle) ** 2],
                    ]
                )
                f_residual = max(f_residual, max_abs(dagger(m) @ m - closed))
            lam, _ = eig_hermitian2(povm[2])
            min_eigenvalue = min(min_eigenvalue, float(lam[1]))
            cases += 1
    elapsed = time.perf_counter() - start
    report(
        "criterion 3 ekert reproduction",
        cases == 20 and f_residual <= 1e-10 and min_eigenvalue >= -1e-9 and elapsed < 1.0,
        f"{cases} (alpha, beta) pairs, conclusive-operator residual {f_residual:.3e} "
        f"(tol 1e-10), min inconclusive eigenvalue {min_eigenvalue:.3e} (>= -1e-9), "
        f"runtime {elapsed:.3f} s (< 1 s)",
    )


def test_criterion_4_single_module_closed_form():
    rng = np.random.default_rng(42)
    residual = 0.0
    for _ in range(1000):
        theta, phi = rng.uniform(0.0, math.pi / 2, size=2)
        settings = ModuleSettings(theta=theta, phi=phi)
        network = build_cascade_network(CascadePlan((settings,), I2))
        psi = random_pure_state(rng)
        out = propagate(PhotonState.pure(network.input, psi), network)
        a, b = psi
        expected_exit = np.array([a * math.cos(theta), b * math.cos(phi)])
        expected_pass = np.array([a * math.sin(theta), b * math.sin(phi)])
        p1, p2 = network.exits
        residual = max(
            residual,
            max_abs(out.mode_vector(p1) - expected_exit),
            max_abs(out.mode_vector(p2) - expected_pass),
        )
    report(
        "criterion 4 single-module closed form",
        residual <= 1e-12,
        f"amplitude residual over 1000 draws {residual:.3e} (tol 1e-12)",
    )


def test_criterion_5_round_trip_fuzzing():
    start = time.perf_counter()
    worst = {name: 0.0 for name in TOLERANCES if name != "post_state"}
    failures = []
    for n in range(2, 7):
        for seed in range(100):
            kraus = kraus_from_povm(random_povm(n, 1000 * n + seed))
            plan = synthesize_cascade(kraus)
            result = verify_plan(kraus, plan, trial_states=20, seed=seed)
            for check in result.checks:
                worst[check.name] = max(worst[check.name], check.max_residual)
                if not check.passed:
                    failures.append((n, seed, check.name, check.max_residual))
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{name} {value:.2e}" for name, value in worst.items())
    report(
        "criterion 5 round-trip fuzzing",
        not failures and elapsed < 30.0,
        f"500 POVMs x 20 states, worst residuals: {detail}; "
        f"runtime {elapsed:.1f} s (< 30 s); failures: {failures[:3]}",
    )


def test_criterion_6_residual_identity():
    worst = 0.0
    for n in range(2, 7):
        for seed in range(20):
            kraus = kraus_from_povm(random_povm(n, 500 * n + seed))
            elements = [dagger(m) @ m for m in kraus]
            plan = synthesize_cascade(kraus)
            # T_j: the realized pass-arm amplitude behind the first j modules
            for j in range(1, n):
                prefix = reconstruct_kraus(CascadePlan(plan.modules[:j], I2))[-1]
                remaining = I2 - sum(
                    elements[:j], start=np.zeros((2, 2), dtype=complex)
                )
                gram = dagger(prefix) @ prefix
                worst = max(worst, max_abs(gram - remaining))
    report(
        "criterion 6 residual identity",
        worst <= 1e-9,
        f"max ||T_j^dag T_j - (I - sum F)|| over plan prefixes {worst:.3e} (tol 1e-9)",
    )


def test_criterion_7_projective_degeneracy():
    worst = 0.0
    for case in range(100):
        n = 2 + case % 3
        kraus = kraus_from_povm(random_rank_one_povm(n, case))
        plan = synthesize_cascade(kraus)
        for module in plan.modules:
            worst = max(worst, min(math.cos(module.theta), math.cos(module.phi)))
    report(
        "criterion 7 projective degeneracy",
        worst <= 1e-8,
        f"max over 100 projective POVMs of min diagonal entry {worst:.3e} (tol 1e-8)",
    )


def _random_unitary(rng):
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    v, _, u = svd2(g)
    return v @ u


def _twist_exit(plan, position, twist):
    # left-multiply the exit unitary of one outcome (position n-1 is the final arm)
    if position == len(plan.modules):
        return CascadePlan(plan.modules, twist @ plan.final_exit_unitary)
    modules = list(plan.modules)
    original = modules[position]
    modules[position] = ModuleSettings(
        theta=original.theta,
        phi=original.phi,
        zeta=original.zeta,
        xi=original.xi,
        pre_unitary=original.pre_unitary,
        exit_unitary=twist @ original.exit_unitary,
    )
    return CascadePlan(tuple(modules), plan.final_exit_unitary)


def test_criterion_8_gauge_invariance():
    rng = np.random.default_rng(2024)
    prob_residual = 0.0
    worst_overlap = math.inf
    for case in range(12):
        kraus = kraus_from_povm(random_povm(3, 300 + case))
        plan = synthesize_cascade(kraus)
        position = case % (len(plan.modules) + 1)
        twisted = _twist_exit(plan, position, _random_unitary(rng))
        base_net = build_cascade_network(plan)
        twisted_net = build_cascade_network(twisted)
        for _ in range(10):
            psi = random_pure_state(rng)
            base = exit_amplitudes(
                propagate(PhotonState.pure(base_net.input, psi), base_net), base_net
            )
            moved = exit_amplitudes(
                propagate(PhotonState.pure(twisted_net.input, psi), twisted_net), twisted_net
            )
            for b, m in zip(base, moved):
                prob_residual = max(prob_residual, abs(b.probability - m.probability))
            b, m = base[position], moved[position]
            if b.polarization is not None and m.polarization is not None:
                overlap = abs(np.vdot(b.polarization, m.polarization))
                worst_overlap = min(worst_overlap, overlap)
    report(
        "criterion 8 gauge invariance",
        prob_residual <= 1e-10 and worst_overlap < 1.0 - 1e-6,
        f"probability shift {prob_residual:.3e} (tol 1e-10), "
        f"smallest conditional-state overlap {worst_overlap:.6f} (< 1)",
    )
