"""POVM and Kraus-operator data model, validation, and the analytic oracle.

A POVM on the polarization qubit is a list of Hermitian positive
semidefinite 2x2 operators summing to the identity.  Each element F can be
written F = M^dag M for a Kraus operator M; the measurement sends a state
rho to M rho M^dag / p with probability p = tr(M rho M^dag).  Element order
is significant: outcome i of the compiled cascade is list position i.  One
stacked kernel, _conditional_states, evaluates that map for every outcome
at once; the network simulation runs it on its exit maps.

A PovmSet is valid by construction.  One stacked spectral pass over its
elements decides every check and takes every square root sqrt(F_i); the set
keeps the (n, 2, 2) stack it checked and those roots, so kraus_from_povm
decomposes nothing again.  A KrausSet from validate_kraus likewise holds the
one stack its completeness check read, and the readers of either set
(synthesis, verification, outcome_probabilities) take that stack as it is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .qmath import (
    DEFAULT_TOL,
    Rows2,
    _check_operator,
    _matrix2_rows,
    _psd_roots,
    _unitary_residual,
    as_matrix2,
    dagger,
    identity2,
    max_abs,
)

__all__ = [
    "IncompleteSum",
    "NotUnitary",
    "PovmSet",
    "KrausSet",
    "DensityMatrix",
    "OutcomeRecord",
    "validate_povm",
    "validate_kraus",
    "kraus_from_povm",
    "density_matrix",
    "outcome_probabilities",
    "validation_residuals",
]

#: outcomes with probability below this have no well-defined post state
PROBABILITY_FLOOR = 1e-12


class IncompleteSum(ValueError):
    """The POVM elements do not sum to the identity."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class NotUnitary(ValueError):
    """A matrix expected to be unitary is not (beyond tolerance)."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


@dataclass(frozen=True, eq=False)
class PovmSet:
    """Ordered POVM elements F_1..F_n, checked when built (see :func:`validate_povm`).

    The elements are stored as the one complex (n, 2, 2) array the checks
    ran on, read-only so the set stays valid; the PSD square root of each,
    taken in the same pass, is kept privately, read-only too, for
    :func:`kraus_from_povm`.
    """

    elements: np.ndarray
    _roots: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        mats = _stack(self.elements, "element")
        if len(mats) < 2:
            raise ValueError(f"a POVM needs at least 2 elements, got {len(mats)}")
        per_element, completeness, roots = _spectral_pass(mats)
        _check_residuals(per_element, completeness)
        roots.setflags(write=False)
        object.__setattr__(self, "elements", mats)
        object.__setattr__(self, "_roots", roots)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Validated, ordered Kraus operators M_1..M_n with sum M^dag M = I, as
    one read-only complex (n, 2, 2) array when built by :func:`validate_kraus`."""

    operators: np.ndarray

    def __len__(self) -> int:
        return len(self.operators)

    def __iter__(self):
        return iter(self.operators)

    def __getitem__(self, i):
        return self.operators[i]


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian PSD unit-trace 2x2 state.  Build via :func:`density_matrix`."""

    rho: np.ndarray


@dataclass(frozen=True)
class OutcomeRecord:
    """One measurement outcome: 1-based index, probability, post state.

    ``post_state`` is None when the probability is below PROBABILITY_FLOOR,
    where normalizing the conditional state would divide by ~0.
    """

    index: int
    probability: float
    post_state: DensityMatrix | None


def validate_povm(elements) -> PovmSet:
    """Check Hermiticity, positivity, and completeness of a POVM element list
    at DEFAULT_TOL; the checks run when the PovmSet is built.

    Raises the first violation found: NotHermitian(i), NotPsd(i) with the
    offending minimum eigenvalue, or IncompleteSum with the entrywise
    residual of sum(F) - I.  Zero elements are legal; they arise in
    degenerate parameterizations and the algebra tolerates them.
    """
    return PovmSet(elements)


def _check_residuals(per_element, residual: float) -> None:
    """Raise the first violation among validation_residuals' output at
    DEFAULT_TOL: NotHermitian(i) or NotPsd(i) for the first element whose
    (hermiticity residual, minimum eigenvalue) fails, else IncompleteSum;
    a NaN residual is a violation."""
    for i, (herm_residual, min_eigenvalue) in enumerate(per_element):
        _check_operator(herm_residual, min_eigenvalue, f"element {i + 1}", i)
    _check_complete(residual, "elements")


def _check_complete(residual: float, what: str) -> None:
    """The one completeness check: IncompleteSum("sum of what deviates from
    identity by ...", residual) if residual exceeds DEFAULT_TOL; NaN fails it."""
    if not residual <= DEFAULT_TOL:
        raise IncompleteSum(f"sum of {what} deviates from identity by {residual:.3e}", residual)


def validate_kraus(operators) -> KrausSet:
    """Check the completeness relation sum M^dag M = I at DEFAULT_TOL (NaN
    and Inf fail it) and wrap the operators."""
    mats = _stack(operators, "operator")
    if len(mats) < 2:
        raise ValueError(f"a Kraus set needs at least 2 operators, got {len(mats)}")
    _check_complete(max_abs(np.sum(dagger(mats) @ mats, axis=0) - identity2()), "M^dag M")
    return KrausSet(mats)


def kraus_from_povm(povm: PovmSet, exit_unitaries=None) -> KrausSet:
    """Canonical Kraus operators M_i = V_i sqrt(F_i).

    With no exit unitaries the principal square root is used (V_i = I).
    Supplying unitaries changes the conditional output states while leaving
    the measurement statistics untouched.  The roots are those the PovmSet
    took when it was built.
    """
    if exit_unitaries is None:
        return validate_kraus(povm._roots)
    units = _stack(exit_unitaries, "exit unitary")
    if len(units) != len(povm):
        raise ValueError(f"expected {len(povm)} exit unitaries, got {len(units)}")
    for i, u in enumerate(units):
        _check_unitary(u, f"exit unitary {i + 1}", i)
    return validate_kraus(units @ povm._roots)


def _check_unitary(m, name: str, index: int | None = None) -> Rows2:
    """The one unitarity check: m, given as rows of Python complex numbers or
    as anything array-like, as rows (as_matrix2's checks, under name), or
    NotUnitary("name is not unitary", index) if m^dag m is off the identity
    by more than DEFAULT_TOL."""
    rows = _matrix2_rows(m, name)
    if not _unitary_residual(rows) <= DEFAULT_TOL:
        raise NotUnitary(f"{name} is not unitary", index)
    return rows


def density_matrix(rho) -> DensityMatrix:
    """Validate a 2x2 density matrix (Hermitian, PSD, unit trace) at DEFAULT_TOL."""
    rho = as_matrix2(rho, name="density matrix")
    _, residual, low = _psd_roots(rho[None])
    _check_operator(float(residual[0]), float(low[0]), "density matrix")
    trace = complex(np.trace(rho))
    if not abs(trace - 1.0) <= DEFAULT_TOL:
        raise ValueError(f"density matrix trace {trace:.12g} is not 1")
    return DensityMatrix(rho)


def outcome_probabilities(rho: DensityMatrix, kraus: KrausSet) -> list[OutcomeRecord]:
    """Measurement statistics of a Kraus set on a state.

    Outcome i carries probability p_i = tr(M_i rho M_i^dag), clamped into
    [0, 1] against round-off, and the normalized post state
    M_i rho M_i^dag / p_i when p_i is at or above PROBABILITY_FLOOR.  This
    is :func:`_conditional_states` on the Kraus stack, the same kernel
    :func:`verify.simulate_density` runs on the network's exit maps.
    """
    probabilities, states = _conditional_states(np.asarray(kraus.operators), rho)
    return _outcome_records(np.clip(probabilities, 0.0, 1.0), states)


def _conditional_states(maps: np.ndarray, rho: DensityMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(p, states) for an (n, 2, 2) stack of maps T_i: the unnormalized
    conditional states T_i rho T_i^dag, Hermitian-symmetrized, and their
    traces p_i, the outcome probabilities."""
    states = maps @ rho.rho @ dagger(maps)
    states = 0.5 * (states + dagger(states))
    return np.trace(states, axis1=1, axis2=2).real, states


def _outcome_records(probabilities: np.ndarray, states: np.ndarray) -> list[OutcomeRecord]:
    """One OutcomeRecord per outcome: its post state states[i] / p_i, or None
    below PROBABILITY_FLOOR."""
    return [
        OutcomeRecord(i, p, DensityMatrix(state / p) if p >= PROBABILITY_FLOOR else None)
        for i, (p, state) in enumerate(zip(probabilities.tolist(), states), start=1)
    ]


def validation_residuals(elements) -> tuple[list[tuple[float, float]], float]:
    """Diagnostic residuals for reporting: per element (hermiticity residual,
    minimum eigenvalue) plus the completeness residual ||sum F - I||."""
    return _spectral_pass(_stack(elements, "element"))[:2]


def _stack(matrices, label: str) -> np.ndarray:
    """The matrices as one read-only complex (n, 2, 2) array, a copy; a wrong
    shape or a NaN/Inf entry (an int beyond the double range included) raises
    as_matrix2's error for the first offending one.  An array is read as it
    is, not split into its n matrices."""
    matrices = matrices if type(matrices) is np.ndarray else list(matrices)
    try:
        stack = np.array(matrices, dtype=complex)
    except (ValueError, TypeError, OverflowError):
        stack = None
    if stack is None or stack.shape[1:] != (2, 2) or not np.isfinite(stack).all():
        checked = [_matrix2_rows(m, f"{label} {i + 1}") for i, m in enumerate(matrices)]
        stack = np.array(checked, dtype=complex).reshape(-1, 2, 2)
    stack.setflags(write=False)
    return stack


def _spectral_pass(mats: np.ndarray):
    """(per_element, completeness, roots) of a finite (n, 2, 2) stack in one
    pass: per element the (hermiticity residual, minimum eigenvalue) that
    decide whether its PSD square root exists, the completeness residual
    max|sum F - I|, and the roots, with qmath's RANK_FLOOR."""
    roots, residual, low = _psd_roots(mats)
    with np.errstate(over="ignore"):  # a sum beyond the double range is +-inf
        completeness = max_abs(np.sum(mats, axis=0) - identity2())
    return list(zip(residual.tolist(), low.tolist())), completeness, roots
