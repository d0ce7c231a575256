"""POVM and Kraus-operator data model, validation, and the analytic oracle.

A POVM on the polarization qubit is a list of Hermitian positive
semidefinite 2x2 operators summing to the identity.  Each element F can be
written F = M^dag M for a Kraus operator M; the measurement sends a state
rho to M rho M^dag / p with probability p = tr(M rho M^dag).  Element order
is significant: outcome i of the compiled cascade is list position i.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qmath import (
    DEFAULT_TOL,
    NotHermitian,
    NotPsd,
    _hermitian_residuals,
    as_matrix2,
    dagger,
    identity2,
    is_unitary,
    max_abs,
    sqrt_psd,
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
    "density_from_pure",
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


@dataclass(frozen=True)
class PovmSet:
    """Validated, ordered POVM elements F_1..F_n.  Build via :func:`validate_povm`."""

    elements: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __getitem__(self, i):
        return self.elements[i]


@dataclass(frozen=True)
class KrausSet:
    """Validated, ordered Kraus operators M_1..M_n with sum M^dag M = I."""

    operators: tuple[np.ndarray, ...]

    def __len__(self) -> int:
        return len(self.operators)

    def __iter__(self):
        return iter(self.operators)

    def __getitem__(self, i):
        return self.operators[i]


@dataclass(frozen=True)
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
    at DEFAULT_TOL.

    Raises the first violation found: NotHermitian(i), NotPsd(i) with the
    offending minimum eigenvalue, or IncompleteSum with the entrywise
    residual of sum(F) - I.  Zero elements are legal; they arise in
    degenerate parameterizations and the algebra tolerates them.
    """
    mats = _as_elements(elements)
    if len(mats) < 2:
        raise ValueError(f"a POVM needs at least 2 elements, got {len(mats)}")
    _check_residuals(*_residuals(mats))
    return PovmSet(tuple(mats))


def _check_residuals(per_element, residual: float) -> None:
    """Raise the first violation among validation_residuals' output at
    DEFAULT_TOL; a NaN residual is a violation."""
    for i, (herm_residual, min_eigenvalue) in enumerate(per_element):
        if not herm_residual <= DEFAULT_TOL:
            raise NotHermitian(
                f"element {i + 1}: hermiticity residual {herm_residual:.3e}",
                index=i,
                residual=herm_residual,
            )
        if not min_eigenvalue >= -DEFAULT_TOL:
            raise NotPsd(
                f"element {i + 1}: minimum eigenvalue {min_eigenvalue:.3e}",
                index=i,
                min_eigenvalue=min_eigenvalue,
            )
    if not residual <= DEFAULT_TOL:
        raise IncompleteSum(f"sum of elements deviates from identity by {residual:.3e}", residual)


def validate_kraus(operators) -> KrausSet:
    """Check the completeness relation sum M^dag M = I at DEFAULT_TOL (NaN
    and Inf fail it) and wrap the operators."""
    mats = [as_matrix2(m, name=f"operator {i + 1}") for i, m in enumerate(operators)]
    if len(mats) < 2:
        raise ValueError(f"a Kraus set needs at least 2 operators, got {len(mats)}")
    total = sum((dagger(m) @ m for m in mats), start=np.zeros((2, 2), dtype=complex))
    residual = max_abs(total - identity2())
    if not residual <= DEFAULT_TOL:
        raise IncompleteSum(f"sum of M^dag M deviates from identity by {residual:.3e}", residual)
    return KrausSet(tuple(mats))


def kraus_from_povm(povm: PovmSet, exit_unitaries=None) -> KrausSet:
    """Canonical Kraus operators M_i = V_i sqrt(F_i).

    With no exit unitaries the principal square root is used (V_i = I).
    Supplying unitaries changes the conditional output states while leaving
    the measurement statistics untouched.
    """
    if exit_unitaries is None:
        exit_unitaries = [identity2()] * len(povm)
    else:
        exit_unitaries = [as_matrix2(u, name=f"exit unitary {i + 1}") for i, u in enumerate(exit_unitaries)]
        if len(exit_unitaries) != len(povm):
            raise ValueError(
                f"expected {len(povm)} exit unitaries, got {len(exit_unitaries)}"
            )
        for i, u in enumerate(exit_unitaries):
            if not is_unitary(u):
                raise NotUnitary(f"exit unitary {i + 1} is not unitary", index=i)
    ops = [v @ sqrt_psd(f) for v, f in zip(exit_unitaries, povm)]
    return validate_kraus(ops)


def density_matrix(rho) -> DensityMatrix:
    """Validate a 2x2 density matrix (Hermitian, PSD, unit trace) at DEFAULT_TOL."""
    rho = as_matrix2(rho, name="density matrix")
    herm_residual, min_eigenvalue = _hermitian_residuals(rho)
    if not herm_residual <= DEFAULT_TOL:
        raise NotHermitian(f"density matrix hermiticity residual {herm_residual:.3e}", residual=herm_residual)
    if not min_eigenvalue >= -DEFAULT_TOL:
        raise NotPsd(f"density matrix minimum eigenvalue {min_eigenvalue:.3e}", min_eigenvalue=min_eigenvalue)
    trace = complex(np.trace(rho))
    if not abs(trace - 1.0) <= DEFAULT_TOL:
        raise ValueError(f"density matrix trace {trace:.12g} is not 1")
    return DensityMatrix(rho)


def density_from_pure(psi) -> DensityMatrix:
    """|psi><psi| for a (normalized on entry) 2-component amplitude vector."""
    psi = np.asarray(psi, dtype=complex)
    norm = np.linalg.norm(psi)
    if norm == 0.0:
        raise ValueError("cannot build a state from the zero vector")
    psi = psi / norm
    return DensityMatrix(np.outer(psi, psi.conj()))


def outcome_probabilities(rho: DensityMatrix, kraus: KrausSet) -> list[OutcomeRecord]:
    """Measurement statistics of a Kraus set on a state.

    Outcome i carries probability p_i = tr(M_i rho M_i^dag), clamped into
    [0, 1] against round-off, and the normalized post state
    M_i rho M_i^dag / p_i when p_i is above PROBABILITY_FLOOR.
    """
    records = []
    for i, m in enumerate(kraus):
        transformed = m @ rho.rho @ dagger(m)
        p = float(np.trace(transformed).real)
        p = min(max(p, 0.0), 1.0)
        if p >= PROBABILITY_FLOOR:
            post = transformed / p
            post = 0.5 * (post + dagger(post))
            records.append(OutcomeRecord(i + 1, p, DensityMatrix(post)))
        else:
            records.append(OutcomeRecord(i + 1, p, None))
    return records


def validation_residuals(elements) -> tuple[list[tuple[float, float]], float]:
    """Diagnostic residuals for reporting: per element (hermiticity residual,
    minimum eigenvalue) plus the completeness residual ||sum F - I||."""
    return _residuals(_as_elements(elements))


def _as_elements(elements) -> list[np.ndarray]:
    return [as_matrix2(e, name=f"element {i + 1}") for i, e in enumerate(elements)]


def _residuals(mats: list[np.ndarray]) -> tuple[list[tuple[float, float]], float]:
    total = sum(mats[1:], start=mats[0])
    return [_hermitian_residuals(f) for f in mats], max_abs(total - identity2())
