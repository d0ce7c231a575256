"""Deterministic closed-form linear algebra for complex 2x2 matrices.

Everything here operates on plain numpy arrays of shape ``(2, 2)`` and dtype
complex128, written as explicit 2x2 formulas instead of iterative LAPACK
calls so that results are bit-stable across runs.  Unitary factors follow a
fixed phase gauge: each gauge-free column is scaled so its largest-modulus
entry is real and positive, which keeps golden-file comparisons meaningful.

Public functions check their input (shape, finiteness, Hermiticity at
DEFAULT_TOL; no function takes a tolerance argument).  The private cores
behind them (``_eig``, ``_svd``, ``_hermitian_residuals``) assume an input
already checked and, for ``_eig``, already symmetrized; the package calls
them on arrays it has just built.  Both paths run the same floating-point
operations, so results are bit-identical.

Basis convention throughout the package: index 0 is horizontal polarization
|H>, index 1 is vertical polarization |V>.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "DEFAULT_TOL",
    "NotHermitian",
    "NotPsd",
    "Svd2",
    "as_matrix2",
    "dagger",
    "max_abs",
    "identity2",
    "rotation",
    "phase_fixed",
    "is_unitary",
    "hermitian_residuals",
    "eig_hermitian2",
    "sqrt_psd",
    "svd2",
    "aligning_unitary",
]

#: the one validation tolerance: Hermiticity, positivity, completeness, unitarity
DEFAULT_TOL = 1e-9
#: sqrt_psd treats eigenvalues at or below this fraction of the largest as exactly 0
RANK_FLOOR = 16 * np.finfo(float).eps
#: _complete gauge-fixes a column whose weight is at most this fraction of the other's
GAUGE_CUTOFF = 1e-15


class NotHermitian(ValueError):
    """An operator expected to be Hermitian is not (beyond tolerance)."""

    def __init__(self, message: str, index: int | None = None, residual: float | None = None):
        super().__init__(message)
        self.index = index
        self.residual = residual


class NotPsd(ValueError):
    """An operator expected to be positive semidefinite has a negative eigenvalue."""

    def __init__(self, message: str, index: int | None = None, min_eigenvalue: float | None = None):
        super().__init__(message)
        self.index = index
        self.min_eigenvalue = min_eigenvalue


class Svd2(NamedTuple):
    """Factorization m = v @ diag(d) @ u with v, u unitary and d[0] >= d[1] >= 0."""

    v: np.ndarray
    d: np.ndarray
    u: np.ndarray


def as_matrix2(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a complex 2x2 array, rejecting wrong shapes and NaN/Inf entries."""
    out = np.array(m, dtype=complex)
    if out.shape != (2, 2):
        raise ValueError(f"{name} must be 2x2, got shape {out.shape}")
    if not np.isfinite(out).all():
        raise ValueError(f"{name} contains non-finite entries")
    return out


def dagger(m: np.ndarray) -> np.ndarray:
    """Hermitian conjugate."""
    return m.conj().T


def max_abs(m) -> float:
    """Entrywise max-modulus norm (the comparison metric used everywhere)."""
    return float(np.abs(m).max())


def identity2() -> np.ndarray:
    return np.eye(2, dtype=complex)


_IDENTITY = identity2()
_IDENTITY.flags.writeable = False
_TINY = np.finfo(float).tiny


def rotation(angle: float) -> np.ndarray:
    """Polarization rotation taking |H> to cos(angle)|H> + sin(angle)|V>."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


def phase_fixed(v: np.ndarray) -> np.ndarray:
    """Rescale a 2-vector by a unit phase so its largest-modulus entry is real >= 0."""
    i = int(np.abs(v).argmax())
    pivot = v[i]
    if pivot == 0:
        return np.array(v, dtype=complex)
    return np.asarray(v, dtype=complex) * (np.conj(pivot) / abs(pivot))


def _norm(v: np.ndarray) -> float:
    # np.linalg.norm of a contiguous complex vector, without the wrapper: same operations
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _columns(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    # np.column_stack([v1, v2]) for 2-vectors: the same C-contiguous array
    return np.array([v1, v2]).T.copy()


def _diag(d: np.ndarray) -> np.ndarray:
    # np.diag(d) for a real 2-vector
    return np.array([[d[0], 0.0], [0.0, d[1]]])


def _perp(v: np.ndarray) -> np.ndarray:
    # exact orthogonal complement of a 2-vector: <v, perp(v)> = 0 in floats too
    return np.array([-np.conj(v[1]), np.conj(v[0])], dtype=complex)


def _complete(c1: np.ndarray, d1: float, c2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unitary v and d >= 0 with (c1, c2) = v @ diag(d), for c1 of norm d1 > 0
    and c2 orthogonal to it.

    v's first column is c1 / d1 and its second the orthogonal complement,
    phased so that c2 lands on it with a real non-negative weight; where c2
    is dead (at or below GAUGE_CUTOFF * d1) that column is gauge-fixed instead.
    """
    v1 = c1 / d1
    vp = _perp(v1)
    beta = complex(vp.conj() @ c2)
    d2 = abs(beta)
    v2 = vp * (beta / d2) if d2 > GAUGE_CUTOFF * d1 else phase_fixed(vp)
    return _columns(v1, v2), np.array([d1, d2])


def _column_split(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unitary y and s >= 0 with m = y @ diag(s), for m with orthogonal columns.

    The larger column is normalized and the other one completed by
    :func:`_complete`; a zero m gives the identity.
    """
    c0, c1 = m[:, 0], m[:, 1]
    n0, n1 = _norm(c0), _norm(c1)
    if n0 >= n1:
        return (identity2(), np.zeros(2)) if n0 == 0.0 else _complete(c0, n0, c1)
    y, s = _complete(c1, n1, c0)
    return y[:, ::-1].copy(), s[::-1].copy()


def is_unitary(m: np.ndarray) -> bool:
    """m^dag m equals the identity within DEFAULT_TOL (False on NaN)."""
    return max_abs(dagger(m) @ m - _IDENTITY) <= DEFAULT_TOL


def hermitian_residuals(m: np.ndarray) -> tuple[float, float]:
    """(Hermiticity residual max|m - m^dag|, minimum eigenvalue of the Hermitian part).

    m is Hermitian when the first is <= DEFAULT_TOL, and also positive
    semidefinite when the second is >= -DEFAULT_TOL.
    """
    return _hermitian_residuals(as_matrix2(m))


def _hermitian_residuals(m: np.ndarray) -> tuple[float, float]:
    lam, _ = _eig(0.5 * (m + dagger(m)))
    return max_abs(m - dagger(m)), float(lam[1])


def eig_hermitian2(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian 2x2 matrix.

    Writing h = [[a, b], [conj(b), c]], the eigenvalues are t +- r with
    t = (a + c)/2 and r = sqrt((a - c)^2/4 + |b|^2); the eigenvector for
    each root lambda is proportional to (b, lambda - a) or, equivalently,
    (lambda - c, conj(b)) - whichever is numerically larger.

    Returns (eigenvalues descending, eigenvector matrix) where the k-th
    column is the gauge-fixed eigenvector of eigenvalue k.  On a scalar
    matrix the identity basis is returned.  Raises NotHermitian if the
    input fails the Hermiticity check at DEFAULT_TOL.
    """
    h = as_matrix2(h)
    residual = max_abs(h - dagger(h))
    if not residual <= DEFAULT_TOL:
        raise NotHermitian(
            f"hermiticity residual {residual:.3e} exceeds tolerance {DEFAULT_TOL:.1e}",
            residual=residual,
        )
    return _eig(0.5 * (h + dagger(h)))


def _unit_scaled(m: np.ndarray, scale: float) -> np.ndarray:
    # m / scale; numpy divides by multiplying with 1/scale, which overflows for
    # a subnormal scale, so that case is first lifted by an exact power of two
    return m / scale if scale >= _TINY else (m * 2.0**60) / (scale * 2.0**60)


def _eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    scale = max_abs(h)
    if scale == 0.0:
        return np.zeros(2), identity2()
    hs = _unit_scaled(h, scale)
    a = hs[0, 0].real
    c = hs[1, 1].real
    b = hs[0, 1]
    t = 0.5 * (a + c)
    r = math.hypot(0.5 * (a - c), abs(b))
    lam = scale * np.array([t + r, t - r])
    top = t + r
    cand_a = np.array([b, top - a], dtype=complex)
    cand_b = np.array([top - c, np.conj(b)], dtype=complex)
    norm_a, norm_b = _norm(cand_a), _norm(cand_b)
    cand, norm = (cand_a, norm_a) if norm_a >= norm_b else (cand_b, norm_b)
    if norm == 0.0:
        return lam, identity2()
    v1 = phase_fixed(cand / norm)
    v2 = phase_fixed(_perp(v1))
    return lam, _columns(v1, v2)


def sqrt_psd(f) -> np.ndarray:
    """Hermitian PSD square root R of f (R @ R = f).

    This is where the package decides rank: eigenvalues at or below
    RANK_FLOOR times the largest (round-off of a rank-deficient f, and any
    in [-DEFAULT_TOL, 0]) become exactly 0, so a rank-one element gets a
    rank-one root instead of one with a ~1e-8 tail from the square root of
    round-off.  Raises NotPsd for an eigenvalue below -DEFAULT_TOL.
    """
    lam, w = eig_hermitian2(f)
    if not lam[1] >= -DEFAULT_TOL:
        raise NotPsd(
            f"minimum eigenvalue {lam[1]:.3e} below -{DEFAULT_TOL:.1e}",
            min_eigenvalue=float(lam[1]),
        )
    lam = np.maximum(lam, 0.0)
    lam[lam <= RANK_FLOOR * lam[0]] = 0.0
    root = w @ _diag(np.sqrt(lam)) @ dagger(w)
    return 0.5 * (root + dagger(root))


def svd2(m) -> Svd2:
    """Closed-form singular value decomposition m = v @ diag(d) @ u.

    The right factor u comes from the eigenbasis of m^dag m (gauge-fixed,
    basis-aligned on degenerate spectra).  Left singular vectors are built
    by applying m to that basis and completing orthonormally, so v and u
    are unitary to machine precision and the product reconstructs m to
    machine precision even for rank-deficient input.
    """
    return _svd(as_matrix2(m))


def _svd(m: np.ndarray) -> Svd2:
    scale = max_abs(m)
    if scale == 0.0:
        return Svd2(identity2(), np.zeros(2), identity2())
    ms = _unit_scaled(m, scale)
    h = dagger(ms) @ ms
    _, w = _eig(0.5 * (h + dagger(h)))
    c1 = ms @ w[:, 0]
    d1 = _norm(c1)
    if d1 == 0.0:
        return Svd2(identity2(), np.zeros(2), dagger(w))
    v, d = _complete(c1, d1, ms @ w[:, 1])
    u = dagger(w)
    if d[1] > d[0]:
        v = v[:, ::-1].copy()
        d = d[::-1].copy()
        u = u[::-1, :].copy()
    return Svd2(v, scale * d, u)


def aligning_unitary(target, source) -> np.ndarray:
    """Unitary w minimizing ||w @ source - target||, i.e. w @ source = target
    whenever source^dag source = target^dag target.

    This is the orthogonal-Procrustes solution, w = omega @ psi for the
    factorization target @ source^dag = omega @ diag(s) @ psi.  On the
    kernel of source the action is fixed by the deterministic gauge of
    :func:`svd2`, so the completion is reproducible.
    """
    v, _, u = svd2(as_matrix2(target) @ dagger(as_matrix2(source)))
    return v @ u
