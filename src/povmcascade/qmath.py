"""Deterministic closed-form linear algebra for complex 2x2 matrices.

The formulas are explicit 2x2 closed forms, not iterative LAPACK calls, so
results are reproducible.  Unitary factors follow a fixed phase gauge: each
gauge-free column is scaled so its largest-modulus entry (the first on a
tie) is exactly real and non-negative.

The work is done by cores of two kinds, each idea written once:

* Scalar cores act on Python complex numbers, a matrix being the nested
  pair ``((m00, m01), (m10, m11))`` (``Rows2``, the form a plan's settings
  hold; ``_matrix2_rows`` reads any other form into it), with no numpy
  call: the phase gauge of a pair (``_phase_fixed``), the Hermitian
  eigendecomposition (``_eig``), the completion of two orthogonal columns
  into a unitary and its weights (``_column_split``), the SVD built from
  those two (``_svd``) and the sweep's QR step (``_qr``): one fixed-size
  4-row Gram-Schmidt step with one re-orthogonalization, whose first stage
  is ``[M_n; 0]``.  The synthesizer runs on them.
* The stacked core ``_spectra`` evaluates ``_eig``'s closed form on a whole
  ``(n, 2, 2)`` array at once: Hermiticity residuals, eigenvalues and top
  eigenvectors, from which ``_psd_roots`` takes every square root.  POVM
  validation makes one ``_psd_roots`` pass over the element stack, and the
  ``PovmSet`` keeps its roots for the Kraus operators.

Public functions check their input (shape, finiteness, Hermiticity at
DEFAULT_TOL; no function takes a tolerance argument) and call the cores;
the cores assume checked, finite input.  Every NotHermitian and NotPsd in
the package is raised by one checker, ``_check_operator``.

Basis convention throughout the package: index 0 is horizontal polarization
|H>, index 1 is vertical polarization |V>.
"""

from __future__ import annotations

import cmath
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
    "eig_hermitian2",
    "sqrt_psd",
    "svd2",
    "aligning_unitary",
]

#: the one validation tolerance: Hermiticity, positivity, completeness, unitarity
DEFAULT_TOL = 1e-9
#: sqrt_psd treats eigenvalues at or below this fraction of the largest as exactly 0
RANK_FLOOR = 16 * np.finfo(float).eps
#: _column_split gauge-fixes a column whose weight is at most this fraction of the other's,
#: and _qr its second column where at most this fraction of it survives the projection
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


#: a 2x2 matrix as the scalar cores hold it: rows ((m00, m01), (m10, m11))
Rows2 = tuple[tuple[complex, complex], tuple[complex, complex]]


class Svd2(NamedTuple):
    """Factorization m = v @ diag(d) @ u with v, u unitary and d[0] >= d[1] >= 0."""

    v: np.ndarray
    d: np.ndarray
    u: np.ndarray


def as_matrix2(m, name: str = "matrix") -> np.ndarray:
    """Coerce to a complex 2x2 array, rejecting entries that are not numbers,
    wrong shapes and NaN/Inf entries."""
    return np.array(_matrix2_rows(m, name), dtype=complex)


def _matrix2_rows(m, name: str = "matrix") -> Rows2:
    """Run as_matrix2's checks on m and return its rows as nested Python
    complex pairs, the form the scalar cores take.  Rows already in that form
    (a tuple of two pairs of complex numbers) are read as they are; anything
    else is read through a complex array."""
    try:  # an array or list fails the unpacking of (), a malformed tuple its own
        (a, b), (c, d) = m if type(m) is tuple else ()
        given = type(a) is type(b) is type(c) is type(d) is complex
    except (TypeError, ValueError):
        given = False
    if not given:
        try:
            m = np.asarray(m, dtype=complex)
        except OverflowError as exc:  # an int beyond the double range
            raise ValueError(f"{name} contains non-finite entries") from exc
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{name} has entries that are not numbers: {exc}") from exc
        if m.shape != (2, 2):
            raise ValueError(f"{name} must be 2x2, got shape {m.shape}")
        (a, b), (c, d) = m.tolist()
    if not (cmath.isfinite(a) and cmath.isfinite(b) and cmath.isfinite(c) and cmath.isfinite(d)):
        raise ValueError(f"{name} contains non-finite entries")
    return (a, b), (c, d)


def dagger(m: np.ndarray) -> np.ndarray:
    """Hermitian conjugate of a matrix, or of each matrix of an (n, 2, 2) stack."""
    return m.conj().swapaxes(-1, -2)


def max_abs(m) -> float:
    """Entrywise max-modulus norm (the comparison metric used everywhere)."""
    return float(np.abs(m).max())


def identity2() -> np.ndarray:
    return np.eye(2, dtype=complex)


_IDENTITY = ((1 + 0j, 0j), (0j, 1 + 0j))
_TINY = np.finfo(float).tiny
_LIFT = 2.0**60


def rotation(angle: float) -> np.ndarray:
    """Polarization rotation taking |H> to cos(angle)|H> + sin(angle)|V>."""
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


def eig_hermitian2(h) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian 2x2 matrix.

    Writing h = [[a, b], [conj(b), c]], the eigenvalues are t +- r with
    t = (a + c)/2 and r = sqrt((a - c)^2/4 + |b|^2); the eigenvector for
    each root lambda is proportional to (b, lambda - a) or, equivalently,
    (lambda - c, conj(b)) - whichever is numerically larger.

    Returns (eigenvalues descending, eigenvector matrix) where the k-th
    column is the gauge-fixed eigenvector of eigenvalue k.  On a scalar
    matrix the identity basis is returned.  Raises NotHermitian ("matrix:
    hermiticity residual ...") if the input fails the Hermiticity check at
    DEFAULT_TOL; any spectrum is accepted, an eigenvalue beyond the double
    range as +-inf.
    """
    h = as_matrix2(h)
    _check_operator(max_abs(h - dagger(h)), 0.0, "matrix")
    (a, b), (b_conj, c) = h.tolist()
    b += 0.5 * (b_conj.conjugate() - b)  # the Hermitian part's b, as _spectra forms it
    try:
        high, low, w = _eig(a.real, b, c.real)
    except OverflowError:  # |b| leaves the double range: h / 4 is exact, its spectrum 4 times smaller
        high, low, w = _eig(0.25 * a.real, 0.25 * b, 0.25 * c.real)
        high, low = 4.0 * high, 4.0 * low
    return np.array([high, low]), np.array(w)


def sqrt_psd(f) -> np.ndarray:
    """Hermitian PSD square root R of f (R @ R = f).

    This is where the package decides rank: eigenvalues at or below
    RANK_FLOOR times the largest (round-off of a rank-deficient f, and any
    in [-DEFAULT_TOL, 0]) become exactly 0, so a rank-one element gets a
    rank-one root instead of one with a ~1e-8 tail from the square root of
    round-off.  Raises NotHermitian ("matrix: hermiticity residual ...")
    if f fails the Hermiticity check at DEFAULT_TOL, and NotPsd ("matrix:
    minimum eigenvalue ...") for an eigenvalue below -DEFAULT_TOL.
    """
    roots, residual, low = _psd_roots(as_matrix2(f)[None])
    _check_operator(float(residual[0]), float(low[0]), "matrix")
    return roots[0]


def svd2(m) -> Svd2:
    """Closed-form singular value decomposition m = v @ diag(d) @ u.

    The right factor u comes from the eigenbasis of m^dag m (gauge-fixed,
    basis-aligned on degenerate spectra).  Left singular vectors are built
    by applying m to that basis and completing orthonormally, so v and u
    are unitary to machine precision and the product reconstructs m to
    machine precision even for rank-deficient input.  A singular value
    beyond the double range is inf.
    """
    m = as_matrix2(m)
    try:
        v, d, u = _svd(m.tolist())
    except OverflowError:  # an entry's modulus leaves the double range: m / 4 is exact
        v, (d0, d1), u = _svd((0.25 * m).tolist())
        d = 4.0 * d0, 4.0 * d1
    return Svd2(np.array(v), np.array(d), np.array(u))


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


def _check_operator(residual: float, min_eigenvalue: float, name: str, index: int | None = None) -> None:
    """The one Hermitian/PSD check: NotHermitian if the Hermiticity residual
    exceeds DEFAULT_TOL, else NotPsd if the minimum eigenvalue is below
    -DEFAULT_TOL; NaN fails both.  Messages read "name: ..."."""
    if not residual <= DEFAULT_TOL:
        raise NotHermitian(f"{name}: hermiticity residual {residual:.3e}", index, residual)
    if not min_eigenvalue >= -DEFAULT_TOL:
        raise NotPsd(f"{name}: minimum eigenvalue {min_eigenvalue:.3e}", index, min_eigenvalue)


# ----------------------------------------------------------------------
# scalar cores: Python complex numbers, a matrix as ((m00, m01), (m10, m11))


def _mul(p, q):
    """Matrix product of two 2x2 matrices."""
    (a, b), (c, d) = p
    (e, f), (g, h) = q
    return (a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h)


def _dag(p):
    """Hermitian conjugate of a 2x2 matrix."""
    (a, b), (c, d) = p
    return (a.conjugate(), c.conjugate()), (b.conjugate(), d.conjugate())


def _unitary_residual(m) -> float:
    """max|m^dag m - I|, NaN if an entry of m is NaN."""
    (a, b), (c, d) = m
    ar, ai, br, bi, cr, ci, dr, di = a.real, a.imag, b.real, b.imag, c.real, c.imag, d.real, d.imag
    top = abs(ar * ar + ai * ai + cr * cr + ci * ci - 1.0)
    try:
        off = abs(a.conjugate() * b + c.conjugate() * d)
    except OverflowError:  # complex abs raises where the modulus leaves the double range
        off = math.inf
    bottom = abs(br * br + bi * bi + dr * dr + di * di - 1.0)
    # max() alone may skip a NaN; the sum of the three is NaN exactly when one is
    return math.nan if math.isnan(top + off + bottom) else max(top, off, bottom)


def _unit_scale(scale: float) -> tuple[float, float]:
    """(lift, inv) with (x * lift) * inv == x / scale; a subnormal scale is
    first lifted by an exact power of two, since 1 / scale overflows there."""
    return (1.0, 1.0 / scale) if scale >= _TINY else (_LIFT, 1.0 / (scale * _LIFT))


def _phase_fixed(x: complex, y: complex) -> tuple[tuple[complex, complex], complex]:
    """The phase gauge: ((x, y) * phase, phase) with |phase| = 1 and the
    larger-modulus entry (the first on a tie) made exactly real >= 0; a
    zero pair is returned unchanged with phase 1."""
    abs_x, abs_y = abs(x), abs(y)
    if abs_y > abs_x:  # as max(): the second entry wins only if strictly larger
        phase = y.conjugate() / abs_y
        return (x * phase, complex(abs_y)), phase
    if abs_x == 0.0:
        return (x, y), 1 + 0j
    phase = x.conjugate() / abs_x
    return (complex(abs_x), y * phase), phase


def _eig(a: float, b: complex, c: float):
    """(l0, l1, w) for the Hermitian [[a, b], [conj(b), c]] with a, c real:
    eigenvalues l0 >= l1 and the gauge-fixed eigenvectors as the columns of
    w, the identity on a scalar matrix (see :func:`eig_hermitian2`)."""
    scale = max(abs(a), abs(b), abs(c))
    if scale == 0.0:
        return 0.0, 0.0, _IDENTITY
    lift, inv = _unit_scale(scale)
    a, b, c = (a * lift) * inv, (b * lift) * inv, (c * lift) * inv
    t = 0.5 * (a + c)
    r = math.hypot(0.5 * (a - c), abs(b))
    top = t + r
    norm_a = math.hypot(abs(b), top - a)
    norm_b = math.hypot(top - c, abs(b))
    if norm_a >= norm_b:
        x, y, norm = b, complex(top - a), norm_a
    else:
        x, y, norm = complex(top - c), b.conjugate(), norm_b
    if norm == 0.0:
        return scale * top, scale * (t - r), _IDENTITY
    (x, y), _ = _phase_fixed(x / norm, y / norm)
    (p, q), _ = _phase_fixed(-y.conjugate(), x.conjugate())
    return scale * top, scale * (t - r), ((x, p), (y, q))


def _column_split(m):
    """(y, (s0, s1)) with m = y @ diag(s), y unitary and s >= 0, for m with
    orthogonal columns.

    The larger column (the first on a tie) is normalized and the other is
    replaced by the orthogonal complement of that one, phased so the column
    lands on it with a real non-negative weight; where its weight is dead
    (at or below GAUGE_CUTOFF times the larger) the complement is
    gauge-fixed instead.  A zero m gives the identity.
    """
    (a, b), (c, d) = m
    n0 = math.hypot(abs(a), abs(c))
    n1 = math.hypot(abs(b), abs(d))
    if n0 >= n1:
        if n0 == 0.0:
            return _IDENTITY, (0.0, 0.0)
        (v0, v1), (p0, p1), s = _complete(a, c, n0, b, d)
        return ((v0, p0), (v1, p1)), (n0, s)
    (v0, v1), (p0, p1), s = _complete(b, d, n1, a, c)
    return ((p0, v0), (p1, v1)), (s, n1)


def _complete(a: complex, c: complex, norm: float, b: complex, d: complex):
    # the unit column (a, c) / norm, its phased complement, and the weight of (b, d) on it
    v0, v1 = a / norm, c / norm
    p0, p1 = -v1.conjugate(), v0.conjugate()
    beta = p0.conjugate() * b + p1.conjugate() * d
    weight = abs(beta)
    if weight > GAUGE_CUTOFF * norm:
        phase = beta / weight
        return (v0, v1), (p0 * phase, p1 * phase), weight
    return (v0, v1), _phase_fixed(p0, p1)[0], weight


def _svd(m):
    """(v, (d0, d1), u) with m = v @ diag(d) @ u (see :func:`svd2`): u is the
    eigenbasis of m^dag m, v the column split of m @ u^dag."""
    (a, b), (c, d) = m
    scale = max(abs(a), abs(b), abs(c), abs(d))
    if scale == 0.0:
        return _IDENTITY, (0.0, 0.0), _IDENTITY
    lift, inv = _unit_scale(scale)
    a, b, c, d = (a * lift) * inv, (b * lift) * inv, (c * lift) * inv, (d * lift) * inv
    gram_00 = a.real * a.real + a.imag * a.imag + c.real * c.real + c.imag * c.imag
    gram_11 = b.real * b.real + b.imag * b.imag + d.real * d.real + d.imag * d.imag
    _, _, w = _eig(gram_00, a.conjugate() * b + c.conjugate() * d, gram_11)
    v, (d0, d1) = _column_split(_mul(((a, b), (c, d)), w))
    u = _dag(w)
    if d1 > d0:
        (v00, v01), (v10, v11) = v
        return ((v01, v00), (v11, v10)), (scale * d1, scale * d0), (u[1], u[0])
    return v, (scale * d0, scale * d1), u


def _qr(a: tuple[complex, ...], b: tuple[complex, ...]):
    """The QR step of the sweep, one fixed-size 4-row step: (top, bottom, r)
    with [a b] = [top; bottom] r for two 4-row columns a and b, top and
    bottom the 2x2 row blocks of the isometry Q = [q0 q1] and
    r = ((r00, r01), (0j, r11)) with r00, r11 real >= 0.  Every stage runs
    it; the first stage is [M_n; 0].

    Gram-Schmidt with one re-orthogonalization ("twice is enough"; Giraud,
    Langou & Rozloznik, 2005): q0 = a / |a| (e_0 for a zero a), then two
    passes of s = q0^dag b, b -= s q0, r01 += s, then q1 = b / |b|.  A column
    of subnormal norm is normalized, and b projected, through its exact lift.
    Gauge: where the second column is dead, |b| after the passes at or below
    GAUGE_CUTOFF times its norm before them (b zero included), r11 = 0 and
    q1 is e_1 with q0 projected out (e_0 where q0 leans more on e_1),
    normalized, so round-off cannot set its phase; on the first stage that
    keeps Q in rows 0-1.  Its rows 2-3 are never its largest entry (each is
    at most half the modulus of row 0 or 1, whichever e picks), so the
    pair gauge of rows 0-1 (_phase_fixed), with its phase applied to rows
    2-3, is the gauge of the whole column.
    """
    b0, b1, b2, b3 = b
    norm_b = math.hypot(abs(b0), abs(b1), abs(b2), abs(b3))
    if 0.0 < norm_b < _TINY:  # a subnormal b is projected through its exact lift
        top, bottom, ((r00, r01), (_, r11)) = _qr(a, (b0 * _LIFT, b1 * _LIFT, b2 * _LIFT, b3 * _LIFT))
        return top, bottom, ((r00, r01 / _LIFT), (0j, r11 / _LIFT))
    (q00, q10, q20, q30), r00 = _unit(*a)
    r01 = 0j
    for _ in range(2):
        s = q00.conjugate() * b0 + q10.conjugate() * b1 + q20.conjugate() * b2 + q30.conjugate() * b3
        b0, b1, b2, b3 = b0 - s * q00, b1 - s * q10, b2 - s * q20, b3 - s * q30
        r01 += s
    (q01, q11, q21, q31), r11 = _unit(b0, b1, b2, b3)
    if r11 <= GAUGE_CUTOFF * norm_b:
        r11 = 0.0
        e0, e1 = (1.0, 0.0) if abs(q10) > abs(q00) else (0.0, 1.0)
        k = e0 * q00.conjugate() + e1 * q10.conjugate()  # q0^dag e
        (q01, q11, q21, q31), _ = _unit(e0 - k * q00, e1 - k * q10, -k * q20, -k * q30)
        (q01, q11), phase = _phase_fixed(q01, q11)
        q21, q31 = q21 * phase, q31 * phase
    return ((q00, q01), (q10, q11)), ((q20, q21), (q30, q31)), ((complex(r00), r01), (0j, complex(r11)))


def _unit(v0: complex, v1: complex, v2: complex, v3: complex):
    """(v / |v|, |v|) for a 4-entry column, through the exact lift when |v|
    is subnormal, where |v| itself is rounded; e_0 for a zero v."""
    norm = math.hypot(abs(v0), abs(v1), abs(v2), abs(v3))
    if norm < _TINY:  # NaN and Inf fall through to the division
        if norm == 0.0:
            return (1 + 0j, 0j, 0j, 0j), 0.0
        v, lifted = _unit(v0 * _LIFT, v1 * _LIFT, v2 * _LIFT, v3 * _LIFT)
        return v, lifted / _LIFT
    return (v0 / norm, v1 / norm, v2 / norm, v3 / norm), norm


# ----------------------------------------------------------------------
# stacked cores: one numpy pass over an (n, 2, 2) array


def _spectra(m: np.ndarray):
    """(residual, l0, l1, x, y) per matrix of a finite (n, 2, 2) stack: the
    Hermiticity residual max|m - m^dag| and, of the Hermitian part, the
    eigenvalues l0 >= l1 and a unit eigenvector (x, y) of l0 ((1, 0) on a
    scalar matrix), by the closed form of :func:`_eig`.  An eigenvalue beyond
    the double range is +-inf; where |b| itself leaves the range both
    eigenvalues are NaN, and :func:`_psd_roots` redoes that matrix as m / 4.
    A residual beyond the range is inf, its true value rounded."""
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.abs(m - dagger(m)).max(axis=(1, 2))
        # the Hermitian part's entries without forming m + m^dag, which overflows
        # above half the double range; on Hermitian input b is m01 exactly
        m01 = m[:, 0, 1]
        a, b, c = m[:, 0, 0].real, m01 + 0.5 * (m[:, 1, 0].conj() - m01), m[:, 1, 1].real
        scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.abs(c))
        lift = np.where(scale >= _TINY, 1.0, _LIFT)
        inv = 1.0 / np.where(scale > 0.0, scale * lift, 1.0)
        a, b, c = (a * lift) * inv, (b * lift) * inv, (c * lift) * inv
        abs_b = np.abs(b)
        t = 0.5 * (a + c)
        r = np.hypot(0.5 * (a - c), abs_b)
        top = t + r
        norm_a = np.hypot(abs_b, top - a)
        norm_b = np.hypot(top - c, abs_b)
        first = norm_a >= norm_b
        norm = np.where(first, norm_a, norm_b)
        live = norm > 0.0
        inv_norm = 1.0 / np.where(live, norm, 1.0)
        x = np.where(live, np.where(first, b, top - c) * inv_norm, 1.0)
        y = np.where(live, np.where(first, top - a, b.conj()) * inv_norm, 0.0)
        return residual, scale * top, scale * (t - r), x, y


def _psd_roots(m: np.ndarray):
    """(roots, residual, l1) for a finite (n, 2, 2) stack: the PSD square root
    of each Hermitian part with :func:`sqrt_psd`'s rank floor, and what
    decides whether it exists (Hermiticity residual, minimum eigenvalue).
    A matrix whose top eigenvalue, or |b|, leaves the double range is redone
    as m / 4, exactly: its root doubles and its minimum eigenvalue scales by 4."""
    residual, high, low, x, y = _spectra(m)
    over = ~np.isfinite(high)
    high = np.where(over, 0.0, np.maximum(high, 0.0))
    kept = np.maximum(low, 0.0)
    kept = np.where(kept <= RANK_FLOOR * high, 0.0, kept)
    s0, s1 = np.sqrt(high), np.sqrt(kept)
    gap = s0 - s1
    roots = np.empty(m.shape, dtype=complex)
    roots[:, 0, 0] = s1 + gap * (x.real * x.real + x.imag * x.imag)
    roots[:, 1, 1] = s1 + gap * (y.real * y.real + y.imag * y.imag)
    roots[:, 0, 1] = gap * x * y.conj()
    roots[:, 1, 0] = roots[:, 0, 1].conj()
    if over.any():  # sqrt(m) = 2 sqrt(m / 4), whose eigenvalues and |b| are finite
        quarter_roots, _, quarter_low = _psd_roots(0.25 * m[over])
        with np.errstate(over="ignore"):  # the minimum eigenvalue may be beyond the range too
            roots[over], low[over] = 2.0 * quarter_roots, 4.0 * quarter_low
    return roots, residual, low
