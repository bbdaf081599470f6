"""Dense complex-matrix calculus used by the dilation pipeline.

A subspace of C^n is a plain ``(n, r)`` complex array of orthonormal columns.
Everything here is deterministic: basis orderings follow singular values in
descending order, and sign/phase ambiguities are resolved by rotating each
basis vector so its first significantly-nonzero entry is positive real.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, GramMismatch, NonFinite, NonSquare, NotPSD

DEFAULT_TOL = 1e-10
RANK_TOL = 1e-10  # singular values below RANK_TOL * the largest one count as zero
GRAM_TOL = 1e-8   # largest relative Gram mismatch isometry_from_frames accepts


def as_matrix(a) -> np.ndarray:
    """Coerce input to a 2-d complex ndarray and reject non-finite entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got array of ndim {m.ndim}")
    if m.size and not np.isfinite(m).all():
        raise NonFinite("matrix contains NaN or Inf entries (non-finite input, or overflow)")
    return m


def adj(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a)) if a.size else 0.0


def frob_stack(a: np.ndarray) -> np.ndarray:
    """``frob`` of each matrix in a stack, bit for bit: a row-times-column matmul
    sums the squares with the same BLAS dot that ``np.linalg.norm`` uses."""
    row = a.reshape(*a.shape[:-2], 1, -1)
    col = row.swapaxes(-1, -2)
    return np.sqrt((row.real @ col.real + row.imag @ col.imag)[..., 0, 0])


def rel_residual(delta: np.ndarray, reference: np.ndarray) -> float:
    """Frobenius norm of ``delta`` relative to max(1, ||reference||_F)."""
    return frob(delta) / max(1.0, frob(reference))


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=complex)


class PsdReport(NamedTuple):
    is_psd: bool
    min_eig: float
    hermitian_defect: float


def psd_check(a, tol: float = DEFAULT_TOL) -> PsdReport:
    """Test positive semidefiniteness of a Hermitian-intended matrix.

    Returns ``(is_psd, min_eig, hermitian_defect)`` where ``min_eig`` is the
    smallest eigenvalue of the Hermitian part (A + A*)/2 and
    ``hermitian_defect`` = ||A - A*||_F / max(1, ||A||_F).  The verdict uses
    the scale-aware cutoff ``min_eig >= -tol * max(1, ||A||_2)``.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise NonSquare(f"psd_check needs a square matrix, got {a.shape}")
    if a.shape[0] == 0:
        return PsdReport(True, 0.0, 0.0)
    defect = rel_residual(a - adj(a), a)
    eigs = np.linalg.eigvalsh(0.5 * (a + adj(a)))
    return PsdReport(bool(_psd_cutoff(eigs, tol)), float(eigs[0]), defect)


def psd_flags(stack: np.ndarray, tol: float = DEFAULT_TOL) -> np.ndarray:
    """``psd_check(a, tol).is_psd`` for every matrix a of a (k, dim, dim)
    stack, dim >= 1, from one batched ``eigvalsh``."""
    stack = np.asarray(stack)
    return _psd_cutoff(np.linalg.eigvalsh(0.5 * (stack + adj(stack))), tol)


def _psd_cutoff(eigs: np.ndarray, tol: float) -> np.ndarray:
    """The verdict min_eig >= -tol * max(1, ||A||_2) from ascending eigenvalues
    along the last axis."""
    low, high = eigs[..., 0], eigs[..., -1]
    return low >= -tol * np.maximum(np.maximum(1.0, high), np.abs(low))


def psd_sqrt(a, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition.

    Eigenvalues in [-tol*scale, 0) are clamped to zero; anything more negative
    raises :class:`NotPSD`.  A Hermitian defect above 1e-8 (relative) also
    raises, since the input is then not a meaningful Szego operator.
    """
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise NonSquare(f"psd_sqrt needs a square matrix, got {a.shape}")
    if a.shape[0] == 0:
        return a.copy()
    report = psd_check(a, tol)
    if report.hermitian_defect > 1e-8:
        raise NotPSD(f"matrix is not Hermitian (defect {report.hermitian_defect:.3e})")
    if not report.is_psd:
        raise NotPSD(f"matrix has eigenvalue {report.min_eig:.6e} below tolerance")
    h = 0.5 * (a + adj(a))
    w, v = np.linalg.eigh(h)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ adj(v)


def _normalize_column_phases(b: np.ndarray) -> np.ndarray:
    """Rotate each column so its first entry of near-maximal modulus is positive real."""
    b = b.copy()
    for j in range(b.shape[1]):
        col = b[:, j]
        mags = np.abs(col)
        top = mags.max()
        if top == 0.0:
            continue
        lead = int(np.argmax(mags > 0.5 * top))
        phase = col[lead] / abs(col[lead])
        b[:, j] = col * np.conj(phase)
    return b


def range_basis(a) -> np.ndarray:
    """Orthonormal basis of range(A) as an (rows, rank) array, rank decided by
    singular values.

    Columns are ordered by descending singular value and phase-normalized so
    repeated runs give identical output.
    """
    a = as_matrix(a)
    if a.size == 0 or frob(a) == 0.0:
        return np.zeros((a.shape[0], 0), dtype=complex)
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    rank = int(np.sum(s > RANK_TOL * s[0]))
    return _normalize_column_phases(u[:, :rank])


def orthogonal_complement(basis: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the orthogonal complement of the
    span of the orthonormal columns of ``basis``."""
    n, r = basis.shape
    if r == 0:
        return eye(n)
    if r >= n:
        return np.zeros((n, 0), dtype=complex)
    u, _, _ = np.linalg.svd(basis, full_matrices=True)
    return _normalize_column_phases(u[:, r:])


def isometry_from_frames(x, y) -> np.ndarray:
    """Partial isometry W with W x_j = y_j for the frame columns of x and y.

    Requires the Gram matrices to agree (x* x == y* y); otherwise no such
    partial isometry exists and :class:`GramMismatch` is raised.  The initial
    space is span(x), the final space span(y).
    """
    x = as_matrix(x)
    y = as_matrix(y)
    if x.shape[1] != y.shape[1]:
        raise DimensionMismatch("frames must have the same number of vectors")
    gx = adj(x) @ x
    gram_resid = rel_residual(gx - adj(y) @ y, gx)
    if gram_resid > GRAM_TOL:
        raise GramMismatch(f"frame Gram matrices differ by {gram_resid:.3e} (tol {GRAM_TOL:.1e})")
    if x.shape[1] == 0 or frob(x) == 0.0:
        return np.zeros((y.shape[0], x.shape[0]), dtype=complex)
    u, s, vh = np.linalg.svd(x, full_matrices=False)
    rank = int(np.sum(s > RANK_TOL * s[0]))
    u, s, vh = u[:, :rank], s[:rank], vh[:rank]
    # W = y @ pinv(x) restricted to the numerical range; Gram equality makes it isometric there.
    return (y @ adj(vh)) @ np.diag(1.0 / s).astype(complex) @ adj(u)
