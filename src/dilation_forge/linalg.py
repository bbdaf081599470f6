"""Dense complex-matrix calculus used by the dilation pipeline.

A subspace of C^n is a plain ``(n, r)`` complex array of orthonormal columns.
Everything here is deterministic: basis orderings follow singular values in
descending order, and sign/phase ambiguities are resolved by rotating each
basis vector so its first significantly-nonzero entry is positive real.
"""

from __future__ import annotations

from numbers import Number
from typing import NamedTuple

import numpy as np

from .errors import (DilationForgeError, DimensionMismatch, GramMismatch, MalformedSpec, NonFinite,
                     NonSquare, NotPSD)

PSD_TOL = 1e-10   # PSD cutoff: min_eig >= -PSD_TOL * max(1, ||A||_2)
RANK_TOL = 1e-10  # singular values below RANK_TOL * the largest one count as zero
GRAM_TOL = 1e-8   # largest relative Gram mismatch isometry_from_frames accepts


def as_complex(values, what: str) -> np.ndarray:
    """A complex copy of the array of numbers ``values``, read entry by entry unless numeric:
    a string, bytes, a bool or None is a :class:`MalformedSpec` naming it, as is a ragged array."""
    try:
        arr = np.asarray(values)
        if arr.dtype.kind not in "iufc":  # not a numeric array
            arr = np.array(values, dtype=object)
            for where, x in np.ndenumerate(arr):
                if isinstance(x, (bool, np.bool_)) or not isinstance(x, Number):
                    raise MalformedSpec(f"{what} entry {where} is {x!r}, not a number")
        return np.array(arr, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        raise MalformedSpec(f"{what} must be an array of numbers") from None


def check_count(value, what: str, least: int = 0) -> int:
    """``value`` as an int if it is an integer >= ``least``, Python or numpy but
    not a bool; a ``DilationForgeError`` naming ``what`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DilationForgeError(f"{what} must be an integer, got {value!r}")
    if value < least:
        raise DilationForgeError(f"{what} must be >= {least}, got {value}")
    return int(value)


def as_matrix(a) -> np.ndarray:
    """A 2-d complex copy of ``a`` (``as_complex``), its entries finite."""
    m = as_complex(a, "matrix")
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


def psd_checks(stack) -> list:
    """Test positive semidefiniteness of each Hermitian-intended matrix of a
    (k, dim, dim) stack: one ``(is_psd, min_eig, hermitian_defect)`` each, from
    one batched ``eigvalsh`` and ``frob_stack`` (bit-equal to ``frob``).

    ``min_eig`` is the smallest eigenvalue of the Hermitian part (A + A*)/2,
    ``hermitian_defect`` = ||A - A*||_F / max(1, ||A||_F), and the verdict is
    the scale-aware cutoff ``min_eig >= -PSD_TOL * max(1, ||A||_2)``.
    Non-finite entries (non-finite input, or overflow) raise :class:`NonFinite`.
    """
    stack = np.asarray(stack, dtype=complex)
    k, rows, cols = stack.shape
    if not np.isfinite(stack).all():
        raise NonFinite("matrix contains NaN or Inf entries (non-finite input, or overflow)")
    if rows != cols:
        raise NonSquare(f"psd_checks needs square matrices, got {(rows, cols)}")
    if not stack.size:
        return [PsdReport(True, 0.0, 0.0)] * k
    herm = adj(stack)
    norms = frob_stack(np.concatenate([stack - herm, stack]))
    eigs = np.linalg.eigvalsh(0.5 * (stack + herm))
    return [PsdReport(ok, low, defect) for ok, low, defect
            in zip(_psd_cutoff(eigs).tolist(), eigs[:, 0].tolist(),
                   (norms[:k] / np.maximum(1.0, norms[k:])).tolist())]


def _psd_cutoff(eigs: np.ndarray) -> np.ndarray:
    """The verdict min_eig >= -PSD_TOL * max(1, ||A||_2) from ascending
    eigenvalues along the last axis."""
    low, high = eigs[..., 0], eigs[..., -1]
    return low >= -PSD_TOL * np.maximum(np.maximum(1.0, high), np.abs(low))


def psd_sqrt(a, report) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition of each matrix in a
    (k, dim, dim) stack, from one batched ``eigh``.

    ``report`` is the caller's ``psd_checks`` of ``a`` (one per matrix, in
    order), which has checked that it is finite and square, and whose
    ``eigvalsh`` verdict decides.  Eigenvalues within PSD_TOL*scale of 0, on
    either side, are zeroed, so rounding makes no root direction; anything
    more negative raises :class:`NotPSD`, and so does a Hermitian defect
    above 1e-8 (relative): no meaningful Szego operator has one.
    """
    a = np.asarray(a)
    for r in report:
        if r.hermitian_defect > 1e-8:
            raise NotPSD(f"matrix is not Hermitian (defect {r.hermitian_defect:.3e})")
        if not r.is_psd:
            raise NotPSD(f"matrix has eigenvalue {r.min_eig:.6e} below tolerance")
    if a.shape[-1] == 0:
        return a.copy()
    w, v = np.linalg.eigh(0.5 * (a + adj(a)))
    band = PSD_TOL * np.maximum(np.maximum(1.0, w[..., -1:]), np.abs(w[..., :1]))
    return (v * np.sqrt(np.where(w > band, w, 0.0))[..., None, :]) @ adj(v)


def _normalize_column_phases(b: np.ndarray) -> np.ndarray:
    """Rotate each column (of a matrix or of each matrix in a stack) so its first
    entry of near-maximal modulus is positive real; an all-zero column stays."""
    mags = np.abs(b)
    lead = np.argmax(mags > 0.5 * mags.max(axis=-2, keepdims=True, initial=0.0), axis=-2)
    pick = np.take_along_axis(b, lead[..., None, :], axis=-2)
    size = np.hypot(pick.real, pick.imag)  # what abs() of one complex scalar rounds to
    return b * np.conj(np.where(size == 0.0, 1.0, pick / np.where(size == 0.0, 1.0, size)))


def range_bases(stack: np.ndarray) -> list:
    """``range_basis`` of each matrix of a finite (k, rows, cols) stack, from one
    batched SVD."""
    k, rows, cols = stack.shape
    if rows == 0 or cols == 0:
        return [np.zeros((rows, 0), dtype=complex)] * k
    u, s, _ = np.linalg.svd(stack, full_matrices=False)
    ranks = np.sum(s > RANK_TOL * s[:, :1], axis=1)  # 0 for a zero matrix
    u = _normalize_column_phases(u)
    return [basis[:, :rank] for basis, rank in zip(u, ranks.tolist())]


def range_basis(a) -> np.ndarray:
    """Orthonormal basis of range(A) as an (rows, rank) array, rank decided by
    singular values: ``range_bases`` of A alone.

    Columns are ordered by descending singular value and phase-normalized so
    repeated runs give identical output.
    """
    return range_bases(as_matrix(a)[None])[0]


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
