import re

import numpy as np
import pytest

from dilation_forge.errors import (DimensionMismatch, GramMismatch, MalformedSpec, NonFinite,
                                   NonSquare, NotPSD)
from dilation_forge.linalg import (PSD_TOL, _normalize_column_phases, adj, as_matrix, frob,
                                   frob_stack, isometry_from_frames, psd_checks, psd_sqrt,
                                   range_bases, range_basis)
from linalg_reference import psd_check, psd_root


def crandn(rng, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)


def projector(basis):
    return basis @ adj(basis)


def orthonormality_defect(basis):
    return np.linalg.norm(adj(basis) @ basis - np.eye(basis.shape[1]))


def unitary_completion(w, domain_complement, codomain_complement):
    """Extend a partial isometry to a unitary by pairing complement bases column by column.

    The pairing that ``builder.build_U`` makes per algebra component, on one component.
    """
    if domain_complement.shape[1] != codomain_complement.shape[1]:
        raise DimensionMismatch("complement dimensions differ (auxiliary padding needed)")
    return np.asarray(w, dtype=complex) + codomain_complement @ adj(domain_complement)


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_frob_stack_equals_frob_bit_for_bit(dim):
    rng = np.random.default_rng(dim)
    stack = crandn(rng, (4, 3, dim, dim)) * 10.0 ** rng.uniform(-16, 0, (4, 3, 1, 1))
    norms = frob_stack(stack)
    assert norms.shape == (4, 3)
    assert norms.tolist() == [[frob(m) for m in row] for row in stack]


def test_psd_check_identity():
    ok, min_eig, defect = psd_check(np.eye(2))
    assert ok and min_eig == pytest.approx(1.0) and defect == 0.0


def test_psd_check_indefinite_diagonal():
    ok, min_eig, defect = psd_check(np.diag([1.0, -2.0]))
    assert not ok
    assert min_eig == pytest.approx(-2.0)
    assert defect == 0.0


def test_psd_check_parrott_full_szego():
    # I - sum T_i T_i* for the Parrott tuple is diag(I_2, -2 I_2)
    from dilation_forge.generators import parrott_tuple
    spec = parrott_tuple()
    s = np.eye(4, dtype=complex)
    for i in range(1, 4):
        t = spec.op(i)
        s -= t @ adj(t)
    assert np.allclose(s, np.diag([1, 1, -2, -2]))
    ok, min_eig, defect = psd_check(s)
    assert not ok and min_eig == pytest.approx(-2.0) and defect < 1e-15


def _loop_psd_check(a):
    """``psd_check`` as one matrix at a time computed it: ``rel_residual`` by
    ``np.linalg.norm`` and one ``eigvalsh``."""
    eigs = np.linalg.eigvalsh(0.5 * (a + adj(a)))
    low, high = eigs[0], eigs[-1]
    return (bool(low >= -PSD_TOL * max(1.0, high, abs(low))), float(low),
            float(np.linalg.norm(a - adj(a))) / max(1.0, float(np.linalg.norm(a))))


def test_psd_checks_match_psd_check_per_matrix():
    """One batched ``eigvalsh`` and two ``frob_stack`` calls give each
    matrix's report bit for bit, ``hermitian_defect`` included, on both sides
    of the cutoff; an empty stack gives no reports, and a non-finite entry
    anywhere in the stack raises."""
    rng = np.random.default_rng(7)
    stack = []
    for dim_scale in (1e-3, 1.0, 50.0):
        a = crandn(rng, (4, 4))
        h = dim_scale * (a @ adj(a))
        low = np.linalg.eigvalsh(h)[0]
        # shifted to straddle the cutoff -PSD_TOL * max(1, ||h||_2) from both sides
        cut = PSD_TOL * max(1.0, np.linalg.eigvalsh(h)[-1])
        for shift in (0.0, low + 0.5 * cut, low + 2.0 * cut, low + 1.0):
            stack.append(h - shift * np.eye(4) + 1e-13 * crandn(rng, (4, 4)))
    stack = np.array(stack)
    reports = psd_checks(stack)
    assert reports == [psd_check(a) for a in stack]
    assert reports == [_loop_psd_check(a) for a in stack]
    assert {r.is_psd for r in reports} == {True, False}
    assert psd_checks(np.zeros((0, 3, 3))) == []
    assert psd_checks(np.zeros((2, 0, 0))) == [(True, 0.0, 0.0)] * 2
    stack[3, 1, 2] = np.inf
    with pytest.raises(NonFinite):
        psd_checks(stack)


def test_psd_check_rejects_nonsquare():
    with pytest.raises(NonSquare):
        psd_check(np.zeros((2, 3)))


def test_psd_sqrt_diagonal():
    a = np.diag([4.0, 9.0])
    assert np.allclose(psd_root(a), np.diag([2.0, 3.0]))


def test_psd_sqrt_zero():
    a = np.zeros((3, 3))
    assert np.allclose(psd_root(a), np.zeros((3, 3)))


def test_psd_sqrt_hand_eigendecomposition():
    # [[2,1],[1,2]] has eigenpairs (1, (1,-1)/sqrt2) and (3, (1,1)/sqrt2)
    r3 = np.sqrt(3.0)
    expected = 0.5 * np.array([[r3 + 1, r3 - 1], [r3 - 1, r3 + 1]])
    a = np.array([[2.0, 1.0], [1.0, 2.0]])
    got = psd_root(a)
    assert np.allclose(got, expected, atol=1e-14)


def test_psd_sqrt_clamps_tiny_negatives():
    a = np.diag([1.0, -1e-15])
    b = psd_root(a)
    assert np.all(np.isfinite(b))
    assert b[1, 1] == 0.0


def test_psd_sqrt_zeroes_the_band_on_both_sides():
    """Eigenvalues within PSD_TOL * max(1, ||A||_2) of zero, positive ones
    too, give no root singular value: a rank-1 square rotated by a unitary,
    whose rounding eigenvalues are about 1e-16, keeps a rank-1 root."""
    assert np.array_equal(psd_root(np.diag([4.0, 1e-11, -1e-11])), np.diag([2.0, 0.0, 0.0]))
    assert psd_root(np.diag([1.0, 2e-10]))[1, 1] > 0.0  # outside the band
    rng = np.random.default_rng(3)
    w, _ = np.linalg.qr(crandn(rng, (3, 3)))
    root = psd_root(w @ np.diag([1.0, 0.0, 0.0]) @ adj(w))
    assert np.sum(np.linalg.svd(root, compute_uv=False) > 1e-12) == 1


def test_psd_sqrt_rejects_indefinite():
    a = np.diag([1.0, -0.5])
    with pytest.raises(NotPSD):
        psd_root(a)


def test_psd_sqrt_rejects_non_hermitian_and_negative_inputs():
    skew = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(NotPSD, match="not Hermitian"):
        psd_root(skew)
    below = np.diag([1.0, -1e-9])  # below -PSD_TOL * max(1, ||A||) = -1e-10
    with pytest.raises(NotPSD, match="below tolerance"):
        psd_root(below)
    within = np.diag([1.0, -1e-11])
    assert psd_root(within)[1, 1] == 0.0  # within the tolerance: clamped


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(0)
    for _ in range(5):
        m = crandn(rng, (4, 4))
        a = m @ adj(m)
        b = psd_root(a)
        assert np.linalg.norm(b @ b - a) <= 1e-10 * max(1.0, np.linalg.norm(a))
        assert np.linalg.norm(b - adj(b)) < 1e-12


def test_range_basis_identity_and_zero():
    rb = range_basis(np.eye(3))
    assert rb.shape == (3, 3) and np.allclose(rb, np.eye(3))
    assert range_basis(np.zeros((3, 3))).shape == (3, 0)


def test_range_basis_rank_one():
    rb = range_basis(np.ones((2, 2)))
    assert rb.shape == (2, 1)
    assert np.allclose(rb[:, 0], np.array([1.0, 1.0]) / np.sqrt(2))


def test_range_basis_properties():
    rng = np.random.default_rng(1)
    for _ in range(5):
        a = crandn(rng, (5, 3)) @ crandn(rng, (3, 5))
        rb = range_basis(a)
        assert orthonormality_defect(rb) < 1e-12
        resid = (np.eye(5) - projector(rb)) @ a
        assert np.linalg.norm(resid, 2) <= 1e-10 * np.linalg.norm(a, 2)


def test_range_basis_deterministic_phase():
    rng = np.random.default_rng(2)
    a = crandn(rng, (4, 4))
    b1, b2 = range_basis(a), range_basis(a.copy())
    assert np.array_equal(b1, b2)
    for j in range(b1.shape[1]):
        col = b1[:, j]
        lead = np.flatnonzero(np.abs(col) > 0.5 * np.abs(col).max())[0]
        assert abs(col[lead].imag) < 1e-14 and col[lead].real > 0


def test_isometry_from_frames_trivial():
    e1 = np.array([[1.0], [0.0]])
    w = isometry_from_frames(e1, e1)
    assert np.allclose(w, np.array([[1, 0], [0, 0]]))


def test_isometry_from_frames_rank_one_rotation():
    e1 = np.array([[1.0], [0.0]])
    e2 = np.array([[0.0], [1.0]])
    w = isometry_from_frames(e1, e2)
    assert np.allclose(w, np.array([[0, 0], [1, 0]]))


def test_isometry_from_frames_hadamard():
    x = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    y = np.eye(2)
    w = isometry_from_frames(x, y)
    assert np.allclose(w, np.array([[1, 1], [1, -1]]) / np.sqrt(2))


def test_isometry_from_frames_partial_isometry_property():
    rng = np.random.default_rng(3)
    x = crandn(rng, (5, 3))
    q = np.linalg.qr(crandn(rng, (5, 5)))[0]
    y = q[:, :5] @ x  # unitary image keeps the Gram matrix
    w = isometry_from_frames(x, y)
    p = projector(range_basis(x))
    assert np.linalg.norm(adj(w) @ w - p) < 1e-10
    assert np.linalg.norm(w @ x - y) < 1e-10


def test_isometry_from_frames_gram_mismatch():
    with pytest.raises(GramMismatch):
        isometry_from_frames(np.array([[1.0], [0.0]]), np.array([[2.0], [0.0]]))


def test_unitary_completion_identity():
    w = np.diag([1.0, 0.0]).astype(complex)
    comp = np.array([[0.0], [1.0]])
    assert np.allclose(unitary_completion(w, comp, comp), np.eye(2))


def test_unitary_completion_swap():
    w = np.array([[0.0, 0.0], [1.0, 0.0]])
    dom = np.array([[0.0], [1.0]])
    cod = np.array([[1.0], [0.0]])
    assert np.allclose(unitary_completion(w, dom, cod), np.array([[0, 1], [1, 0]]))


def test_unitary_completion_empty_initial_space():
    w = np.zeros((2, 2))
    full = np.eye(2)
    assert np.allclose(unitary_completion(w, full, full), np.eye(2))


def test_unitary_completion_dimension_mismatch():
    w = np.zeros((2, 2))
    with pytest.raises(DimensionMismatch):
        unitary_completion(w, np.eye(2), np.eye(2)[:, :1])


def loop_column_phases(b):
    """The per-column loop that ``linalg._normalize_column_phases`` replaced."""
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


@pytest.mark.parametrize("seed", range(8))
def test_vectorized_column_phases_equal_the_loop(seed):
    """Bit for bit, signs of zero included, with an all-zero column, a column
    whose two largest entries tie, entries of every scale, and on a stack."""
    rng = np.random.default_rng(seed)
    for rows, cols in [(1, 1), (2, 3), (4, 4), (7, 3), (3, 7)]:
        b = crandn(rng, (rows, cols)) * 10.0 ** rng.uniform(-14, 3, (rows, cols))
        b[:, rng.integers(cols)] = 0.0
        b[-1, -1] = 1j * b[0, -1]
        assert _normalize_column_phases(b).tobytes() == loop_column_phases(b).tobytes()
    stack = crandn(rng, (5, 4, 3))
    stack[2, :, 1] = 0.0
    got = _normalize_column_phases(stack)
    assert all(g.tobytes() == loop_column_phases(a).tobytes() for g, a in zip(got, stack))


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_psd_sqrt_of_a_stack_equals_each_matrix_bit_for_bit(dim):
    """One batched ``eigh`` over a full-rank, a rank-one, a zero and a clamped
    matrix gives each one's ``psd_sqrt``; a failing report of any raises."""
    rng = np.random.default_rng(dim)
    z = crandn(rng, (dim, dim))
    v = crandn(rng, (dim, 1))
    clamped = np.eye(dim, dtype=complex)
    clamped[-1, -1] = -0.5 * PSD_TOL
    stack = np.array([z @ adj(z), v @ adj(v), np.zeros((dim, dim)), clamped])
    reports = [psd_check(a) for a in stack]
    got = psd_sqrt(stack, reports)
    assert got.shape == stack.shape
    for g, a, r in zip(got, stack, reports):
        assert g.tobytes() == psd_root(a, r).tobytes()
    bad = stack.copy()
    bad[1, -1, -1] -= 1.0 + np.linalg.norm(v) ** 2
    with pytest.raises(NotPSD):
        psd_sqrt(bad, [psd_check(a) for a in bad])


def test_range_bases_of_a_stack_equal_each_matrix():
    """One batched SVD over full-rank, rank-deficient and zero matrices gives
    each one's ``range_basis``, bit for bit; empty shapes give empty bases."""
    rng = np.random.default_rng(12)
    for rows, cols in [(4, 4), (5, 3), (3, 6), (1, 2)]:
        full = crandn(rng, (rows, cols))
        low = crandn(rng, (rows, 1)) @ crandn(rng, (1, cols))
        stack = np.array([full, low, np.zeros((rows, cols)), 1e-12 * full])
        got = range_bases(stack)
        assert [g.shape[1] for g in got] == [min(rows, cols), 1, 0, min(rows, cols)]
        for g, a in zip(got, stack):
            assert np.array_equal(g, range_basis(a)) and g.shape == range_basis(a).shape
    assert [g.shape for g in range_bases(np.zeros((2, 3, 0)))] == [(3, 0), (3, 0)]


@pytest.mark.parametrize("entries,where", [([["1", "0"], ["0", "1"]], "(0, 0)"),
                                           ([[1.0, b"1"]], "(0, 1)"), ([[True]], "(0, 0)"),
                                           ([[0.5, 0.0], [None, 0.5]], "(1, 0)")])
def test_a_matrix_entry_that_is_not_a_number_is_named(entries, where):
    """``as_matrix`` and what reads through it take the tuple's rule for a
    number: a string, bytes, a bool or None is a ``MalformedSpec`` naming its
    entry, not parsed, read as 1 or read as NaN."""
    for read in (as_matrix, range_basis, lambda a: isometry_from_frames(a, a)):
        with pytest.raises(MalformedSpec, match=rf"entry {re.escape(where)} is "):
            read(entries)


def test_a_numeric_matrix_is_read_as_before():
    """Numeric arrays and nested lists of numbers convert in one step, as a
    copy; a ragged matrix is a ``MalformedSpec``, non-finite entries ``NonFinite``."""
    a = np.arange(6, dtype=np.int64).reshape(2, 3)
    got = as_matrix(a)
    assert got.dtype == complex and np.array_equal(got, a)
    z = np.eye(2, dtype=complex)
    assert as_matrix(z) is not z and np.array_equal(as_matrix(z), z)
    assert np.array_equal(as_matrix([[1, 2.5], [1j, np.float32(2)]]), [[1, 2.5], [1j, 2]])
    with pytest.raises(MalformedSpec):
        as_matrix([[1.0, 2.0], [3.0]])
    with pytest.raises(NonFinite):
        as_matrix([[np.nan]])
    with pytest.raises(DimensionMismatch):
        as_matrix([1.0, 2.0])
