import numpy as np
import pytest

from dilation_forge.errors import DimensionMismatch, GramMismatch, NonSquare, NotPSD
from dilation_forge.linalg import (adj, frob, frob_stack, isometry_from_frames,
                                   orthogonal_complement, psd_check, psd_flags, psd_sqrt,
                                   range_basis)


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
    ok, min_eig, defect = psd_check(np.eye(2), 1e-10)
    assert ok and min_eig == pytest.approx(1.0) and defect == 0.0


def test_psd_check_indefinite_diagonal():
    ok, min_eig, defect = psd_check(np.diag([1.0, -2.0]), 1e-10)
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
    ok, min_eig, defect = psd_check(s, 1e-10)
    assert not ok and min_eig == pytest.approx(-2.0) and defect < 1e-15


def test_psd_flags_match_psd_check_per_matrix():
    rng = np.random.default_rng(7)
    tol = 1e-10
    stack = []
    for dim_scale in (1e-3, 1.0, 50.0):
        a = crandn(rng, (4, 4))
        h = dim_scale * (a @ adj(a))
        low = np.linalg.eigvalsh(h)[0]
        # shifted to straddle the cutoff -tol * max(1, ||h||_2) from both sides
        cut = tol * max(1.0, np.linalg.eigvalsh(h)[-1])
        for shift in (0.0, low + 0.5 * cut, low + 2.0 * cut, low + 1.0):
            stack.append(h - shift * np.eye(4) + 1e-13 * crandn(rng, (4, 4)))
    stack = np.array(stack)
    assert psd_flags(stack, tol).tolist() == [psd_check(a, tol).is_psd for a in stack]
    assert set(psd_flags(stack, tol).tolist()) == {True, False}
    assert psd_flags(np.zeros((0, 3, 3)), tol).shape == (0,)


def test_psd_check_rejects_nonsquare():
    with pytest.raises(NonSquare):
        psd_check(np.zeros((2, 3)))


def test_psd_sqrt_diagonal():
    assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))


def test_psd_sqrt_zero():
    assert np.allclose(psd_sqrt(np.zeros((3, 3))), np.zeros((3, 3)))


def test_psd_sqrt_hand_eigendecomposition():
    # [[2,1],[1,2]] has eigenpairs (1, (1,-1)/sqrt2) and (3, (1,1)/sqrt2)
    r3 = np.sqrt(3.0)
    expected = 0.5 * np.array([[r3 + 1, r3 - 1], [r3 - 1, r3 + 1]])
    got = psd_sqrt(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(got, expected, atol=1e-14)


def test_psd_sqrt_clamps_tiny_negatives():
    a = np.diag([1.0, -1e-15])
    b = psd_sqrt(a)
    assert np.all(np.isfinite(b))
    assert b[1, 1] == 0.0


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPSD):
        psd_sqrt(np.diag([1.0, -0.5]))


def test_psd_sqrt_verdict_is_the_gate_verdict_at_the_cutoff():
    """The class gate decides with ``psd_check``; ``psd_sqrt`` on the same
    matrix raises exactly when that verdict fails, so a tuple in the class can
    always be dilated, also for a smallest eigenvalue within rounding of the
    cutoff -tol * max(1, ||A||_2)."""
    rng = np.random.default_rng(5)
    tol, verdicts = 1e-10, set()
    for dim in (2, 3, 5):
        q, _ = np.linalg.qr(crandn(rng, (dim, dim)))
        for step in range(-40, 41):
            eigs = np.linspace(1.0, 0.5, dim)
            eigs[-1] = -tol + step * 2e-18  # across the cutoff, in steps of a few ulps
            a = (q * eigs) @ adj(q)
            ok = psd_check(a, tol).is_psd
            verdicts.add(ok)
            try:
                psd_sqrt(a, tol)
                assert ok, (dim, step)
            except NotPSD:
                assert not ok, (dim, step)
    assert verdicts == {True, False}


def test_psd_sqrt_rejects_non_hermitian_and_negative_inputs():
    with pytest.raises(NotPSD, match="not Hermitian"):
        psd_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(NotPSD, match="below tolerance"):
        psd_sqrt(np.diag([1.0, -1e-9]))  # below -tol * max(1, ||A||) = -1e-10
    assert psd_sqrt(np.diag([1.0, -1e-11]))[1, 1] == 0.0  # within the tolerance: clamped


def test_psd_sqrt_squares_back():
    rng = np.random.default_rng(0)
    for _ in range(5):
        m = crandn(rng, (4, 4))
        a = m @ adj(m)
        b = psd_sqrt(a)
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


def test_orthogonal_complement():
    rng = np.random.default_rng(4)
    b = range_basis(crandn(rng, (5, 2)))
    c = orthogonal_complement(b)
    assert c.shape == (5, 5 - b.shape[1])
    assert np.linalg.norm(adj(c) @ b) < 1e-12

