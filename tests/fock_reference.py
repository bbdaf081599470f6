"""Dense references for the verifier's closed-form norms.

Fock operators become dim x dim matrices (``np.asarray``), their products
plain matrix products, and a norm is taken of the rows and columns of the
interior cells: the brute force that ``fock.product_norms`` and the
verifier's isometry, commutation and factorization checks are compared with.
The same matrices in block-sparse form (``cell_blocks``) serve models whose
dense matrices would not fit.  ``apply`` applies an operator cell by cell,
from its terms.  The algebra action is referenced cell by cell as well: a
label per coordinate (``coordinate_labels``) and the covariance residuals
of one component at a time (``per_component_covariance``).  An operator's
terms in the two-block form of a transfer operator come from
``two_block_terms``, and a family's operators as term lists again from
``term_lists``.
"""

import numpy as np

from dilation_forge.fock import degree_blocks, interior_cells, interior_projector
from dilation_forge.linalg import adj


def two_block_terms(fock, diag, shift, slot, shift_costs, kappa_costs=None):
    """The terms of kappa(alpha) [(alpha, diag v) + phase(alpha) (alpha + e_slot,
    shift v)], kappa and phase the characters of ``kappa_costs`` (all 1 by
    default) and ``shift_costs``: the shift term (slot, shift, shift_costs *
    kappa_costs), the identity for ``shift=None``, then the cellwise term
    (m, diag, kappa_costs) unless ``diag`` is None."""
    m = fock.m
    shift = np.eye(fock.coeff_dim, dtype=complex) if shift is None else \
        np.asarray(shift, dtype=complex)
    kappa = np.asarray(np.ones(m) if kappa_costs is None else kappa_costs, dtype=complex)
    terms = [(slot, shift, np.asarray(shift_costs, dtype=complex) * kappa)]
    if diag is not None:
        terms.append((m, np.asarray(diag, dtype=complex), kappa))
    return terms


def term_lists(family):
    """The per-operator term lists that make ``family``, from its arrays."""
    terms = list(zip(family.slots.tolist(), family.blocks, family.costs))
    return [terms[lo:hi] for lo, hi in zip(family.starts, family.starts[1:])]


def moves(op):
    """Per term of ``op``, a family of one: its phase on each source cell, its
    block, the source cells and their destination cells, from the cells its
    adjoint reads."""
    out = []
    for read, phase, block in zip(*op.reads):
        src = np.flatnonzero(read >= 0)
        out.append((phase[src].conj(), block.conj(), src, read[src]))
    return out


def apply(op, x):
    """The Fock operator ``op`` times the dim x cols matrix ``x``, term by term
    from its moves, each block times its phase on every source cell."""
    y = np.asarray(x).reshape(op.fock.cell_count, op.fock.coeff_dim, -1)
    out = np.zeros(y.shape, dtype=complex)
    for phase, block, src, dst in moves(op):
        out[dst] += (phase[:, None, None] * block) @ y[src]
    return out.reshape(np.shape(x))


def coordinate_labels(model):
    """Algebra label of each model coordinate, (cells, dim D): cell alpha maps
    D's labels by prod_s a_s^{alpha_s}, one a_s per tree link alpha - e_s to alpha."""
    fock, autos = model.fock, model.merged.algebra.automorphisms
    labels = np.empty((fock.cell_count, model.layout.dim), dtype=int)
    labels[0] = model.layout.D
    for rows in degree_blocks(fock.m, model.N):
        labels[rows] = autos[fock.slot[rows, None], labels[fock.parent[rows]]]
    return labels


def per_component_covariance(w, labels, q, p):
    """The covariance residual of one component p, W rho(q) - rho(p) W against
    rho(p) W, one term and one pair of indicator matrices at a time."""
    delta = ref = 0.0
    for _, block, src, dst in moves(w):
        mass = np.abs(block) ** 2
        rows, cols = (labels[dst] == p).astype(float), (labels[src] == q).astype(float)
        delta += float(np.sum(mass * (rows.T @ (1.0 - cols) + (1.0 - rows).T @ cols)))
        ref += float(np.sum(mass * rows.sum(axis=0)[:, None]))
    return float(np.sqrt(delta) / max(1.0, np.sqrt(ref)))


def covariance(model, autos):
    """``per_component_covariance`` of tau1, L_2, ..., taun, L1 with the
    automorphisms ``autos``, (operators, k), from the coordinate labels."""
    labels, k = coordinate_labels(model), model.spec.algebra.k
    return np.array([[per_component_covariance(w, labels, np.argsort(a)[p], p)
                      for p in range(k)]
                     for w, a in zip(model.isometries, autos)])


def product(a, b, adjoint=False):
    """The dense product of ``a`` (its adjoint with ``adjoint``) and ``b``."""
    left = np.asarray(a)
    return (adj(left) if adjoint else left) @ np.asarray(b)


def terms_norm(model, parts, src, dst=None, minus_identity=False):
    """Frobenius norm of sum_k c_k M_k (minus the identity) on src x dst cells.

    ``parts`` pairs coefficients c_k with dense dim x dim matrices M_k;
    ``src`` and ``dst`` are the margins of the interior cells kept as columns
    and as rows, ``dst=None`` keeps every row.
    """
    whole = sum((coef * matrix for coef, matrix in parts), np.zeros((model.dim, model.dim)))
    if minus_identity:
        whole = whole - np.eye(model.dim)
    rows = np.ones(model.dim, dtype=bool) if dst is None else interior_projector(model, dst)
    return float(np.linalg.norm(whole[np.ix_(rows, interior_projector(model, src))]))


# Block-sparse forms of the same matrices, for models too large for dense ones:
# an operator is its nonzero d x d blocks, as (destination cells, source cells,
# blocks), and a product joins the blocks of the right factor to the blocks of
# the left factor that read its destination cells.

def cell_blocks(op, adjoint=False):
    """The blocks of a Fock operator (of its adjoint with ``adjoint``), one per
    term and source cell, each times its phase on that cell."""
    dst, src, blocks = (np.concatenate(parts) for parts in zip(
        *[(to, start, phase[:, None, None] * block) for phase, block, start, to in moves(op)]))
    return (src, dst, adj(blocks)) if adjoint else (dst, src, blocks)


def sparse_product(a, b, adjoint=False):
    """The block-sparse product of Fock operators ``a`` (its adjoint with
    ``adjoint``) and ``b``."""
    (a_dst, a_src, a_blocks), (b_dst, b_src, b_blocks) = cell_blocks(a, adjoint), cell_blocks(b)
    order = np.argsort(a_src, kind="stable")
    lo = np.searchsorted(a_src, b_dst, sorter=order)
    counts = np.searchsorted(a_src, b_dst, side="right", sorter=order) - lo
    right = np.repeat(np.arange(len(b_dst)), counts)
    left = order[np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())]
    return a_dst[left], b_src[right], a_blocks[left] @ b_blocks[right]


def sparse_terms_norm(model, parts, src, dst=None, minus_identity=False):
    """``terms_norm`` of block-sparse parts (``cell_blocks``, ``sparse_product``)."""
    cells, d = model.cell_count, model.coeff_dim
    pieces = [(to, start, coef * blocks) for coef, (to, start, blocks) in parts]
    if minus_identity:
        every = np.arange(cells)
        pieces.append((every, every, np.broadcast_to(-np.eye(d), (cells, d, d))))
    if not pieces:
        return 0.0
    to, start, blocks = (np.concatenate(x) for x in zip(*pieces))
    rows = np.ones(cells, dtype=bool) if dst is None else interior_cells(model, dst)
    keep = interior_cells(model, src)[start] & rows[to]
    _, where = np.unique(to[keep] * cells + start[keep], return_inverse=True)
    sums = np.zeros((where.max(initial=-1) + 1, d, d), dtype=complex)
    np.add.at(sums, where, blocks[keep])
    return float(np.linalg.norm(sums))
