"""Truncated Fock-space machinery for the merged (n-1)-generator system.

The model space is the direct sum of cells indexed by multi-indices alpha in
Z_+^m with total degree |alpha| <= N, each cell a copy of the coefficient
space.  The canonical tensor-slot order inside a cell monomial is generator
order: the merged generator's factors first, then generator 2, and so on.

Phase bookkeeping: the generators u-commute via the merged table, so moving a
tensor factor across the monomial picks up phases.  Two insertion conventions
appear:

* front insertion (creation): a new generator-s factor enters at the front
  and crosses the factors of generators before it; phase
  prod_{s' < s} u(s, s')^{alpha_{s'}}.
* coefficient-end insertion (transfer shift): a new merged-slot factor
  enters next to the coefficient space and crosses every factor after slot s;
  phase prod_{s' > s} u(s', s)^{alpha_{s'}}.  This is the identification used
  to view F(E) (x) E_merged (x) D inside F(E) (x) D when assembling transfer
  operators.

With an all-ones table both conventions are the plain shift.

Every Fock operator of the construction is a ``FockOperator``: a block on
each cell plus a block carried one cell up in a single slot, with per-cell
phases.  It is applied, and composed with another operator, cell by cell and
never stored as a dim x dim matrix.  A ``TermTable`` holds the blocks of
several operators at once, so that any list of pairwise products is one
gather and one batched block product, and ``group_norms`` measures any number
of such composites in one reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch
from .linalg import as_matrix


def enumerate_indices(m: int, N: int) -> np.ndarray:
    """All alpha in Z_+^m with |alpha| <= N as a read-only (cells, m) array,
    ordered by degree then colex.

    Within a degree the order is (k,0,..) before (k-1,1,0,..) etc., i.e.
    ascending in the reversed tuple, so m=2, N=1 yields [(0,0),(1,0),(0,1)].
    Degree k comes from degree k-1 by adding e_s for every slot s up to the
    first non-zero one, which reaches each alpha once, from alpha minus its
    first unit, and already in this order: parents in order, then s ascending.
    """
    if m < 1 or N < 0:
        raise DimensionMismatch("need m >= 1 and N >= 0")
    unit = np.eye(m, dtype=int)
    levels, first = [np.zeros((1, m), dtype=int)], np.array([m - 1])
    for _ in range(N):  # the slot added is the child's first non-zero slot
        rows, first = np.nonzero(np.arange(m) <= first[:, None])
        levels.append(levels[-1][rows] + unit[first])
    cells = np.concatenate(levels)
    cells.setflags(write=False)
    return cells


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of an integer array as one opaque byte-string key, for exact lookup."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()


def _row_index(cells: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Position in ``cells`` of each of ``rows``; a row it does not hold gets some position."""
    keys = _row_keys(cells)
    order = np.argsort(keys)
    return order[np.searchsorted(keys, _row_keys(rows), sorter=order).clip(max=len(keys) - 1)]


def parent_rows(cells: np.ndarray, last: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Per row alpha of ``cells``: the slot s of its first (``last``: last)
    non-zero entry and the row of alpha - e_s, which ``cells`` must hold.
    A zero row is its own parent."""
    nonzero = cells > 0
    slot = cells.shape[1] - 1 - np.argmax(nonzero[:, ::-1], axis=1) if last else \
        np.argmax(nonzero, axis=1)
    lower = cells - np.eye(cells.shape[1], dtype=int)[slot] * nonzero
    parent = _row_index(cells, lower)
    if not (cells[parent] == lower).all():
        raise DimensionMismatch("a multi-index minus its unit is not among the cells")
    return slot, parent


@dataclass
class FockModel:
    """Index bookkeeping for the truncated Fock space F_N(E) (x) D: the cells
    are the rows of ``cells``, as ordered by ``enumerate_indices``."""

    m: int
    N: int
    coeff_dim: int
    merged_phases: np.ndarray
    cells: np.ndarray = field(init=False)

    def __post_init__(self):
        self.merged_phases = as_matrix(self.merged_phases)
        if self.merged_phases.shape != (self.m, self.m):
            raise DimensionMismatch("merged phase table must be m x m")
        self.cells = enumerate_indices(self.m, self.N)

    @property
    def cell_count(self) -> int:
        return self.cells.shape[0]

    @property
    def dim(self) -> int:
        return self.cell_count * self.coeff_dim

    def cell_phases(self, costs) -> np.ndarray:
        """prod_s costs[s]^alpha_s for every cell alpha."""
        return np.prod(np.asarray(costs, dtype=complex) ** self.cells, axis=1)

    @cached_property
    def creation_phases(self) -> np.ndarray:
        """Read-only (m, cells) table: row s is ``cell_phases`` of the front-insertion
        costs u(s, t) for t < s (1 for t >= s), the phases of creation operator s."""
        costs = np.where(np.tri(self.m, k=-1, dtype=bool), self.merged_phases, 1)
        table = np.prod(costs[:, None, :] ** self.cells, axis=2)
        table.setflags(write=False)
        return table

    @cached_property
    def successors(self) -> np.ndarray:
        """Read-only (m, cells) table: entry (s, alpha) is the cell alpha + e_s,
        or -1 where |alpha| = N; from one sort of the cell keys."""
        shifted = self.cells + np.eye(self.m, dtype=int)[:, None, :]
        table = _row_index(self.cells, shifted.reshape(-1, self.m)).reshape(self.m, -1)
        table[:, self.cells.sum(axis=1) == self.N] = -1
        table.setflags(write=False)
        return table

    def successor(self, s: int) -> tuple[np.ndarray, np.ndarray]:
        """Cells alpha with |alpha| < N and the cells alpha + e_s they shift to."""
        src = np.flatnonzero(self.successors[s] >= 0)
        return src, self.successors[s, src]


class FockOperator:
    """kappa-weighted cellwise block plus a one-slot cell shift on F_N(E) (x) D.

    Maps (alpha, v) to kappa(alpha) * [(alpha, diag v) + shift_phase(alpha) *
    (alpha + e_slot, shift v)], dropping shifted output past |alpha| = N, so
    the adjoint annihilates cells with alpha_slot = 0.  ``diag=None`` omits
    the cellwise part, ``shift=None`` is the identity.  Stored as terms
    (dst cells, src cells, blocks), one block per source cell, each term
    mapping distinct source cells to distinct destination cells.  Products
    of operators are formed by ``TermTable.products``.

    ``kappa`` and ``shift_phase`` must be unimodular characters of the cell,
    chi(alpha) = prod_s c_s^alpha_s with |c_s| = 1, as ``FockModel.cell_phases``
    makes them: the verifier reads the isometry, commutation and factorization
    identities on the cells of degree <= ``verifier.FIXED_DEGREE`` only, which
    gives the model's residuals only because every cell then carries the same
    blocks up to a phase.  A phase that is not such a character breaks that
    argument.
    """

    def __init__(self, fock: FockModel, diag, shift, slot: int, shift_phase, kappa=None):
        d, cells = fock.coeff_dim, fock.cell_count
        shift = np.eye(d, dtype=complex) if shift is None else as_matrix(shift)
        kappa = np.ones(cells, dtype=complex) if kappa is None else np.asarray(kappa, dtype=complex)
        shift_phase = np.asarray(shift_phase, dtype=complex)
        if shift.shape != (d, d) or (diag is not None and np.shape(diag) != (d, d)):
            raise DimensionMismatch(f"blocks must be {d} x {d} (the coefficient dimension)")
        if kappa.shape != (cells,) or shift_phase.shape != (cells,):
            raise DimensionMismatch("need one phase per cell")
        self.fock, self.shape = fock, (fock.dim, fock.dim)
        src, dst = fock.successor(slot)
        self.terms = [(dst, src, (shift_phase[src, None, None] * shift) * kappa[src, None, None])]
        if diag is not None:
            every = np.arange(cells)
            self.terms.append((every, every, as_matrix(diag) * kappa[:, None, None]))

    def _cells(self, x) -> np.ndarray:
        x = np.asarray(x)
        if x.shape[0] != self.fock.dim:
            raise DimensionMismatch(f"operand has {x.shape[0]} rows, expected {self.fock.dim}")
        return x.reshape(self.fock.cell_count, self.fock.coeff_dim, -1)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """This operator times the dim x cols matrix ``x``."""
        y = self._cells(x)
        out = np.zeros(y.shape, dtype=complex)
        for dst, src, blocks in self.terms:
            out[dst] += blocks @ y[src]
        return out.reshape(x.shape)

    def apply_adj(self, x: np.ndarray) -> np.ndarray:
        """The adjoint of this operator times the dim x cols matrix ``x``."""
        y = self._cells(x)
        out = np.zeros(y.shape, dtype=complex)
        for dst, src, blocks in self.terms:
            out[src] += blocks.conj().transpose(0, 2, 1) @ y[dst]
        return out.reshape(x.shape)

    def __array__(self, dtype=None, copy=None):
        """The dense dim x dim matrix, for tests and comparisons."""
        cells, d = self.fock.cell_count, self.fock.coeff_dim
        out = np.zeros((cells, d, cells, d), dtype=complex)
        for dst, src, blocks in self.terms:
            out[dst, :, src, :] = blocks
        return out.reshape(self.shape).astype(dtype or complex, copy=False)


class TermTable:
    """The terms of several Fock operators on one model, as one table of blocks.

    Row r maps source cell ``src[r]`` to destination cell ``dst[r]`` by
    ``blocks[r]`` and comes from term ``term[r]`` of operator ``op[r]``; each
    operator's rows are contiguous.  ``where[0][k, t, c]`` is the row of term t
    of operator k with source cell c and ``where[1][k, t, c]`` the one with
    destination cell c, -1 where there is none.
    """

    def __init__(self, ops: list):
        terms = [(k, t, term) for k, w in enumerate(ops) for t, term in enumerate(w.terms)]
        sizes = [len(dst) for _, _, (dst, _, _) in terms]
        self.op = np.repeat([k for k, _, _ in terms], sizes)
        self.term = np.repeat([t for _, t, _ in terms], sizes)
        self.dst, self.src, self.blocks = (np.concatenate(part)
                                           for part in zip(*(term for _, _, term in terms)))
        self.count = np.bincount(self.op, minlength=len(ops))
        self.first = np.cumsum(self.count) - self.count
        rows = np.arange(len(self.op))
        self.where = np.full((2, len(ops), self.term.max(initial=0) + 1, ops[0].fock.cell_count),
                             -1)
        self.where[0, self.op, self.term, self.src] = rows
        self.where[1, self.op, self.term, self.dst] = rows

    def products(self, other: TermTable, left, right, adjoint: bool = False,
                 src=None, dst=None) -> tuple:
        """The blocks of every product ops[left[p]] of this table (its adjoint
        with ``adjoint``) times ops[right[p]] of ``other`` at once, as arrays
        (left term, p, dst cells, src cells, blocks), ordered by left term, then
        p, then right row.

        Each right row meets the rows of its left factor's terms at its
        destination cell through one gather in ``where``, and all block products
        are one batched matmul.  As in ``FockOperator.apply``, output shifted
        past |alpha| = N is dropped at each factor.  The boolean cell masks
        ``src`` and ``dst`` keep only the blocks from and to their cells.
        """
        left, right = np.asarray(left, dtype=int), np.asarray(right, dtype=int)
        count = other.count[right]
        pair = np.repeat(np.arange(len(right)), count)
        offset = np.cumsum(count) - count  # where each pair's rows start among all pairs'
        inner = np.arange(len(pair)) + np.repeat(other.first[right] - offset, count)
        if src is not None:
            keep = src[other.src[inner]]
            pair, inner = pair[keep], inner[keep]
        outer = self.where[int(adjoint)][left[pair], :, other.dst[inner]].T
        term, k = np.nonzero(outer >= 0)
        outer, pair, inner = outer[term, k], pair[k], inner[k]
        to = (self.src if adjoint else self.dst)[outer]
        if dst is not None:
            keep = dst[to]
            term, pair, inner, outer, to = (a[keep] for a in (term, pair, inner, outer, to))
        blocks = self.blocks[outer]
        if adjoint:
            blocks = blocks.conj().transpose(0, 2, 1)
        return term, pair, to, other.src[inner], blocks @ other.blocks[inner]


def group_norms(model: FockModel, group, dst: np.ndarray, src: np.ndarray,
                blocks: np.ndarray, groups: int) -> np.ndarray:
    """Per group g < ``groups``, the Frobenius norm of its blocks summed per
    (dst, src) cell pair.

    One stable sort of the (group, dst, src) keys; the blocks of each key are
    added in that order, one vectorized pass per rank within a key, and the
    squared norms of the sums added per group.  (``np.add.reduceat`` over the
    sorted blocks gives these sums up to rounding, but loops over every
    (key, entry) pair and was about twice as slow on deep models.)
    """
    cells = model.cell_count
    keys = (group * cells + dst) * cells + src
    if not keys.size:
        return np.zeros(groups)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    bounds = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1], [True])))
    starts, length = bounds[:-1], bounds[1:] - bounds[:-1]
    sums = blocks[order[starts]]
    for rank in range(1, length.max()):
        more = np.flatnonzero(length > rank)
        sums[more] += blocks[order[starts[more] + rank]]
    sums = sums.reshape(len(starts), -1).view(float)
    return np.sqrt(np.bincount(keys[starts] // cells ** 2, np.einsum("kx,kx->k", sums, sums),
                               minlength=groups))


def creation_matrix(model: FockModel, s: int) -> FockOperator:
    """Left creation operator of generator s (0-based slot) on F_N(E) (x) D.

    Maps cell (alpha, v) to prod_{t < s} u(s, t)^alpha_t * (alpha + e_s, v)
    (front insertion); cells at the truncation boundary |alpha| = N map to zero.
    """
    if not 0 <= s < model.m:
        raise DimensionMismatch(f"generator index {s} out of range")
    return FockOperator(model, None, None, s, model.creation_phases[s])


def interior_cells(model: FockModel, margin: int) -> np.ndarray:
    """Boolean mask of the cells with |alpha| <= N - margin."""
    if margin < 0 or margin > model.N:
        raise DimensionMismatch(f"margin {margin} outside 0..N")
    return model.cells.sum(axis=1) <= model.N - margin


def interior_projector(model: FockModel, margin: int) -> np.ndarray:
    """Boolean mask of the coordinates in cells with |alpha| <= N - margin."""
    return np.repeat(interior_cells(model, margin), model.coeff_dim)
