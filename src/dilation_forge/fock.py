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
never stored as a dim x dim matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb

import numpy as np

from .errors import DimensionMismatch
from .linalg import as_matrix


def enumerate_indices(m: int, N: int) -> list[tuple[int, ...]]:
    """All alpha in Z_+^m with |alpha| <= N, ordered by degree then colex.

    Within a degree the order is (k,0,..) before (k-1,1,0,..) etc., i.e.
    ascending in the reversed tuple, so m=2, N=1 yields [(0,0),(1,0),(0,1)].
    """
    if m < 1 or N < 0:
        raise DimensionMismatch("need m >= 1 and N >= 0")
    out: list[tuple[int, ...]] = []

    def compositions(total, slots):
        if slots == 1:
            yield (total,)
            return
        for last in range(total + 1):
            for head in compositions(total - last, slots - 1):
                yield head + (last,)

    for deg in range(N + 1):
        level = sorted(compositions(deg, m), key=lambda a: tuple(reversed(a)))
        out.extend(level)
    return out


@dataclass
class FockModel:
    """Index bookkeeping for the truncated Fock space F_N(E) (x) D."""

    m: int
    N: int
    coeff_dim: int
    merged_phases: np.ndarray
    index_list: list[tuple[int, ...]] = field(init=False)
    index_of: dict = field(init=False)

    def __post_init__(self):
        self.merged_phases = as_matrix(self.merged_phases)
        if self.merged_phases.shape != (self.m, self.m):
            raise DimensionMismatch("merged phase table must be m x m")
        self.index_list = enumerate_indices(self.m, self.N)
        self.index_of = {alpha: i for i, alpha in enumerate(self.index_list)}
        assert len(self.index_list) == comb(self.m + self.N, self.m)

    @property
    def cell_count(self) -> int:
        return len(self.index_list)

    @property
    def dim(self) -> int:
        return self.cell_count * self.coeff_dim

    def u(self, s: int, t: int) -> complex:
        return complex(self.merged_phases[s, t])

    def phase_front(self, s: int, alpha: tuple[int, ...]) -> complex:
        out = 1.0 + 0.0j
        for t in range(s):
            out *= self.u(s, t) ** alpha[t]
        return out

    def phase_back(self, s: int, alpha: tuple[int, ...]) -> complex:
        out = 1.0 + 0.0j
        for t in range(s + 1, self.m):
            out *= self.u(t, s) ** alpha[t]
        return out

    def successor(self, s: int) -> tuple[np.ndarray, np.ndarray]:
        """Cells alpha with |alpha| < N and the cells alpha + e_s they shift to."""
        src = [c for c, alpha in enumerate(self.index_list) if sum(alpha) < self.N]
        dst = [self.index_of[a[:s] + (a[s] + 1,) + a[s + 1:]]
               for a in (self.index_list[c] for c in src)]
        return np.asarray(src, dtype=int), np.asarray(dst, dtype=int)


class FockOperator:
    """kappa-weighted cellwise block plus a one-slot cell shift on F_N(E) (x) D.

    Maps (alpha, v) to kappa(alpha) * [(alpha, diag v) + shift_phase(alpha) *
    (alpha + e_slot, shift v)], dropping shifted output past |alpha| = N, so
    the adjoint annihilates cells with alpha_slot = 0.  ``diag=None`` omits
    the cellwise part, ``shift=None`` is the identity.  Stored as terms
    (dst cells, src cells, blocks), one block per source cell, each term
    mapping distinct source cells to distinct destination cells.  ``product``
    returns a list of terms of the same form, except that a source cell may
    recur in a term (never a (dst, src) pair).
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

    @cached_property
    def _where(self) -> list[np.ndarray]:
        """Per term, each cell's position among its source cells (row 0) and
        among its destination cells (row 1); -1 where it is not one."""
        where = [np.full((2, self.fock.cell_count), -1) for _ in self.terms]
        for w, (dst, src, _) in zip(where, self.terms):
            w[0, src] = w[1, dst] = np.arange(len(src))
        return where

    @cached_property
    def _flat(self) -> tuple[np.ndarray, ...]:
        """All terms as one (dst cells, src cells, blocks) triple."""
        return tuple(np.concatenate(part) for part in zip(*self.terms))

    def product(self, other: FockOperator, adjoint: bool = False) -> list:
        """Terms of this operator (its adjoint with ``adjoint``) times ``other``.

        As in ``apply``, output shifted past |alpha| = N is dropped at each
        factor.  Each term of this operator takes one gather and one batched
        block product against all of ``other``'s terms at once.
        """
        mid, start, inner = other._flat
        out = []
        for (dst, src, blocks), where in zip(self.terms, self._where):
            at = where[int(adjoint), mid]
            keep = at >= 0
            if keep.any():
                at = at[keep]
                outer = blocks[at].conj().transpose(0, 2, 1) if adjoint else blocks[at]
                out.append(((src if adjoint else dst)[at], start[keep], outer @ inner[keep]))
        return out

    def __array__(self, dtype=None, copy=None):
        """The dense dim x dim matrix, for tests and comparisons."""
        cells, d = self.fock.cell_count, self.fock.coeff_dim
        out = np.zeros((cells, d, cells, d), dtype=complex)
        for dst, src, blocks in self.terms:
            out[dst, :, src, :] = blocks
        return out.reshape(self.shape).astype(dtype or complex, copy=False)


def terms_norm(model: FockModel, parts: list, src: np.ndarray, dst: np.ndarray | None = None,
               minus_identity: bool = False) -> float:
    """Frobenius norm of sum_k c_k T_k (minus the identity) on src x dst cells.

    ``parts`` pairs coefficients c_k with term lists T_k; ``src`` and ``dst``
    are boolean cell masks, ``dst=None`` keeps every destination cell.  Blocks
    at the same (dst, src) cell pair are added before the norm is taken.
    """
    cells, d = model.cell_count, model.coeff_dim
    flat = [(coef, term) for coef, terms in parts for term in terms]
    if minus_identity:
        every = np.arange(cells)
        flat.append((-1.0, (every, every, np.broadcast_to(np.eye(d), (cells, d, d)))))
    if not flat:
        return 0.0
    to = np.concatenate([term[0] for _, term in flat])
    start = np.concatenate([term[1] for _, term in flat])
    keep = src[start] if dst is None else src[start] & dst[to]
    keys = to[keep] * cells + start[keep]
    if not keys.size:
        return 0.0
    blocks = np.concatenate([coef * term[2] for coef, term in flat])[keep]
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    return float(np.linalg.norm(np.add.reduceat(blocks[order], starts)))


def creation_matrix(model: FockModel, s: int) -> FockOperator:
    """Left creation operator of generator s (0-based slot) on F_N(E) (x) D.

    Maps cell (alpha, v) to phase_front(s, alpha) * (alpha + e_s, v); cells at
    the truncation boundary |alpha| = N map to zero.
    """
    if not 0 <= s < model.m:
        raise DimensionMismatch(f"generator index {s} out of range")
    phases = [model.phase_front(s, alpha) for alpha in model.index_list]
    return FockOperator(model, None, None, s, phases)


def interior_cells(model: FockModel, margin: int) -> np.ndarray:
    """Boolean mask of the cells with |alpha| <= N - margin."""
    if margin < 0 or margin > model.N:
        raise DimensionMismatch(f"margin {margin} outside 0..N")
    return np.array([sum(a) <= model.N - margin for a in model.index_list], dtype=bool)


def interior_projector(model: FockModel, margin: int) -> np.ndarray:
    """Boolean mask of the coordinates in cells with |alpha| <= N - margin."""
    return np.repeat(interior_cells(model, margin), model.coeff_dim)
