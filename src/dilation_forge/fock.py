"""Truncated Fock-space machinery for the merged (n-1)-generator system.

The model space is the direct sum of cells indexed by multi-indices alpha in
Z_+^m with total degree |alpha| <= N, each cell a copy of the coefficient
space.  The canonical tensor-slot order inside a cell monomial is generator
order: the merged generator's factors first, then generator 2, and so on.

The cells form a tree, alpha != 0 hanging from alpha - e_s (s its first
non-zero slot): ``enumerate_indices`` returns the links, every walk over the
cells follows them, and the successor table is the one lookup by value.

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

Every Fock operator of the construction is a list of terms (slot s, d x d
block, m costs), and a ``FockFamily`` the terms of a list of them as arrays,
checked once, when it is made, and nothing else; never a dim x dim matrix,
nor one block per cell.  Every reader takes a family: ``apply_adjoints``
applies its adjoints cell by cell from the table of the cells each term
reads (``reads``, formed per call), ``product_norms`` measures sums of
products of its operators, and ``isometry_defects`` each W*W - I, in closed
form, without reading a cell, and ``stein_sums`` a chain of terms against Pi
at N = infinity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import comb

import numpy as np

from .errors import DimensionMismatch, NonFinite
from .linalg import adj, as_matrix, check_count, frob, frob_stack

PHASE_TOL = 1e-12  # largest | |c| - 1 | of a character cost, as for a tuple's phase table
MAX_CELLS = 2 ** 15  # largest cell count comb(m + N, m) of a truncated model
STEIN_DENSE = 4  # largest h whose Stein sums take dense h^2 x h^2 inverses
STEIN_TOL = 1e-18  # the share of a Stein sum that its doubling may leave out


def enumerate_indices(m: int, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only ``(cells, slot, parent)``: all alpha in Z_+^m with |alpha| <= N
    as a (cells, m) array ordered by degree then colex, each row's first
    non-zero slot s and the row of its parent alpha - e_s (row 0: slot 0, itself).

    Within a degree the order is (k,0,..) before (k-1,1,0,..) etc., i.e.
    ascending in the reversed tuple, so m=2, N=1 yields [(0,0),(1,0),(0,1)].
    Degree k comes from degree k-1 by adding e_s for every slot s up to the
    first non-zero one, which reaches each alpha once, from alpha minus its
    first unit, and already in this order: parents in order, then s ascending.
    """
    if m < 1 or N < 0:
        raise DimensionMismatch("need m >= 1 and N >= 0")
    unit = np.eye(m, dtype=int)
    zero, first, start = np.zeros(1, dtype=int), np.array([m - 1]), 0
    levels, slot, parent = [np.zeros((1, m), dtype=int)], [zero], [zero]
    for _ in range(N):  # the slot added is the child's first non-zero slot
        rows, first = np.nonzero(np.arange(m) <= first[:, None])
        parent.append(rows + start)
        start += len(levels[-1])
        levels.append(levels[-1][rows] + unit[first])
        slot.append(first)
    out = tuple(np.concatenate(x) for x in (levels, slot, parent))
    for x in out:
        x.setflags(write=False)
    return out


def degree_blocks(m: int, N: int) -> list:
    """The rows of degrees 1..N of ``enumerate_indices(m, N)``, as slices: degree
    k is [comb(m + k - 1, m), comb(m + k, m)); a walk down the tree takes them in turn."""
    return [slice(comb(m + k - 1, m), comb(m + k, m)) for k in range(1, N + 1)]


def degree_layers(step, m: int, first: np.ndarray, N: int) -> list:
    """[A_0, ..., A_N], A_k = sum_{|alpha| = k} step_1^{alpha_1} ... step_m^{alpha_m}(first),
    by A_k(s) = A_k(s+1) + step_s(A_{k-1}(s)) over the slots s = m..1: O(mN)
    steps, none assumed to commute with another."""
    layer = [first] + [np.zeros_like(first)] * N  # layer[k] = A_k(s)
    for s in range(m, 0, -1):
        for k in range(1, N + 1):
            layer[k] = layer[k] + step(s, layer[k - 1])
    return layer


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of an integer array as one opaque byte-string key, for exact lookup."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()


def _row_index(cells: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Position in ``cells`` of each of ``rows``; a row it does not hold gets some position."""
    keys = _row_keys(cells)
    order = np.argsort(keys)
    return order[np.searchsorted(keys, _row_keys(rows), sorter=order).clip(max=len(keys) - 1)]


@dataclass
class FockModel:
    """Index bookkeeping for the truncated Fock space F_N(E) (x) D: the cells
    are the rows of ``cells``, with their tree links ``slot`` and ``parent``,
    as ``enumerate_indices`` returns them.  More than MAX_CELLS cells is a
    ``DimensionMismatch``, found from their count alone, before anything
    whose size grows with N."""

    m: int
    N: int
    coeff_dim: int
    merged_phases: np.ndarray
    cells: np.ndarray = field(init=False)
    slot: np.ndarray = field(init=False)
    parent: np.ndarray = field(init=False)

    def __post_init__(self):
        self.m, self.N, self.coeff_dim = (check_count(getattr(self, name), f"Fock model {name}")
                                          for name in ("m", "N", "coeff_dim"))
        self.merged_phases = as_matrix(self.merged_phases)
        if self.merged_phases.shape != (self.m, self.m):
            raise DimensionMismatch("merged phase table must be m x m")
        m, N = self.m, self.N
        if comb(m + N, m) > MAX_CELLS:
            raise DimensionMismatch(f"truncation degree {N} over {m} generators gives "
                                    f"{comb(m + N, m)} cells, more than the budget of {MAX_CELLS}")
        self.cells, self.slot, self.parent = enumerate_indices(self.m, self.N)

    @property
    def cell_count(self) -> int:
        return self.cells.shape[0]

    @property
    def dim(self) -> int:
        return self.cell_count * self.coeff_dim

    def cell_phases(self, costs) -> np.ndarray:
        """prod_s costs[s]^alpha_s for every cell alpha and each row of ``costs``
        (..., m): per tree link, the parent's phase times the slot's cost."""
        out = np.ones(np.shape(costs)[:-1] + (self.cell_count,), dtype=complex)
        for block in degree_blocks(self.m, self.N):
            out[..., block] = out[..., self.parent[block]] * np.asarray(costs)[..., self.slot[block]]
        return out

    @cached_property
    def successors(self) -> np.ndarray:
        """Read-only (m, cells) table: entry (s, alpha) is the cell alpha + e_s,
        or -1 where |alpha| = N; from one sort of the cell keys."""
        shifted = self.cells + np.eye(self.m, dtype=int)[:, None, :]
        table = _row_index(self.cells, shifted.reshape(-1, self.m)).reshape(self.m, -1)
        table[:, self.cells.sum(axis=1) == self.N] = -1
        table.setflags(write=False)
        return table


class FockFamily:
    """Fock operators on F_N(E) (x) D, ``ops`` a list of per-operator term lists.
    A term (s, M, c) maps (alpha, v) to chi_c(alpha) (alpha + e_s, M v) for a
    slot s < m, dropping output past |alpha| = N, and to chi_c(alpha) (alpha,
    M v) for s = m; chi_c(alpha) = prod_s c_s^alpha_s of the m unimodular costs c.

    The constructor is the one check of terms: an operator is 1 to m + 1 terms
    in distinct slots 0..m, each with a finite d x d block and m costs within
    PHASE_TOL of the circle; anything else, a ragged entry too, is a
    ``DimensionMismatch`` (a non-finite block ``NonFinite``).  It keeps read-only
    arrays, a row per term in operator order: ``owner`` (its operator),
    ``slots``, ``blocks``, ``costs``; ``starts`` is each operator's first row,
    then the row count, and nothing else.  ``family[k]`` is operator k as a
    family of one, made by this constructor from its terms; ``np.asarray`` of
    it is its matrix.
    """

    def __init__(self, fock: FockModel, ops: list):
        m, d = fock.m, fock.coeff_dim
        form = f"an operator is 1 to {m + 1} terms (slot in 0..{m}, {d} x {d} block, {m} costs)"
        try:
            counts = [len(terms) for terms in ops]
            slots, blocks, costs = zip(*[(s, b, c) for terms in ops for s, b, c in terms])
            slots, blocks, costs = np.array(slots), np.array(blocks, complex), np.array(costs, complex)
        except (TypeError, ValueError):
            raise DimensionMismatch(form) from None
        owner = np.repeat(np.arange(len(ops)), counts)
        if (not all(counts) or slots.dtype.kind not in "iu" or slots.min() < 0 or slots.max() > m
                or np.bincount(owner * (m + 1) + slots).max() > 1  # a slot twice in one operator
                or blocks.shape[1:] != (d, d) or costs.shape[1:] != (m,)):
            raise DimensionMismatch(form)
        if not np.isfinite(blocks).all():
            raise NonFinite("a term's block has NaN or Inf entries")
        if not (np.abs(np.abs(costs) - 1.0) <= PHASE_TOL).all():
            raise DimensionMismatch(f"need {m} unimodular character costs, one per slot")
        for x in (owner, slots, blocks, costs):
            x.setflags(write=False)
        self.fock, self.owner, self.slots, self.blocks, self.costs = fock, owner, slots, blocks, costs
        self.starts = np.cumsum([0] + counts).tolist()

    def __len__(self) -> int:
        return len(self.starts) - 1

    def __getitem__(self, k: int) -> FockFamily:
        k = range(len(self))[k]  # an IndexError past either end, which ends iteration
        rows = slice(self.starts[k], self.starts[k + 1])
        return FockFamily(self.fock, [list(zip(self.slots[rows], self.blocks[rows], self.costs[rows]))])

    def __array__(self, dtype=None, copy=None):
        """The dense dim x dim matrix of a family of one, from its ``reads``, for tests
        and comparisons; a larger family is a ``DimensionMismatch``, never the sum."""
        if len(self) != 1:
            raise DimensionMismatch(f"a family of {len(self)} operators is not one matrix")
        cells, d = self.fock.cell_count, self.fock.coeff_dim
        out = np.zeros((cells, d, cells, d), dtype=complex)
        for read, phase, block in zip(*reads(self)):
            src = np.flatnonzero(read >= 0)
            out[read[src], :, src, :] = phase[src, None, None].conj() * block.conj()
        return out.reshape(self.fock.dim, -1).astype(dtype or complex, copy=False)


def reads(family: FockFamily) -> tuple:
    """Per term (row) of ``family``: the cell its adjoint reads into each cell (-1
    past the truncation), the conjugate phase there and the conjugate block, from
    the successor table (each cell itself for slot m) and one ``cell_phases``."""
    fock = family.fock
    table = np.vstack([fock.successors, np.arange(fock.cell_count)])  # row m: each cell itself
    return table[family.slots], fock.cell_phases(family.costs).conj(), family.blocks.conj()


def apply_adjoints(family: FockFamily, x: np.ndarray) -> np.ndarray:
    """The adjoints of the operators of ``family`` times the dim x cols matrix
    ``x``, an (operators, dim, cols) array: the cells each term reads times its
    block in one batched product, then its phases, and each operator's terms
    added in order, so that an operator's result is the same bit for bit alone
    or in its family."""
    fock, x = family.fock, np.asarray(x)
    if x.shape[0] != fock.dim:
        raise DimensionMismatch(f"operand has {x.shape[0]} rows, expected {fock.dim}")
    cells, d, cols = fock.cell_count, fock.coeff_dim, x.size // fock.dim
    # each cell as cols x d, then the zero cell that a read of -1 picks
    rows = np.concatenate([x.reshape(cells, d, cols).transpose(0, 2, 1), np.zeros((1, cols, d))])
    read, phases, blocks = reads(family)
    prod = (rows[read].reshape(len(blocks), -1, d) @ blocks).reshape(len(blocks), cells, cols, d)
    prod *= phases[:, :, None, None]  # each cell's (M* y)^T (cols x d), times its phase
    out = np.add.reduceat(prod, family.starts[:-1], axis=0)
    return out.transpose(0, 1, 3, 2).reshape(len(family), -1, cols)


def _deviation_sums(theta: np.ndarray, free: np.ndarray) -> np.ndarray:
    """Per row, the sum of exp(i theta . alpha) - 1 over the cells with |alpha| <=
    ``free`` (none for free < 0): ``degree_layers`` of (count, deviation) pairs, a
    slot-s factor taking (c, d) to (c, t c + (1 + t) d), t = expm1(i theta_s), so
    exact to rounding relative to |theta| however small, and 0 for theta = 0."""
    t = np.expm1(1j * theta.T)
    first = np.array([np.ones(len(theta)), np.zeros(len(theta))], dtype=complex)
    layers = degree_layers(lambda s, x: np.stack([x[0], t[s - 1] * x[0] + (1 + t[s - 1]) * x[1]]),
                           theta.shape[1], first, max(free.max(initial=0), 0))
    dev = np.cumsum([layer[1] for layer in layers], axis=0)
    return np.where(free >= 0, dev[free.clip(0), np.arange(len(theta))], 0.0)


def isometry_defects(family: FockFamily) -> np.ndarray:
    """||W*W - I|| of each operator W of ``family`` on the cells with |alpha| <= N - 1,
    as sources and as destinations: sqrt(C(N - 1) ||sum_t M_t* M_t - I||^2 +
    2 C(N - 2) sum_{t < t'} ||M_t* M_t'||^2) over its terms' blocks, C(K) the
    cell count comb(m + K, m) (0 for K < 0).  A term meets its own adjoint
    with |chi|^2 = 1, and each pair of distinct terms at a displacement of its
    own, so no character but its modulus enters."""
    m, N, d = family.fock.m, family.fock.N, family.fock.coeff_dim
    owner, blocks = family.owner, family.blocks
    cells = [comb(m + K, m) if K >= 0 else 0 for K in (N - 1, N - 2)]
    gram = np.add.reduceat(adj(blocks) @ blocks, family.starts[:-1])
    flat = (gram - np.eye(d)).reshape(len(family), d * d).view(float)
    t, u = np.nonzero(np.triu(owner[:, None] == owner, 1))  # none for one-term operators
    cross = (adj(blocks[t]) @ blocks[u]).reshape(len(t), d * d).view(float)
    return np.sqrt(cells[0] * np.einsum("ij,ij->i", flat, flat) + 2 * cells[1]
                   * np.bincount(owner[t], np.einsum("ij,ij->i", cross, cross),
                                 minlength=len(family)))


def product_norms(family: FockFamily, left, right, coef, group, src) -> np.ndarray:
    """Frobenius norms of sums of products of the operators of ``family`` on
    interior cells, in closed form: no cell is read.

    Pair p adds coef[p] family[left[p]] family[right[p]] to group[p]; index
    len(family) is the identity.  Group g keeps the cells with |alpha| <= N -
    src[g] as sources.  Returns each group's norm.

    A term (slot s, block M, costs c) moves alpha to alpha + delta, delta = e_s
    (0 for the cellwise slot m), with phase chi_c(alpha).  A product of two
    terms from alpha is then chi_l(delta_r) (chi_l chi_r)(alpha) M_l M_r at
    the displacement Delta = delta_l + delta_r, on the sources with |alpha| <=
    N - max(src[g], |Delta|); all of them are one batched matmul.  Product k
    of one group at one Delta is Y_k (its block times chi_l(delta_r)) times
    the character chi_k(alpha).  Their squared norm over the cells is
    sum_k,l <Y_k, Y_l> sum_alpha (1 + (conj(chi_k) chi_l(alpha) - 1)).  The 1s
    give C ||S||^2: S the sum of the products, C the binomial count of the
    cells.  The rest, for characters that differ, is 2 Re <Y_k, Y_l> times a
    sum of exp(i theta . alpha) - 1 (``_deviation_sums``, theta the angles of
    conj(c_k) c_l).  Products that cancel, with equal or nearly equal
    characters, cancel inside S and the deviations, not between separately
    taken norms, so a small residual is exact to rounding; characters count
    as their unimodular parts (a cost within PHASE_TOL of the circle moves a
    norm by about 2 N PHASE_TOL at most).
    """
    m, N, d = family.fock.m, family.fock.N, family.fock.coeff_dim
    first = np.array(family.starts)  # each operator's first row, then the identity's: slot m, I, all 1
    counts = np.diff(first, append=first[-1] + 1)
    slot = np.concatenate([family.slots, [m]])
    costs = np.ones((len(slot), m + 1), dtype=complex)  # with chi(e_m) = 1
    costs[:-1, :m] = family.costs
    blocks = np.concatenate([family.blocks, np.eye(d)[None]])
    # every (left term, right term) of every pair; lt is the left term's row
    width = np.arange(counts.max())
    left, right = np.asarray(left), np.asarray(right)
    p, a, b = np.nonzero((width < counts[left][:, None])[:, :, None]
                         & (width < counts[right][:, None])[:, None])
    g = np.asarray(group)[p]
    lt, rt = first[left[p]] + a, first[right[p]] + b
    sl, sr = slot[lt], slot[rt]  # Delta = e_sl + e_sr
    free = (N - np.maximum((sl < m) * 1 + (sr < m), np.asarray(src)[g])).clip(-1)
    kind = (g * (m + 1) + np.minimum(sl, sr)) * (m + 1) + np.maximum(sl, sr)
    order = np.argsort(kind, kind="stable")  # products by (group, Delta)
    p, g, lt, rt, sr, free, kind = (x[order] for x in (p, g, lt, rt, sr, free, kind))
    chars = costs[lt] * costs[rt]
    prods = blocks[lt] @ blocks[rt]  # the identity's products are exact
    prods *= (np.asarray(coef, dtype=complex)[p] * costs[lt, sr])[:, None, None]
    # the counts: per (group, Delta), ||S||^2 times its cells
    opens = np.flatnonzero(np.concatenate([[True], kind[1:] != kind[:-1]]))
    flat = np.add.reduceat(prods, opens, axis=0).reshape(len(opens), -1).view(float)
    size = np.array([0] + [comb(m + k, m) for k in range(N + 1)], dtype=float)
    squares = np.bincount(g[opens], np.einsum("ij,ij->i", flat, flat) * size[free[opens] + 1],
                          minlength=len(src))
    # the characters: 2 Re <Y_k, Y_l> (sum of conj(chi_k) chi_l - 1 over the
    # cells) for the products of one group and Delta whose characters differ
    odd = kind[1:][(kind[1:] == kind[:-1]) & np.any(chars[1:] != chars[:-1], axis=1)]
    if odd.size:
        mixed = np.flatnonzero(np.isin(kind, odd))
        j, k = mixed[np.argwhere(kind[mixed, None] == kind[mixed])].T
        angles = np.angle(chars[:, :m])
        j, k = (x[np.any(angles[j] != angles[k], axis=1)] for x in (j, k))
        dev = _deviation_sums(angles[k] - angles[j], free[j])
        squares += np.bincount(g[j], (np.sum(prods[j].conj() * prods[k], axis=(1, 2))
                                      * dev).real, minlength=len(src))
    return np.sqrt(np.maximum(squares, 0.0))


def stein_sums(mt: np.ndarray, x: np.ndarray, delta: np.ndarray, costs: np.ndarray) -> np.ndarray:
    """Per row X of the (rows, h, h) ``x``, with (m,) displacement delta and unimodular
    costs c, sum_alpha chi_c(alpha) T^(alpha + delta) X T^(alpha)*, T^(alpha) the ordered
    product of the (m, h, h) ``mt``, nested with the last slot innermost: X becomes
    t_s^delta_s G, G = sum_a c_s^a t_s^a X (t_s^a)*; exact for any tuple once r(t_s) < 1.
    Up to h = STEIN_DENSE, G is one inverse of I - c (t_s (x) conj t_s) per (slot, cost);
    above, G <- G + c^(2^k) t^(2^k) G (t^(2^k))* while ||t^(2^k)||^2 > STEIN_TOL, h^3 a row."""
    m, h = mt.shape[:2]
    k = int(delta.max(initial=0)) + 1
    powers = np.stack([np.linalg.matrix_power(mt, j) for j in range(k)], axis=1)  # t_s^j, j < k
    if h <= STEIN_DENSE:  # c 16^s is exact and, as |c| = 1, one number per (slot, cost)
        _, first, which = np.unique(costs * 16.0 ** np.arange(m), return_index=True,
                                    return_inverse=True)
        slot = first % m
        t = mt[slot]
        phi = (t[:, :, None, :, None] * t.conj()[:, None, :, None, :]).reshape(-1, h * h, h * h)
        steps = np.linalg.inv(np.eye(h * h) - costs.ravel()[first, None, None] * phi)
        # then t_s^j times each step; t^0 = I is exact
        steps = (powers[slot] @ steps.reshape(-1, 1, h, h ** 3)).reshape(-1, h * h, h * h)
        which = which.reshape(costs.shape) * k + delta  # each row's step per slot
        out = np.asarray(x, dtype=complex).reshape(-1, h * h, 1)
        for s in range(m - 1, -1, -1):
            out = steps[which[:, s]] @ out
        return out.reshape(-1, h, h)
    squares = [np.asarray(mt, dtype=complex)]  # t_s^(2^k), at most 2^64 terms
    while len(squares) < 64 and frob_stack(squares[-1]).max() ** 2 > STEIN_TOL:
        squares.append(squares[-1] @ squares[-1])
    out = np.array(x, dtype=complex)
    for s in range(m - 1, -1, -1):
        c = costs[:, s, None, None]
        for p in (p[s] for p in squares):
            if frob(p) ** 2 <= STEIN_TOL:
                break
            out += c * (p @ out @ adj(p))
            c = c * c
        out = powers[s, delta[:, s]] @ out
    return out


def creation_terms(model: FockModel, slots) -> list:
    """The terms of the left creation operators of generators ``slots`` (0-based),
    from one cost table: creation s is the one term (s, I, costs), mapping cell
    (alpha, v) to prod_{t < s} u(s, t)^alpha_t (alpha + e_s, v) (front insertion)."""
    slots = np.asarray(slots, dtype=int)
    bad = slots[(slots < 0) | (slots >= model.m)]
    if bad.size:
        raise DimensionMismatch(f"generator index {bad[0]} out of range")
    costs = np.where(np.arange(model.m) < slots[:, None], model.merged_phases[slots], 1)
    eye = np.eye(model.coeff_dim, dtype=complex)
    return [[(s, eye, c)] for s, c in zip(slots.tolist(), costs)]


def creation_matrix(model: FockModel, s: int) -> FockFamily:
    """Left creation operator of generator s: the family of ``creation_terms`` of s alone."""
    return FockFamily(model, creation_terms(model, [s]))


def interior_cells(model: FockModel, margin: int) -> np.ndarray:
    """Boolean mask of the cells with |alpha| <= N - margin."""
    if margin < 0 or margin > model.N:
        raise DimensionMismatch(f"margin {margin} outside 0..N")
    return model.cells.sum(axis=1) <= model.N - margin


def interior_projector(model: FockModel, margin: int) -> np.ndarray:
    """Boolean mask of the coordinates in cells with |alpha| <= N - margin."""
    return np.repeat(interior_cells(model, margin), model.coeff_dim)
