"""Input tuples of contraction blocks and their class membership.

A tuple holds, for each index i in {1..n}, a row of d matrices
T_{i,1}..T_{i,d} on C^dimH.  For d = 1 the single matrices t_i may u-commute
(t_i t_j = u_{ij} t_j t_i with |u_{ij}| = 1) and may additionally be covariant
for a diagonal algebra C^k acting blockwise on C^dimH with commuting
permutation automorphisms.  A tuple is its checked, read-only arrays, which
every reader indexes directly; a copy of a checked tuple stays checked.

Class membership (the dilatable class): the tuple must have n >= 2 indices
and be a (u-)commuting, covariant row-contraction tuple, the sub-tuples
obtained by deleting index 1 and index n must both have a PSD Szego operator,
and the sub-tuple without index n must be pure (every completely positive map
X -> sum_j T_{i,j} X T_{i,j}* has spectral radius < 1).
"""

from __future__ import annotations

import itertools
from copy import copy
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import MalformedSpec, NonFinite, UnsupportedMultiplicity
from .fock import FockModel, degree_blocks
from .linalg import PsdReport, adj, as_complex, as_matrix, frob, frob_stack, psd_checks

PURITY_TOL = 1e-8        # pure: cp radius < 1 - PURITY_TOL
CONTRACTION_TOL = 1e-10  # row norms <= 1 + it; structure residuals <= it * max(1, max ||T_i||^2)


def _integral(*values) -> bool:
    return all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values)


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _checked_complex(values, shape: tuple, what: str) -> np.ndarray:
    """A read-only ``as_complex`` copy of ``values``, checked for ``shape`` and finiteness."""
    arr = as_complex(values, what)
    if arr.shape != shape:
        raise MalformedSpec(f"{what} has shape {arr.shape}, expected {shape}")
    if not np.isfinite(arr).all():
        raise NonFinite(f"{what} has NaN or Inf entries")
    return _frozen(arr)


def _checked_labels(values, ndim: int, what: str) -> np.ndarray:
    """A read-only int array of ``values``: ``ndim``-deep nested integers, bools not."""
    try:
        arr = np.array(values, dtype=object)
        if arr.ndim == ndim and _integral(*arr.flat):
            return _frozen(arr.astype(int))
    except (ValueError, OverflowError):  # a ragged nesting, or an integer beyond int64
        pass
    raise MalformedSpec(f"algebra {what} must be integers")


@dataclass
class AlgebraStructure:
    """Diagonal algebra C^k acting on H, with a commuting permutation per index,
    checked on construction into read-only int arrays.

    ``block_of[j]`` (shape (dimH,)) is the algebra component (0-based) of the
    j-th basis vector of H, and row i of ``automorphisms`` (shape (n, k)) a
    permutation a with the convention
    (alpha_i(x))_q = x_{a[q]}, equivalently alpha_i(e_p) = e_{a^{-1}(p)}.
    Covariance t_i sigma(alpha_i(a)) = sigma(a) t_i then forces t_i to map the
    coordinates of block a^{-1}(p) into block p only.
    """

    k: int
    block_of: np.ndarray
    automorphisms: np.ndarray

    def __post_init__(self):
        if not _integral(self.k) or self.k < 1:
            raise MalformedSpec("algebra k must be a positive integer")
        self.block_of = _checked_labels(self.block_of, 1, "block_of entries")
        self.automorphisms = auto = _checked_labels(self.automorphisms, 2, "automorphism rows")
        if auto.shape[1] != self.k:  # before anything whose size grows with k
            raise MalformedSpec(f"automorphism rows have {auto.shape[1]} entries, not k = {self.k}")
        if np.any((self.block_of < 0) | (self.block_of >= self.k)):
            raise MalformedSpec("block_of entries must lie in 0..k-1")
        if len(bad := np.flatnonzero(np.any(np.sort(auto, axis=1) != np.arange(self.k), axis=1))):
            raise MalformedSpec(f"automorphism {bad[0]} is not a permutation of 0..k-1")
        # auto[:, auto][i, j] is a_i o a_j
        if not np.array_equal(auto[:, auto], auto[:, auto].transpose(1, 0, 2)):
            raise MalformedSpec("automorphisms must pairwise commute")


@dataclass
class TupleSpec:
    """A tuple of contraction blocks with optional phases and algebra, checked on
    construction into read-only complex arrays: ``blocks`` of shape (n, d,
    dimH, dimH), T_{i,j} = blocks[i - 1, j - 1], and the (n, n) ``phases``."""

    n: int
    dimH: int
    d: int
    blocks: np.ndarray
    phases: np.ndarray | None = None
    algebra: AlgebraStructure | None = None

    def __post_init__(self):
        if not _integral(self.n, self.dimH, self.d) or min(self.n, self.dimH, self.d) < 1:
            raise MalformedSpec("n, dimH and d must be positive integers")
        n = self.n
        self.blocks = _checked_complex(self.blocks, (n, self.d, self.dimH, self.dimH), "blocks")
        self.phases = _checked_complex(np.ones((n, n)) if self.phases is None else self.phases,
                                       (n, n), "phase table")
        if self.d > 1 and frob(self.phases - np.ones((n, n))) > 1e-14:
            raise MalformedSpec("u-phases are only supported for multiplicity d = 1")
        if np.max(np.abs(np.abs(self.phases) - 1.0)) > 1e-12:
            raise MalformedSpec("phases must be unimodular")
        if np.max(np.abs(np.diag(self.phases) - 1.0)) > 1e-12:
            raise MalformedSpec("diagonal phases must equal 1")
        if frob(self.phases - adj(self.phases)) > 1e-12:
            raise MalformedSpec("phase table must satisfy u[j,i] = conj(u[i,j])")
        if self.algebra is not None:
            if not isinstance(self.algebra, AlgebraStructure):
                raise MalformedSpec("algebra must be an AlgebraStructure")
            if self.d != 1:
                raise MalformedSpec("algebra covariance is only supported for d = 1")
            if self.algebra.block_of.shape != (self.dimH,):
                raise MalformedSpec("algebra.block_of must have length dimH")
            if len(self.algebra.automorphisms) != n:
                raise MalformedSpec("algebra needs one automorphism per tuple index")

    @classmethod
    def from_operators(cls, ops: Sequence, phases=None, algebra: AlgebraStructure | None = None) -> "TupleSpec":
        """Build a d = 1 spec from plain matrices (scalars allowed for dimH = 1): one
        ``as_complex`` conversion, so any other input is a ``MalformedSpec``."""
        ops = as_complex(ops, "operators")
        ops = ops[:, None, None] if ops.ndim == 1 else ops  # scalars
        if ops.ndim != 3 or not len(ops):
            raise MalformedSpec("need one or more operators, all scalars or all matrices")
        return cls(len(ops), ops.shape[-1], 1, ops[:, None], phases=phases, algebra=algebra)

    def op(self, i: int) -> np.ndarray:
        """The single operator t_i (1-based index), for d = 1."""
        if self.d != 1:
            raise UnsupportedMultiplicity("op() requires d = 1")
        return self.blocks[i - 1, 0]

    def u(self, i: int, j: int) -> complex:
        """Phase with t_i t_j = u(i,j) t_j t_i (1-based, all pairs)."""
        return complex(self.phases[i - 1, j - 1])


@dataclass
class ClassReport:
    """Outcome of structural validation and class membership tests."""

    n: int = 0  # number of indices; the construction fuses indices 1 and n, so needs n >= 2
    d: int = 1  # multiplicity; the construction is built for d = 1 only
    is_contraction_tuple: bool = False
    row_norms: list[float] = field(default_factory=list)
    commutation_residual: float = 0.0
    covariance_residual: Optional[float] = None
    structure_gate: float = CONTRACTION_TOL  # bound on both residuals above
    szego_full: Optional[PsdReport] = None
    szego_hat1: Optional[PsdReport] = None
    szego_hatn: Optional[PsdReport] = None
    pure_flags: list[bool] = field(default_factory=list)
    purity_radii: list[float] = field(default_factory=list)
    purity_indeterminate: list[bool] = field(default_factory=list)
    hatn_pure: bool = False
    in_T1n: bool = False
    gkvw: dict = field(default_factory=dict)

    def failing_conditions(self) -> list[str]:
        fails = []
        if self.n < 2:
            fails.append(f"n = {self.n} < 2: the construction fuses indices 1 and n; "
                         "dilate a single contraction T as the pair (T, 0)")
        if self.d != 1:
            fails.append(f"d = {self.d} > 1: the construction is built for multiplicity d = 1 only")
        if self.szego_hat1 is not None and not self.szego_hat1.is_psd:
            fails.append(f"szego_hat1 not PSD (min_eig {self.szego_hat1.min_eig:.6g})")
        if self.szego_hatn is not None and not self.szego_hatn.is_psd:
            fails.append(f"szego_hatn not PSD (min_eig {self.szego_hatn.min_eig:.6g})")
        if self.purity_radii and not self.hatn_pure:
            bad = [str(i + 1) for i, ok in enumerate(self.pure_flags[:-1]) if not ok]
            fails.append(f"hatn not pure (indices {','.join(bad)})")
        if not self.is_contraction_tuple:
            fails.append("row operators exceed norm 1")
        if self.commutation_residual > self.structure_gate:
            fails.append(f"commutation residual {self.commutation_residual:.3g} exceeds "
                         f"{self.structure_gate:.3g}")
        if self.covariance_residual is not None and self.covariance_residual > self.structure_gate:
            fails.append(f"covariance residual {self.covariance_residual:.3g} exceeds "
                         f"{self.structure_gate:.3g}")
        return fails

    def to_dict(self) -> dict:
        def psd(r):
            return None if r is None else {"is_psd": bool(r.is_psd), "min_eig": r.min_eig,
                                           "hermitian_defect": r.hermitian_defect}
        return {
            "is_contraction_tuple": bool(self.is_contraction_tuple),
            "row_norms": self.row_norms,
            "commutation_residual": self.commutation_residual,
            "covariance_residual": self.covariance_residual,
            "structure_gate": self.structure_gate,
            "szego_full": psd(self.szego_full),
            "szego_hat1": psd(self.szego_hat1),
            "szego_hatn": psd(self.szego_hatn),
            "pure_flags": [bool(f) for f in self.pure_flags],
            "purity_radii": self.purity_radii,
            "purity_indeterminate": [bool(f) for f in self.purity_indeterminate],
            "hatn_pure": bool(self.hatn_pure),
            "in_T1n": bool(self.in_T1n),
            "gkvw": {f"{p},{q}": {"c1": bool(v[0]), "c2": bool(v[1])} for (p, q), v in self.gkvw.items()},
            "failing_conditions": self.failing_conditions(),
        }


def validate(spec: TupleSpec) -> ClassReport:
    """Structural checks: row contractivity, (u-)commutation, covariance.

    The commutation and covariance residuals are gated at CONTRACTION_TOL *
    max(1, max_i ||T_i||^2), the scale of the products they compare; the
    square is a float product, which overflows to inf rather than raising.
    """
    report = ClassReport(n=spec.n, d=spec.d)
    t = spec.blocks
    rows = t.transpose(0, 2, 1, 3).reshape(spec.n, spec.dimH, -1)  # row i is (T_{i,1} ... T_{i,d})
    # the largest singular values, as np.linalg.norm(rows, 2, axis=(1, 2)) takes them
    report.row_norms = np.linalg.svd(rows, compute_uv=False)[:, 0].tolist()
    report.is_contraction_tuple = all(nrm <= 1.0 + CONTRACTION_TOL for nrm in report.row_norms)
    top = max(report.row_norms)
    report.structure_gate = CONTRACTION_TOL * max(1.0, top * top)

    # prod[i, a, j, b] = T_{i,a} T_{j,b}; compared with T_{j,b} T_{i,a} (times u_ij for d = 1)
    prod = t[:, :, None, None] @ t[None, None]
    swapped = prod.transpose(2, 3, 0, 1, 4, 5)
    if spec.d == 1:
        swapped = spec.phases[:, None, :, None, None, None] * swapped
    resid = frob_stack(prod - swapped)
    # the diagonal phases are only within 1e-12 of 1, so i == j is masked, not cancelled
    resid[range(spec.n), :, range(spec.n)] = 0.0
    report.commutation_residual = float(resid.max())

    if spec.algebra is not None:
        alg = spec.algebra
        # t_i sigma(e_{a_i^-1(p)}) - sigma(e_p) t_i has entries t_ab ([blk_b = a_i^-1(p)] - [blk_a = p])
        inv = np.argsort(alg.automorphisms, axis=1)[:, :, None, None]  # (n, k, 1, 1)
        blk = alg.block_of
        mask = (blk == inv) != (blk[:, None] == np.arange(alg.k)[:, None, None])  # (n, k, a, b)
        report.covariance_residual = float(frob_stack(np.where(mask, t[:, :1], 0.0)).max())
    return report


def cp_apply(spec: TupleSpec, i: int, x: np.ndarray) -> np.ndarray:
    """phi_i(X) = sum_j T_{i,j} X T_{i,j}*, the CP map of index i, of X or of each X in a stack."""
    return sum(t @ x @ adj(t) for t in spec.blocks[i - 1])


def szego_operators(spec: TupleSpec, subsets: Sequence[Sequence[int]]) -> np.ndarray:
    """The Szego operators of ``subsets``, one ``szego_operator`` per row of a
    (len(subsets), dimH, dimH) stack, from one recursion over i = n..1 that
    keeps (id - phi_i)(X) on the rows whose subset holds i."""
    member = np.zeros((len(subsets), spec.n + 1, 1, 1), dtype=bool)
    for r, S in enumerate(subsets):
        member[r, list(S)] = True
    t, t_adj = spec.blocks, adj(spec.blocks)  # the adjoints formed once
    x = np.tile(np.eye(spec.dimH, dtype=complex), (len(subsets), 1, 1))
    for i in range(spec.n - 1, -1, -1):  # phi_{i+1}(X) as cp_apply sums it
        phi = t[i, 0] @ x @ t_adj[i, 0]
        for j in range(1, spec.d):
            phi += t[i, j] @ x @ t_adj[i, j]
        x = np.where(member[:, i + 1], x - phi, x)
    return x


def szego_operator(spec: TupleSpec, S: Sequence[int]) -> np.ndarray:
    """Szego operator sum_{G subset S} (-1)^|G| T_G T_G* (G ascending), as the
    nested (id - phi_{s_1}) o ... o (id - phi_{s_r})(I) over s_1 < ... < s_r;
    it expands to exactly that ordered sum for any tuple, commuting or not."""
    return szego_operators(spec, [S])[0]


def cp_map_matrix(spec: TupleSpec, i: int) -> np.ndarray:
    """Matrix of X -> sum_j T_{i,j} X T_{i,j}* on column-stacked X."""
    phi = np.zeros((spec.dimH ** 2, spec.dimH ** 2), dtype=complex)
    for t in spec.blocks[i - 1]:
        phi += np.kron(t.conj(), t)
    return phi


def purity_radii(spec: TupleSpec, indices: Sequence[int]) -> list[float]:
    """Spectral radii of the completely positive maps of ``indices`` (1-based).

    In finite dimension the powers of the CP map applied to the identity tend
    to zero exactly when the spectral radius is below one, which is the
    weak-operator purity condition.  For d = 1 the map is X -> t X t*, whose
    spectrum is {lambda conj(mu)} over the eigenvalues of t, so the radius is
    r(t)^2, from one batched dimH x dimH eig instead of dimH^2 x dimH^2 ones.
    """
    if spec.d == 1:
        ops = spec.blocks[np.subtract(indices, 1), 0]
        return (np.abs(np.linalg.eigvals(ops)).max(axis=-1) ** 2).tolist()
    return [float(np.max(np.abs(np.linalg.eigvals(cp_map_matrix(spec, i))))) for i in indices]


def is_pure(spec: TupleSpec, i: int) -> tuple[bool, float]:
    """Purity of index i: its CP map's spectral radius is below 1 - PURITY_TOL."""
    radius = purity_radii(spec, [i])[0]
    return radius < 1.0 - PURITY_TOL, radius


@np.errstate(over="ignore", invalid="ignore")
def class_gate(spec: TupleSpec, subsets: list) -> tuple[ClassReport, np.ndarray]:
    """The class test: ``validate``, the hat1/hatn Szego PSD checks (one
    ``psd_checks`` call) and the purity radii, which are exactly the fields
    ``failing_conditions`` reads.

    Returns ``(report, sq)``, ``sq`` the Szego operators of hat1, hatn and
    then of ``subsets``, all from one ``szego_operators`` recursion, which
    ``classify`` and the builder read.  Entries so large that the products
    overflow raise ``NonFinite`` from the PSD check, without floating-point
    warnings.
    """
    report = validate(spec)
    all_idx = list(range(1, spec.n + 1))
    sq = szego_operators(spec, [all_idx[1:], all_idx[:-1]] + subsets)
    report.szego_hat1, report.szego_hatn = psd_checks(sq[:2])

    report.purity_radii = purity_radii(spec, all_idx)
    report.pure_flags = [radius < 1.0 - PURITY_TOL for radius in report.purity_radii]
    report.purity_indeterminate = [abs(radius - 1.0) <= PURITY_TOL for radius in report.purity_radii]
    report.hatn_pure = all(report.pure_flags[:-1]) if spec.n > 1 else True
    report.in_T1n = not report.failing_conditions()
    return report, sq


def classify(spec: TupleSpec) -> ClassReport:
    """Full class membership report: the class gate plus the full Szego
    operator and the GKVW table, neither of which feeds the verdict; the gate
    and these read one Szego recursion."""
    all_idx = list(range(1, spec.n + 1))
    middle = all_idx[1:-1]
    report, sq = class_gate(spec, [all_idx] + [[i for i in all_idx if i != p] for p in middle])
    report.szego_full, *without = psd_checks(sq[2:])
    # dropping index 1 or n leaves the hat1 or hatn tuple the gate has checked
    psd_without = {1: report.szego_hat1.is_psd, spec.n: report.szego_hatn.is_psd}
    psd_without.update((p, r.is_psd) for p, r in zip(middle, without))
    report.gkvw = {(p, q): (psd_without[p], psd_without[q])
                   for p, q in itertools.combinations(all_idx, 2)}
    return report


def merge_1n(spec: TupleSpec) -> TupleSpec:
    """Fuse indices 1 and n into the (n-1)-tuple (t_1 t_n, t_2, ..., t_{n-1}).

    The merged generator sits in slot 1; moving any other generator past it
    crosses both original factors, so the merged phase toward index i is
    u(i,1)*u(i,n), each part divided by the product's modulus, in which the
    two factors' modulus errors add up (an exactly unimodular product stays
    as it is, bit for bit).  With an algebra present the merged slot carries
    the composed automorphism a_1[a_n].  The merge checks only what it
    creates (t_1 t_n finite): it is a copy of ``spec``, whose fields were
    checked and are read-only, and its new arrays are read-only too.
    """
    if spec.d != 1:
        raise UnsupportedMultiplicity("merge_1n requires d = 1")
    if spec.n < 2:
        raise MalformedSpec("merge_1n needs n >= 2")
    m = spec.n - 1
    u = spec.phases.tolist()
    prods = [u[s][0] * u[s][m] for s in range(1, m)]  # slot s > 0 holds original index s + 1
    phases = np.ones((m, m), dtype=complex)
    phases[1:, 0] = [complex(p.real / abs(p), p.imag / abs(p)) for p in prods]
    phases[0, 1:] = np.conj(phases[1:, 0])
    phases[1:, 1:] = spec.phases[1:m, 1:m]
    merged = copy(spec)  # keeps the checked, read-only fields and runs no __post_init__
    merged.n, merged.phases = m, _frozen(phases)
    merged.blocks = _frozen(np.concatenate([as_matrix(spec.op(1) @ spec.op(m + 1))[None, None],
                                            spec.blocks[1:m]]))
    if spec.algebra is not None:
        autos, merged.algebra = spec.algebra.automorphisms, copy(spec.algebra)
        merged.algebra.automorphisms = _frozen(np.concatenate([autos[0][autos[m]][None], autos[1:m]]))
    return merged


def ordered_power_products(spec: TupleSpec, fock: FockModel) -> np.ndarray:
    """Adjoint power products (T^{(alpha)})* for d = 1, one per cell of ``fock``.

    T^{(alpha)} = t_1^{a_1} t_2^{a_2} ... with slot-1 powers leftmost.  Row r
    of the (rows, dimH, dimH) table is (T^{(alpha_r)})* = (T^{(alpha_r - e_s)})*
    t_s*, s the first non-zero slot: the cell tree's parent link, one batched
    product per degree block of rows.
    """
    if spec.d != 1:
        raise UnsupportedMultiplicity("power products require d = 1")
    tadj = adj(spec.blocks[:, 0])
    table = np.empty((fock.cell_count, spec.dimH, spec.dimH), dtype=complex)
    table[0] = np.eye(spec.dimH)
    for rows in degree_blocks(fock.m, fock.N):
        table[rows] = table[fock.parent[rows]] @ tadj[fock.slot[rows]]
    return table
