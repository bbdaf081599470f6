"""Input tuples of contraction blocks and their class membership.

A tuple holds, for each index i in {1..n}, a row of d matrices
T_{i,1}..T_{i,d} on C^dimH.  For d = 1 the single matrices t_i may u-commute
(t_i t_j = u_{ij} t_j t_i with |u_{ij}| = 1) and may additionally be covariant
for a diagonal algebra C^k acting blockwise on C^dimH with commuting
permutation automorphisms.

Class membership (the dilatable class): the tuple must have n >= 2 indices
and be a (u-)commuting, covariant row-contraction tuple, the sub-tuples
obtained by deleting index 1 and index n must both have a PSD Szego operator,
and the sub-tuple without index n must be pure (every completely positive map
X -> sum_j T_{i,j} X T_{i,j}* has spectral radius < 1).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import MalformedSpec, UnsupportedMultiplicity
from .fock import parent_rows
from .linalg import PsdReport, adj, as_matrix, frob, frob_stack, psd_check, psd_flags

PURITY_TOL = 1e-8
CONTRACTION_TOL = 1e-10


def _integral(*values) -> bool:
    return all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) for v in values)


def compose_perm(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Array of the permutation q -> a[b[q]]."""
    return [a[b[q]] for q in range(len(a))]


def invert_perm(a: Sequence[int]) -> list[int]:
    inv = [0] * len(a)
    for q, v in enumerate(a):
        inv[v] = q
    return inv


@dataclass
class AlgebraStructure:
    """Diagonal algebra C^k acting on H, with a commuting permutation per index.

    ``block_of[j]`` is the algebra component (0-based) of the j-th basis vector
    of H.  ``automorphisms[i]`` is a permutation array a with the convention
    (alpha_i(x))_q = x_{a[q]}, equivalently alpha_i(e_p) = e_{a^{-1}(p)}.
    Covariance t_i sigma(alpha_i(a)) = sigma(a) t_i then forces t_i to map the
    coordinates of block a^{-1}(p) into block p only.
    """

    k: int
    block_of: list[int]
    automorphisms: list[list[int]]

    def __post_init__(self):
        rows = [self.block_of, *self.automorphisms]
        if not _integral(self.k) or not all(isinstance(r, list) and _integral(*r) for r in rows):
            raise MalformedSpec("algebra k, block_of and automorphism entries must be integers")
        self.block_of = [int(b) for b in self.block_of]
        self.automorphisms = [[int(v) for v in a] for a in self.automorphisms]
        if self.k < 1 or any(not 0 <= b < self.k for b in self.block_of):
            raise MalformedSpec("k must be positive and block_of entries must lie in 0..k-1")
        for i, a in enumerate(self.automorphisms):
            if len(a) != self.k or sorted(a) != list(range(self.k)):
                raise MalformedSpec(f"automorphism {i} is not a permutation of 0..k-1")
        auto = np.array(self.automorphisms, dtype=int).reshape(len(self.automorphisms), self.k)
        # auto[:, auto][i, j] is a_i o a_j
        if not np.array_equal(auto[:, auto], auto[:, auto].transpose(1, 0, 2)):
            raise MalformedSpec("automorphisms must pairwise commute")


@dataclass
class TupleSpec:
    """A tuple of contraction blocks with optional phases and algebra."""

    n: int
    dimH: int
    d: int
    blocks: list[list[np.ndarray]]
    phases: np.ndarray | None = None
    algebra: AlgebraStructure | None = None

    def __post_init__(self):
        if self.n < 1 or self.dimH < 1 or self.d < 1:
            raise MalformedSpec("n, dimH and d must be positive")
        if len(self.blocks) != self.n:
            raise MalformedSpec(f"expected {self.n} block rows, got {len(self.blocks)}")
        rows = []
        for i, row in enumerate(self.blocks):
            if len(row) != self.d:
                raise MalformedSpec(f"block row {i + 1} has {len(row)} matrices, expected d={self.d}")
            mats = []
            for j, m in enumerate(row):
                m = as_matrix(m)
                if m.shape != (self.dimH, self.dimH):
                    raise MalformedSpec(
                        f"matrix ({i + 1},{j + 1}) has shape {m.shape}, expected ({self.dimH},{self.dimH})")
                mats.append(m)
            rows.append(mats)
        self.blocks = rows
        if self.phases is None:
            self.phases = np.ones((self.n, self.n), dtype=complex)
        else:
            self.phases = as_matrix(self.phases)
            if self.phases.shape != (self.n, self.n):
                raise MalformedSpec(f"phase table must be {self.n}x{self.n}")
            if self.d > 1 and frob(self.phases - np.ones((self.n, self.n))) > 1e-14:
                raise MalformedSpec("u-phases are only supported for multiplicity d = 1")
            if np.max(np.abs(np.abs(self.phases) - 1.0)) > 1e-12:
                raise MalformedSpec("phases must be unimodular")
            if np.max(np.abs(np.diag(self.phases) - 1.0)) > 1e-12:
                raise MalformedSpec("diagonal phases must equal 1")
            if frob(self.phases - adj(self.phases)) > 1e-12:
                raise MalformedSpec("phase table must satisfy u[j,i] = conj(u[i,j])")
        if self.algebra is not None:
            if self.d != 1:
                raise MalformedSpec("algebra covariance is only supported for d = 1")
            if len(self.algebra.block_of) != self.dimH:
                raise MalformedSpec("algebra.block_of must have length dimH")
            if len(self.algebra.automorphisms) != self.n:
                raise MalformedSpec("algebra needs one automorphism per tuple index")

    @classmethod
    def from_operators(cls, ops: Sequence, phases=None, algebra: AlgebraStructure | None = None) -> "TupleSpec":
        """Build a d = 1 spec from plain matrices (scalars allowed for dimH = 1)."""
        if not len(ops):
            raise MalformedSpec("a tuple needs at least one operator")
        mats = [as_matrix(np.atleast_2d(np.asarray(t, dtype=complex))) for t in ops]
        dim = mats[0].shape[0]
        return cls(n=len(mats), dimH=dim, d=1, blocks=[[m] for m in mats],
                   phases=None if phases is None else np.asarray(phases, dtype=complex),
                   algebra=algebra)

    def op(self, i: int) -> np.ndarray:
        """The single operator t_i (1-based index), for d = 1."""
        if self.d != 1:
            raise UnsupportedMultiplicity("op() requires d = 1")
        return self.blocks[i - 1][0]

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
    t = np.array(spec.blocks)  # (n, d, dimH, dimH)
    rows = t.transpose(0, 2, 1, 3).reshape(spec.n, spec.dimH, -1)  # row i is (T_{i,1} ... T_{i,d})
    report.row_norms = np.linalg.norm(rows, 2, axis=(1, 2)).tolist()
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
        blk = np.asarray(alg.block_of)
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
    x = np.tile(np.eye(spec.dimH, dtype=complex), (len(subsets), 1, 1))
    for i in range(spec.n, 0, -1):
        x = np.where(member[:, i], x - cp_apply(spec, i, x), x)
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
        ops = np.array([spec.op(i) for i in indices])
        return (np.abs(np.linalg.eigvals(ops)).max(axis=-1) ** 2).tolist()
    return [float(np.max(np.abs(np.linalg.eigvals(cp_map_matrix(spec, i))))) for i in indices]


def is_pure(spec: TupleSpec, i: int, tol: float = PURITY_TOL) -> tuple[bool, float]:
    """Purity of index i: the spectral radius of its CP map (``purity_radii``) is below one."""
    radius = purity_radii(spec, [i])[0]
    return radius < 1.0 - tol, radius


@np.errstate(over="ignore", invalid="ignore")
def class_gate(spec: TupleSpec, tol: float = 1e-10) -> tuple[ClassReport, np.ndarray, np.ndarray]:
    """The class test: ``validate``, the hat1/hatn Szego PSD checks and the
    purity radii, which are exactly the fields ``failing_conditions`` reads.

    Returns ``(report, szego_hat1, szego_hatn)``; the two Szego operators are
    formed once here, and the builder takes its defect squares from them.
    Entries so large that the products overflow raise ``NonFinite`` from the
    first PSD check, without floating-point warnings.
    """
    report = validate(spec)
    all_idx = list(range(1, spec.n + 1))
    sq_hat1, sq_hatn = szego_operators(spec, [all_idx[1:], all_idx[:-1]])
    report.szego_hat1 = psd_check(sq_hat1, tol)
    report.szego_hatn = psd_check(sq_hatn, tol)

    report.purity_radii = purity_radii(spec, all_idx)
    report.pure_flags = [radius < 1.0 - PURITY_TOL for radius in report.purity_radii]
    report.purity_indeterminate = [abs(radius - 1.0) <= PURITY_TOL for radius in report.purity_radii]
    report.hatn_pure = all(report.pure_flags[:-1]) if spec.n > 1 else True
    report.in_T1n = not report.failing_conditions()
    return report, sq_hat1, sq_hatn


def classify(spec: TupleSpec, tol: float = 1e-10) -> ClassReport:
    """Full class membership report: the class gate plus the full Szego
    operator and the GKVW table, neither of which feeds the verdict."""
    report, _, _ = class_gate(spec, tol)
    all_idx = list(range(1, spec.n + 1))
    middle = all_idx[1:-1]
    sq = szego_operators(spec, [all_idx] + [[i for i in all_idx if i != p] for p in middle])
    report.szego_full = psd_check(sq[0], tol)
    # dropping index 1 or n leaves the hat1 or hatn tuple the gate has checked
    psd_without = {1: report.szego_hat1.is_psd, spec.n: report.szego_hatn.is_psd}
    psd_without.update(zip(middle, psd_flags(sq[1:], tol).tolist()))
    report.gkvw = {(p, q): (psd_without[p], psd_without[q])
                   for p, q in itertools.combinations(all_idx, 2)}
    return report


def merge_1n(spec: TupleSpec) -> TupleSpec:
    """Fuse indices 1 and n into the (n-1)-tuple (t_1 t_n, t_2, ..., t_{n-1}).

    The merged generator sits in slot 1; moving any other generator past it
    crosses both original factors, so the merged phase toward index i is
    u(i,1)*u(i,n).  With an algebra present the merged slot carries the
    composed automorphism.
    """
    if spec.d != 1:
        raise UnsupportedMultiplicity("merge_1n requires d = 1")
    if spec.n < 2:
        raise MalformedSpec("merge_1n needs n >= 2")
    m = spec.n - 1
    ops = [spec.op(1) @ spec.op(spec.n)] + [spec.op(i) for i in range(2, spec.n)]
    phases = np.ones((m, m), dtype=complex)  # slot s > 0 holds original index s + 1
    phases[1:, 0] = [spec.u(i, 1) * spec.u(i, spec.n) for i in range(2, spec.n)]
    phases[0, 1:] = np.conj(phases[1:, 0])
    phases[1:, 1:] = spec.phases[1:m, 1:m]
    algebra = None
    if spec.algebra is not None:
        alg = spec.algebra
        merged_auto = [compose_perm(alg.automorphisms[0], alg.automorphisms[spec.n - 1])]
        merged_auto += [alg.automorphisms[i - 1] for i in range(2, spec.n)]
        algebra = AlgebraStructure(alg.k, list(alg.block_of), merged_auto)
    return TupleSpec(n=m, dimH=spec.dimH, d=1, blocks=[[t] for t in ops],
                     phases=phases, algebra=algebra)


def ordered_power_products(spec: TupleSpec, cells) -> np.ndarray:
    """Adjoint power products (T^{(alpha)})* for d = 1, one per row of ``cells``.

    T^{(alpha)} = t_1^{a_1} t_2^{a_2} ... with slot-1 powers leftmost.  Row r
    of the (rows, dimH, dimH) table is (T^{(alpha_r)})* = (T^{(alpha_r - e_s)})*
    t_s*, s the first non-zero slot, one batched product per degree; the rows
    may come in any order but must hold each alpha - e_s (``fock.parent_rows``).
    """
    if spec.d != 1:
        raise UnsupportedMultiplicity("power products require d = 1")
    cells = np.asarray(cells, dtype=int)
    slot, parent = parent_rows(cells)
    tadj = adj(np.array([row[0] for row in spec.blocks]))
    degree = cells.sum(axis=1)
    table = np.empty((len(cells), spec.dimH, spec.dimH), dtype=complex)
    table[degree == 0] = np.eye(spec.dimH)
    for k in range(1, degree.max(initial=0) + 1):
        rows = np.flatnonzero(degree == k)
        table[rows] = table[parent[rows]] @ tadj[slot[rows]]
    return table
