"""End-to-end construction of the isometric dilation for d = 1 tuples.

Pipeline: defect operators for the two deleted-index sub-tuples and the merged
tuple, the norm-preserving coupling V0 between the two defect frames, finite
auxiliary padding, the extended unitary U, the block unitaries U1/Un, their
transfer-operator realizations on the truncated Fock model, and the dilation
map Pi with exact truncation-tail accounting.  Szego operators and tails are
recursions in the CP maps phi_s(X) = t_s X t_s*, not subset or box sums.

Coordinates: defect spaces are represented by orthonormal column bases inside
H, and the coupling spaces are coordinate direct sums

    D     = Dn (+) (E1 x D1) (+) aux1        (dimension dD)
    Udom  = D1 (+) (En x Dn) (+) aux2        (U maps Udom -> D)
    D'    = Dn (+) aux1

For d = 1 every tensor factor E_i (x) W is canonically W; only the algebra
action (twisted by the automorphism) and the u-phases remember the factor.
Phase conventions are spelled out where they enter; each one is pinned by the
requirement that the dilation identities hold exactly on interior cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (DimensionMismatch, IdentityResidualExceeded, InfeasibleFinitePadding,
                     NotInClass, UnsupportedMultiplicity)
from .fock import FockModel, FockOperator, creation_matrix, enumerate_indices
from .linalg import (SubspaceBasis, adj, direct_sum, eye, frob, isometry_from_frames,
                     orthogonal_complement, psd_sqrt, range_basis, rel_residual)
from .tuples import (AlgebraStructure, TupleSpec, classify, compose_perm, cp_apply,
                     invert_perm, is_pure, merge_1n, ordered_power_products, szego_operator)


@dataclass
class BuildConfig:
    psd_tol: float = 1e-10
    rank_tol: float = 1e-10
    gram_tol: float = 1e-8
    unitary_gate: float = 1e-12
    identity_gate: float = 1e-10
    aux_pad: int = 0
    max_pad: int = 64
    completion_seed: Optional[int] = None
    check_identities: bool = True


@dataclass
class DefectData:
    square: np.ndarray
    root: np.ndarray
    space: SubspaceBasis
    labels: np.ndarray  # algebra component of each basis column


@dataclass
class SumSpace:
    """Coordinate direct sum with named parts and per-coordinate algebra labels."""

    parts: list[tuple[str, int]]
    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=int)
        if self.labels.shape != (self.dim,):
            raise DimensionMismatch("labels must cover every coordinate")

    @property
    def dim(self) -> int:
        return sum(d for _, d in self.parts)

    def offset(self, name: str) -> int:
        off = 0
        for nm, d in self.parts:
            if nm == name:
                return off
            off += d
        raise KeyError(name)

    def part_dim(self, name: str) -> int:
        return dict(self.parts)[name]

    def embed(self, *names: str) -> np.ndarray:
        """Isometric inclusion of the named parts (in the given order)."""
        cols = sum(self.part_dim(nm) for nm in names)
        out = np.zeros((self.dim, cols), dtype=complex)
        c = 0
        for nm in names:
            off, d = self.offset(nm), self.part_dim(nm)
            out[off:off + d, c:c + d] = np.eye(d)
            c += d
        return out

    def select(self, *names: str) -> np.ndarray:
        return adj(self.embed(*names))


@dataclass
class CouplingData:
    V0: np.ndarray
    D1: SubspaceBasis
    D2: SubspaceBasis
    M1: SubspaceBasis
    M2: SubspaceBasis
    amb1_labels: np.ndarray
    amb2_labels: np.ndarray
    M1_labels: np.ndarray
    M2_labels: np.ndarray
    aux1_dim: int = 0
    aux2_dim: int = 0
    aux1_labels: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    aux2_labels: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=int))
    mult1: Optional[np.ndarray] = None
    mult2: Optional[np.ndarray] = None
    u1: Optional[np.ndarray] = None
    u2: Optional[np.ndarray] = None
    U: Optional[np.ndarray] = None
    V: Optional[np.ndarray] = None
    Dspace: Optional[SumSpace] = None
    Udom: Optional[SumSpace] = None
    Dprime: Optional[SumSpace] = None


@dataclass
class TransferData:
    U1: np.ndarray
    Un: np.ndarray
    blocks: dict
    residuals: dict


@dataclass
class DilationModel:
    spec: TupleSpec
    merged: TupleSpec
    fock: FockModel
    N: int
    defects: dict
    coupling: CouplingData
    transfer: TransferData
    Pi: np.ndarray
    isometries: list
    tails: np.ndarray
    equality_residual: float = 0.0

    def coordinate_labels(self) -> Optional[np.ndarray]:
        """Algebra label of each model coordinate, shape (cells, dim D); rho(e_p)
        on the truncated model is the diagonal indicator of label p."""
        if self.spec.algebra is None:
            return None
        alg, out = self.merged.algebra, []
        for alpha in self.fock.index_list:
            g = list(range(alg.k))
            for s, count in enumerate(alpha):
                for _ in range(count):
                    g = compose_perm(alg.automorphisms[s], g)
            out.append(np.asarray(g)[self.coupling.Dspace.labels])
        return np.asarray(out, dtype=int)


def effective_algebra(spec: TupleSpec) -> AlgebraStructure:
    """The declared algebra, or the trivial one-component algebra."""
    if spec.algebra is not None:
        return spec.algebra
    return AlgebraStructure(1, [0] * spec.dimH, [[0]] * spec.n)


def labeled_range_basis(mat: np.ndarray, block_of, k: int,
                        rank_tol: float) -> tuple[SubspaceBasis, np.ndarray]:
    """Range basis of a block-diagonal operator, columns grouped by component."""
    dim = mat.shape[0]
    blocks = np.asarray(block_of, dtype=int)
    cols, labels = [], []
    for p in range(k):
        rows = np.flatnonzero(blocks == p)
        if rows.size == 0:
            continue
        sub = range_basis(mat[np.ix_(rows, rows)], rank_tol)
        emb = np.zeros((dim, sub.dim), dtype=complex)
        emb[rows, :] = sub.basis
        cols.append(emb)
        labels.extend([p] * sub.dim)
    basis = np.hstack(cols) if cols else np.zeros((dim, 0), dtype=complex)
    return SubspaceBasis(dim, basis), np.asarray(labels, dtype=int)


def _labeled_span_and_complement(frame: np.ndarray, row_labels: np.ndarray,
                                 col_blocks: np.ndarray, k: int, rank_tol: float):
    """Per-component span of frame columns and its in-component complement."""
    dim = frame.shape[0]
    sp_cols, sp_labels, cmp_cols, cmp_labels = [], [], [], []
    for p in range(k):
        rows = np.flatnonzero(row_labels == p)
        hcols = np.flatnonzero(col_blocks == p)
        if rows.size == 0:
            continue
        sub = range_basis(frame[np.ix_(rows, hcols)], rank_tol) if hcols.size else \
            SubspaceBasis(rows.size, np.zeros((rows.size, 0)))
        comp = orthogonal_complement(sub)
        for source, sink, lab in ((sub, sp_cols, sp_labels), (comp, cmp_cols, cmp_labels)):
            emb = np.zeros((dim, source.dim), dtype=complex)
            emb[rows, :] = source.basis
            sink.append(emb)
            lab.extend([p] * source.dim)
    span = np.hstack(sp_cols) if sp_cols else np.zeros((dim, 0), dtype=complex)
    comp = np.hstack(cmp_cols) if cmp_cols else np.zeros((dim, 0), dtype=complex)
    return (SubspaceBasis(dim, span), np.asarray(sp_labels, dtype=int),
            SubspaceBasis(dim, comp), np.asarray(cmp_labels, dtype=int))


def build_defects(spec: TupleSpec, config: BuildConfig = BuildConfig()):
    """Defect data for hat1 (drop index 1), hatn (drop index n) and the merged tuple.

    Returns ``(defects, merged, report, equality_residual)`` where the residual
    measures the two displayed factorizations of the merged defect square.
    """
    if spec.d != 1:
        raise UnsupportedMultiplicity("the dilation construction requires d = 1")
    report = classify(spec, config.psd_tol)
    if not report.in_T1n:
        raise NotInClass("; ".join(report.failing_conditions()) or "not in the dilatable class")
    merged = merge_1n(spec)
    alg = effective_algebra(spec)

    sq_hat1 = szego_operator(spec, range(2, spec.n + 1))
    sq_hatn = szego_operator(spec, range(1, spec.n))
    sq_hat1n = szego_operator(merged, range(1, merged.n + 1))

    defects = {}
    for name, sq in (("hat1", sq_hat1), ("hatn", sq_hatn), ("hat1n", sq_hat1n)):
        root = psd_sqrt(sq, config.psd_tol)
        space, labels = labeled_range_basis(root, alg.block_of, alg.k, config.rank_tol)
        defects[name] = DefectData(sq, root, space, labels)

    t1, tn = spec.op(1), spec.op(spec.n)
    resid = max(
        rel_residual(sq_hat1n - (sq_hatn + t1 @ sq_hat1 @ adj(t1)), sq_hat1n),
        rel_residual(sq_hat1n - (sq_hat1 + tn @ sq_hatn @ adj(tn)), sq_hat1n),
    )
    return defects, merged, report, resid


def defect_frames(spec: TupleSpec, defects: dict) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate frames X_h, Y_h over the standard basis of H.

    X_h = D_hatn h (+) D_hat1 t1* h  lives in Dn (+) (E1 x D1);
    Y_h = D_hat1 h (+) D_hatn tn* h  lives in D1 (+) (En x Dn).
    """
    qn, q1 = defects["hatn"].space.basis, defects["hat1"].space.basis
    dn, d1 = defects["hatn"].root, defects["hat1"].root
    t1, tn = spec.op(1), spec.op(spec.n)
    x = np.vstack([adj(qn) @ dn, adj(q1) @ d1 @ adj(t1)])
    y = np.vstack([adj(q1) @ d1, adj(qn) @ dn @ adj(tn)])
    return x, y


def build_V0(spec: TupleSpec, defects: dict, config: BuildConfig = BuildConfig()) -> CouplingData:
    """Partial isometry V0: D1-span -> D2-span and the complement geometry."""
    alg = effective_algebra(spec)
    a1 = alg.automorphisms[0]
    an = alg.automorphisms[spec.n - 1]
    lab_qn, lab_q1 = defects["hatn"].labels, defects["hat1"].labels
    # a twisted summand E_i (x) W carries component a_i(label) on W's columns
    amb1 = np.concatenate([lab_qn, np.asarray([a1[b] for b in lab_q1], dtype=int)])
    amb2 = np.concatenate([lab_q1, np.asarray([an[b] for b in lab_qn], dtype=int)])

    x, y = defect_frames(spec, defects)
    v0 = isometry_from_frames(x, y, config.gram_tol, config.rank_tol)
    blocks = np.asarray(alg.block_of, dtype=int)
    d1, _, m1, m1lab = _labeled_span_and_complement(x, amb1, blocks, alg.k, config.rank_tol)
    d2, _, m2, m2lab = _labeled_span_and_complement(y, amb2, blocks, alg.k, config.rank_tol)
    return CouplingData(V0=v0, D1=d1, D2=d2, M1=m1, M2=m2,
                        amb1_labels=amb1, amb2_labels=amb2,
                        M1_labels=m1lab, M2_labels=m2lab)


def solve_aux(spec: TupleSpec, coupling: CouplingData,
              config: BuildConfig = BuildConfig()) -> tuple[int, int]:
    """Finite auxiliary padding dimensions (and multiplicities when equivariant).

    Solves for component multiplicity vectors mult1 (aux1) and mult2 (aux2)
    subject to: mult2 = mult1 o an^{-1} (existence of u2), mult1 = mult2 o
    a1^{-1} (existence of u1), and componentwise dim(M2) + mult2 = dim(M1) +
    mult1 (blockwise unitary completion).  The scalar case reduces to
    dim(M1) = dim(M2) and padding (pad, pad).
    """
    alg = effective_algebra(spec)
    k = alg.k
    a1, an = alg.automorphisms[0], alg.automorphisms[spec.n - 1]
    inv_a1, inv_an = invert_perm(a1), invert_perm(an)
    mm1 = np.asarray([np.sum(coupling.M1_labels == p) for p in range(k)], dtype=int)
    mm2 = np.asarray([np.sum(coupling.M2_labels == p) for p in range(k)], dtype=int)
    delta = mm1 - mm2

    # difference constraints: m1[inv_an[p]] - m1[p] = delta[p]; m1 constant on
    # orbits of the composed twist (u1 compatibility)
    edges: list[tuple[int, int, int]] = []
    for p in range(k):
        edges.append((p, inv_an[p], int(delta[p])))
        edges.append((p, inv_an[inv_a1[p]], 0))
    adjacency = {}
    for (p, q, w) in edges:
        adjacency.setdefault(p, []).append((q, w))
        adjacency.setdefault(q, []).append((p, -w))
    pot = [None] * k
    comp_of = [None] * k
    for start in range(k):
        if pot[start] is not None:
            continue
        pot[start] = 0
        comp_of[start] = start
        stack = [start]
        while stack:
            p = stack.pop()
            for q, w in adjacency.get(p, []):
                val = pot[p] + w
                if pot[q] is None:
                    pot[q] = val
                    comp_of[q] = start
                    stack.append(q)
                elif pot[q] != val:
                    raise InfeasibleFinitePadding(
                        f"multiplicity constraints are inconsistent at component {q}"
                        f" ({pot[q]} vs {val}); no finite padding exists")
    mult1 = np.zeros(k, dtype=int)
    for root in set(comp_of):
        members = [p for p in range(k) if comp_of[p] == root]
        base = min(pot[p] for p in members)
        for p in members:
            mult1[p] = pot[p] - base + config.aux_pad
    if int(mult1.max(initial=0)) > config.max_pad:
        raise InfeasibleFinitePadding(
            f"minimal padding {int(mult1.max())} exceeds max_pad {config.max_pad}")
    mult2 = np.asarray([mult1[inv_an[p]] for p in range(k)], dtype=int)
    if not np.array_equal(mm2 + mult2, mm1 + mult1):
        raise InfeasibleFinitePadding("componentwise matching failed after solve")
    if not all(mult1[p] == mult2[inv_a1[p]] for p in range(k)):
        raise InfeasibleFinitePadding("u1 twist compatibility failed after solve")

    coupling.mult1, coupling.mult2 = mult1, mult2
    coupling.aux1_dim, coupling.aux2_dim = int(mult1.sum()), int(mult2.sum())
    coupling.aux1_labels = np.asarray([p for p in range(k) for _ in range(mult1[p])], dtype=int)
    coupling.aux2_labels = np.asarray([p for p in range(k) for _ in range(mult2[p])], dtype=int)
    coupling.u2 = _pairing_unitary(coupling.aux1_labels, coupling.aux2_labels, inv_an)
    coupling.u1 = _pairing_unitary(coupling.aux1_labels, coupling.aux2_labels, inv_a1)
    return coupling.aux1_dim, coupling.aux2_dim


def _pairing_unitary(labels1: np.ndarray, labels2: np.ndarray, twist_inv) -> np.ndarray:
    """Unitary aux2 -> aux1 pairing the label-p block of aux2 with block twist_inv[p] of aux1."""
    u = np.zeros((labels1.size, labels2.size), dtype=complex)
    for p in sorted(set(labels2.tolist())):
        src = np.flatnonzero(labels2 == p)
        dst = np.flatnonzero(labels1 == twist_inv[p])
        if src.size != dst.size:
            raise InfeasibleFinitePadding("auxiliary block sizes do not match the twist")
        for a, b in zip(dst, src):
            u[a, b] = 1.0
    return u


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def build_U(spec: TupleSpec, defects: dict, coupling: CouplingData,
            config: BuildConfig = BuildConfig()) -> CouplingData:
    """Extend V0^{-1} to the unitary U and assemble the isometry V."""
    alg = effective_algebra(spec)
    rn = defects["hatn"].space.dim
    r1 = defects["hat1"].space.dim
    e1, e2 = coupling.aux1_dim, coupling.aux2_dim
    dD, dUdom = rn + r1 + e1, r1 + rn + e2
    if dD != dUdom:
        raise DimensionMismatch("total padded dimensions disagree (internal error)")

    w = np.zeros((dD, dUdom), dtype=complex)
    w[:rn + r1, :r1 + rn] = adj(coupling.V0)

    dom_basis = np.vstack([coupling.M2.basis, np.zeros((e2, coupling.M2.dim))])
    dom_basis = np.hstack([dom_basis, np.vstack([np.zeros((r1 + rn, e2)), np.eye(e2)])])
    dom_labels = np.concatenate([coupling.M2_labels, coupling.aux2_labels])
    cod_basis = np.vstack([coupling.M1.basis, np.zeros((e1, coupling.M1.dim))])
    cod_basis = np.hstack([cod_basis, np.vstack([np.zeros((rn + r1, e1)), np.eye(e1)])])
    cod_labels = np.concatenate([coupling.M1_labels, coupling.aux1_labels])

    u = np.array(w)
    rng = None if config.completion_seed is None else np.random.default_rng(config.completion_seed)
    for p in range(alg.k):
        dom_p = dom_basis[:, np.flatnonzero(dom_labels == p)]
        cod_p = cod_basis[:, np.flatnonzero(cod_labels == p)]
        if dom_p.shape[1] != cod_p.shape[1]:
            raise DimensionMismatch(
                f"component {p} complements differ: {dom_p.shape[1]} vs {cod_p.shape[1]}")
        if rng is not None and dom_p.shape[1] > 0:
            dom_p = dom_p @ _haar_unitary(dom_p.shape[1], rng)
        u += cod_p @ adj(dom_p)

    resid = frob(adj(u) @ u - eye(dD))
    if config.check_identities and resid > config.unitary_gate * max(1.0, dD):
        raise IdentityResidualExceeded("U_unitarity", resid, config.unitary_gate)

    q1n = defects["hat1n"].space.basis
    src = adj(q1n) @ defects["hat1n"].root
    x, _ = defect_frames(spec, defects)
    dst = np.vstack([x, np.zeros((e1, spec.dimH))])
    v = isometry_from_frames(src, dst, config.gram_tol, config.rank_tol)

    coupling.U = u
    coupling.V = v
    coupling.Dspace = SumSpace([("Dn", rn), ("E1xD1", r1), ("aux1", e1)],
                               np.concatenate([coupling.amb1_labels, coupling.aux1_labels]))
    coupling.Udom = SumSpace([("D1", r1), ("EnxDn", rn), ("aux2", e2)],
                             np.concatenate([coupling.amb2_labels, coupling.aux2_labels]))
    coupling.Dprime = SumSpace([("Dn", rn), ("aux1", e1)],
                               np.concatenate([defects["hatn"].labels, coupling.aux1_labels]))
    return coupling


def _gate(residuals: dict, name: str, value: float, gate: float, enabled: bool):
    residuals[name] = value
    if enabled and value > gate:
        raise IdentityResidualExceeded(name, value, gate)


def build_transfer(spec: TupleSpec, defects: dict, coupling: CouplingData,
                   config: BuildConfig = BuildConfig()) -> TransferData:
    """Block unitaries U1 and Un with their blocks, plus self-checks.

    U1 = [[(I1 x U) P1, (I1 x U) j2'], [i2*, 0]] on D (+) (E_merged x D') and
    Un = [[(I (+) u2) P2 U*, i1'], [i1* U*, 0]] on D (+) (E_merged x D1).
    The inclusion i1' carries the flip phase u(1,n) that re-expresses merged
    coordinates (E1 tensor En order) inside En x E1 x D1; it cancels against
    the conjugate flip used when feeding merged-order inputs.
    """
    ds, ud, dp = coupling.Dspace, coupling.Udom, coupling.Dprime
    u_mat = coupling.U
    rn, r1 = ds.part_dim("Dn"), ds.part_dim("E1xD1")
    e1, e2 = ds.part_dim("aux1"), ud.part_dim("aux2")
    dD = ds.dim

    p1 = ds.select("E1xD1")
    i2 = ds.embed("Dn", "aux1")
    i1 = ud.embed("D1")
    p2 = ud.select("EnxDn", "aux2")
    i2p = ud.embed("EnxDn", "aux2")
    j2p = i2p @ direct_sum(np.eye(rn), adj(coupling.u2))
    lam = spec.u(1, spec.n)
    i1p = lam * ds.embed("E1xD1")

    a1 = u_mat @ i1 @ p1
    b1 = u_mat @ j2p
    c1 = adj(i2)
    u1 = np.block([[a1, b1], [c1, np.zeros((rn + e1, rn + e1), dtype=complex)]])

    an = i2 @ direct_sum(np.eye(rn), coupling.u2) @ p2 @ adj(u_mat)
    bn = i1p
    cn = adj(i1) @ adj(u_mat)
    un = np.block([[an, bn], [cn, np.zeros((r1, r1), dtype=complex)]])

    residuals: dict = {}
    chk = config.check_identities
    _gate(residuals, "U1_unitarity", frob(adj(u1) @ u1 - eye(u1.shape[0])),
          config.unitary_gate * max(1.0, u1.shape[0]), chk)
    _gate(residuals, "Un_unitarity", frob(adj(un) @ un - eye(un.shape[0])),
          config.unitary_gate * max(1.0, un.shape[0]), chk)
    for tag, (a, b, c) in (("U1", (a1, b1, c1)), ("Un", (an, bn, cn))):
        _gate(residuals, f"{tag}_ACstar", frob(a @ adj(c)), config.unitary_gate * dD, chk)
        _gate(residuals, f"{tag}_CCstar", frob(c @ adj(c) - eye(c.shape[0])),
              config.unitary_gate * dD, chk)
        _gate(residuals, f"{tag}_rows", frob(a @ adj(a) + b @ adj(b) - eye(dD)),
              config.unitary_gate * dD, chk)

    qn, q1 = defects["hatn"].space.basis, defects["hat1"].space.basis
    dn_root, d1_root = defects["hatn"].root, defects["hat1"].root
    t1, tn = spec.op(1), spec.op(spec.n)
    vs = coupling.V @ (adj(defects["hat1n"].space.basis) @ defects["hat1n"].root)

    # defining frame equation of U, Eq-level check on a basis of E1 (x) H
    f_in = np.vstack([adj(q1) @ d1_root, adj(qn) @ dn_root @ adj(tn), np.zeros((e2, spec.dimH))])
    f_out = np.vstack([adj(qn) @ dn_root, adj(q1) @ d1_root @ adj(t1), np.zeros((e1, spec.dimH))])
    _gate(residuals, "frame_eq_f", rel_residual(u_mat @ f_in - f_out, f_out),
          config.identity_gate, chk)

    lemma_in = np.vstack([vs, adj(qn) @ dn_root @ adj(tn) @ adj(t1),
                          np.zeros((e1, spec.dimH))])
    lemma_out = np.vstack([vs @ adj(t1), adj(qn) @ dn_root, np.zeros((e1, spec.dimH))])
    _gate(residuals, "lemma_U1", rel_residual(u1 @ lemma_in - lemma_out, lemma_out),
          config.identity_gate, chk)

    mu = spec.u(spec.n, 1)  # flip into merged (E1 before En) coordinate order
    abn_in = np.vstack([vs, mu * (adj(q1) @ d1_root @ adj(t1) @ adj(tn))])
    abn_out = np.vstack([vs @ adj(tn), adj(q1) @ d1_root])
    _gate(residuals, "eq_ABn", rel_residual(un @ abn_in - abn_out, abn_out),
          config.identity_gate, chk)
    _gate(residuals, "eq_Cn", rel_residual(cn @ vs - adj(q1) @ d1_root, adj(q1) @ d1_root),
          config.identity_gate, chk)

    return TransferData(U1=u1, Un=un,
                        blocks={"A1": a1, "B1": b1, "C1": c1, "An": an, "Bn": bn, "Cn": cn},
                        residuals=residuals)


def _original_phase_diagonal(spec: TupleSpec, fock: FockModel, i: int) -> np.ndarray:
    """kappa_i(alpha): phase moving a front E_i factor across the cell monomial.

    Crossing one merged factor costs u(i,1)*u(i,n) for middle generators; for
    i = 1 it costs u(1,n) (the E1 crossing is trivial), symmetrically for n.
    """
    n = spec.n
    if i == 1:
        merged_cost = spec.u(1, n)
    elif i == n:
        merged_cost = spec.u(n, 1)
    else:
        merged_cost = spec.u(i, 1) * spec.u(i, n)
    costs = [merged_cost] + [spec.u(i, j) for j in range(2, n)]
    vals = np.asarray([np.prod([costs[s] ** a[s] for s in range(fock.m)])
                       for a in fock.index_list], dtype=complex)
    return vals


def transfer_tau(spec: TupleSpec, transfer: TransferData, coupling: CouplingData,
                 fock: FockModel, which: int) -> FockOperator:
    """The transfer operator on the truncated model, read off U1 or Un and U.

    Realizes I_F (x) (A* + [I (x) C*] B*) with the domain identified through
    front insertion of the acting factor, so that the dilation identities hold
    as plain matrix equations on interior cells.
    """
    d = fock.coeff_dim
    if d != coupling.Dspace.dim:
        raise DimensionMismatch("Fock coefficient dimension must equal dim D")
    if which == 1:
        a = transfer.U1[:d, :d]
        shift_block = coupling.Dspace.embed("Dn", "aux1") @ adj(transfer.U1[:d, d:])
    elif which == spec.n:
        a = transfer.Un[:d, :d]
        mu = spec.u(spec.n, 1)
        shift_block = mu * (coupling.U @ coupling.Udom.embed("D1")) @ coupling.Dspace.select("E1xD1")
    else:
        raise DimensionMismatch("transfer operators exist for the first and last index only")
    back = [fock.phase_back(0, alpha) for alpha in fock.index_list]
    return FockOperator(fock, adj(a), shift_block, 0, back,
                        _original_phase_diagonal(spec, fock, which))


def dilated_isometries(spec: TupleSpec, transfer: TransferData, coupling: CouplingData,
                       fock: FockModel) -> list:
    """The dilated tuple (tau1, L_2, ..., L_{n-1}, taun) on the truncated model."""
    middles = [creation_matrix(fock, i - 1) for i in range(2, spec.n)]
    return ([transfer_tau(spec, transfer, coupling, fock, 1)] + middles
            + [transfer_tau(spec, transfer, coupling, fock, spec.n)])


def build_Pi(merged: TupleSpec, defects: dict, coupling: CouplingData,
             fock: FockModel) -> tuple[np.ndarray, np.ndarray]:
    """Dilation map Pi: H -> F_N(E) (x) D and its exact per-basis-vector tail."""
    memo = ordered_power_products(merged, fock.index_list)
    vdhat = coupling.V @ (adj(defects["hat1n"].space.basis) @ defects["hat1n"].root)
    rows = [vdhat @ memo[alpha] for alpha in fock.index_list]
    tails = truncation_tails(merged, defects["hat1n"].root, fock.N)
    return np.vstack(rows), tails


def truncation_tails(merged: TupleSpec, dhat_root: np.ndarray, N: int) -> np.ndarray:
    """Per-basis-vector tail ||h||^2 - sum_{|alpha|<=N} ||Dhat T*^(alpha) h||^2.

    Computed without the assembled model as tele + diag(box - simplex) from
    the CP maps phi_s(X) = t_s X t_s*, O(mN) applications in all:
    tele = 1 - diag((id - phi_1^{N+1}) o ... o (id - phi_m^{N+1})(I)) equals
    the box partial sum box = S_1 o ... o S_m(Dhat* Dhat), S_s = sum_{j<=N}
    phi_s^j, when the maps commute; simplex = sum_k A_k(1) by the recursion
    A_k(s) = A_k(s+1) + phi_s(A_{k-1}(s)) with A_0 = Dhat* Dhat.
    """
    x = np.eye(merged.dimH, dtype=complex)
    square = adj(dhat_root) @ dhat_root
    box, layer = square, [square] + [np.zeros_like(square)] * N  # layer[k] = A_k(s)
    for s in range(merged.n, 0, -1):
        power = np.linalg.matrix_power(merged.op(s), N + 1)
        x = x - power @ x @ adj(power)
        acc = box
        for _ in range(N):  # Horner: S_s(box)
            acc = box + cp_apply(merged, s, acc)
        box = acc
        for k in range(1, N + 1):
            layer[k] = layer[k] + cp_apply(merged, s, layer[k - 1])
    return 1.0 - np.real(np.diag(x)) + np.real(np.diag(box - sum(layer)))


def simplex_mass(merged: TupleSpec, dhat_root: np.ndarray, N: int) -> np.ndarray:
    """Per-basis-vector sum of ||Dhat T*^(alpha) h||^2 over |alpha| <= N."""
    cells = enumerate_indices(merged.n, N)
    memo = ordered_power_products(merged, cells)
    mass = np.zeros(merged.dimH)
    for alpha in cells:
        mass += np.sum(np.abs(dhat_root @ memo[alpha]) ** 2, axis=0)
    return mass


def assemble_model(spec: TupleSpec, N: int = 4,
                   config: BuildConfig = BuildConfig()) -> DilationModel:
    """Run the whole construction and package the dilation model."""
    defects, merged, _report, eq_resid = build_defects(spec, config)
    coupling = build_V0(spec, defects, config)
    solve_aux(spec, coupling, config)
    build_U(spec, defects, coupling, config)
    transfer = build_transfer(spec, defects, coupling, config)

    if config.check_identities and eq_resid > config.identity_gate:
        raise IdentityResidualExceeded("defect_equality", eq_resid, config.identity_gate)
    pure, radius = is_pure(merged, 1)
    if config.check_identities and not pure and radius >= 1.0:
        raise NotInClass(f"merged generator is not pure (cp radius {radius:.6g})")

    fock = FockModel(m=merged.n, N=N, coeff_dim=coupling.Dspace.dim,
                     merged_phases=merged.phases)
    isometries = dilated_isometries(spec, transfer, coupling, fock)
    pi, tails = build_Pi(merged, defects, coupling, fock)
    return DilationModel(spec=spec, merged=merged, fock=fock, N=N, defects=defects,
                         coupling=coupling, transfer=transfer, Pi=pi,
                         isometries=isometries, tails=tails, equality_residual=eq_resid)
