"""End-to-end construction of the isometric dilation for d = 1 tuples.

Pipeline: defect operators for the two deleted-index sub-tuples and the merged
tuple, the norm-preserving coupling V0 between the two defect frames, finite
auxiliary padding, the extended unitary U, the block unitaries U1/Un, their
transfer-operator realizations on the truncated Fock model, and the dilation
map Pi with exact truncation-tail accounting.  Szego operators and tails are
recursions in the CP maps phi_s(X) = t_s X t_s*, not subset or box sums.

Coordinates: defect spaces are represented by orthonormal column bases inside
H, and the coupling spaces are coordinate direct sums laid out by
``coefficient_layout`` (see ``CoefficientLayout``).  Once U1 and Un are fixed,
the dilated isometries depend only on them, the layout and the Fock model.

For d = 1 every tensor factor E_i (x) W is canonically W; only the algebra
action (twisted by the automorphism) and the u-phases remember the factor.
Phase conventions are spelled out where they enter; each one is pinned by the
requirement that the dilation identities hold exactly on interior cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (DimensionMismatch, IdentityResidualExceeded, InfeasibleFinitePadding,
                     NotInClass, UnsupportedMultiplicity)
from .fock import FockModel, FockOperator, TermTable, creation_matrix, enumerate_indices
from .linalg import (adj, eye, frob, isometry_from_frames, orthogonal_complement, psd_sqrt,
                     range_basis, rel_residual)
from .tuples import (AlgebraStructure, TupleSpec, class_gate, compose_perm, cp_apply,
                     invert_perm, is_pure, merge_1n, ordered_power_products, szego_operator)


UNITARY_GATE = 1e-12  # per-dimension gate on U, U1 and Un unitarity residuals
MAX_PAD = 64          # largest auxiliary multiplicity of one algebra component


@dataclass
class BuildConfig:
    identity_gate: float = 1e-10
    aux_pad: int = 0
    completion_seed: Optional[int] = None
    check_identities: bool = True


@dataclass
class DefectData:
    square: np.ndarray
    root: np.ndarray
    basis: np.ndarray   # orthonormal columns spanning the range of ``root``
    labels: np.ndarray  # algebra component of each basis column


@dataclass(frozen=True)
class CoefficientLayout:
    """Coordinates of the coupling spaces, with one algebra label each:

        D    = Dn (+) (E1 x D1) (+) aux1        (U maps Udom -> D)
        Udom = D1 (+) (En x Dn) (+) aux2
        D'   = Dn (+) aux1

    ``rn``/``r1`` are the ranks of D_hatn/D_hat1; aux1 holds ``mult1[p]``
    coordinates of component p and aux2 ``mult2[p] = mult1[an^{-1}(p)]``.
    ``parts_D`` and ``parts_Udom`` slice the three parts of D and Udom, and
    ``Dprime_rows`` are the coordinates of D' inside D.  ``U1_labels`` and
    ``Un_labels`` are the (domain, codomain) labels of U1 on D (+) (E x D')
    and of Un on D (+) (E x D1).  Built only by ``coefficient_layout``.
    """

    rn: int
    r1: int
    mult1: np.ndarray
    mult2: np.ndarray
    D: np.ndarray
    Udom: np.ndarray
    Dprime: np.ndarray
    parts_D: tuple
    parts_Udom: tuple
    Dprime_rows: np.ndarray
    U1_labels: tuple
    Un_labels: tuple

    @property
    def dim(self) -> int:
        return self.D.size


@dataclass
class CouplingData:
    """V0 with the complements M1 (of span X in D) and M2 (of span Y in Udom)
    before padding, the algebra and the frames X, Y of ``defect_frames``;
    solve_aux adds ``mult1``, build_U the padded layout, U, V and
    ``vs`` = V Q1n* Dhat, which build_transfer and build_Pi read."""

    V0: np.ndarray
    M1: np.ndarray
    M2: np.ndarray
    M1_labels: np.ndarray
    M2_labels: np.ndarray
    algebra: AlgebraStructure
    X: np.ndarray
    Y: np.ndarray
    mult1: Optional[np.ndarray] = None
    layout: Optional[CoefficientLayout] = None
    U: Optional[np.ndarray] = None
    V: Optional[np.ndarray] = None
    vs: Optional[np.ndarray] = None


@dataclass
class TransferData:
    """U1 and Un with the construction self-check residuals by name: those of
    ``build_transfer`` and ``defect_equality``, which ``assemble_model`` adds."""

    U1: np.ndarray
    Un: np.ndarray
    residuals: dict


@dataclass
class DilationModel:
    spec: TupleSpec
    merged: TupleSpec
    fock: FockModel
    N: int
    defects: dict
    layout: CoefficientLayout
    coupling: Optional[CouplingData]  # None for a model read from a file
    transfer: TransferData
    Pi: np.ndarray
    isometries: list
    tails: np.ndarray

    def coordinate_labels(self) -> Optional[np.ndarray]:
        """Algebra label of each model coordinate, shape (cells, dim D); rho(e_p)
        on the truncated model is the diagonal indicator of label p."""
        if self.spec.algebra is None:
            return None
        alg, cells = self.merged.algebra, self.fock.cells
        labels = np.broadcast_to(self.layout.D, (cells.shape[0], self.layout.dim))
        for s, auto in enumerate(alg.automorphisms):  # apply a_s^{alpha_s}, slot 0 first
            powers = [np.arange(alg.k)]
            for _ in range(self.N):
                powers.append(np.asarray(auto)[powers[-1]])
            labels = np.asarray(powers)[cells[:, s, None], labels]
        return labels

    @cached_property
    def L1(self) -> FockOperator:
        """The merged creation operator, built once per model."""
        return creation_matrix(self.fock, 0)

    @cached_property
    def table(self) -> TermTable:
        """One ``TermTable`` of the isometries followed by L1, built once per
        model; the verifier's product and intertwining checks all read it."""
        return TermTable(self.isometries + [self.L1])


def effective_algebra(spec: TupleSpec) -> AlgebraStructure:
    """The declared algebra, or the trivial one-component algebra."""
    if spec.algebra is not None:
        return spec.algebra
    return AlgebraStructure(1, [0] * spec.dimH, [[0]] * spec.n)


def _per_component(mat: np.ndarray, row_labels: np.ndarray, col_labels: np.ndarray, k: int,
                   basis_of) -> tuple[np.ndarray, np.ndarray]:
    """A basis that splits by algebra component, and the component of each column.

    For each component p, ``basis_of`` maps the block of ``mat`` on the rows
    and columns labelled p to orthonormal columns, which are embedded in the
    rows labelled p; the columns come grouped by component, p ascending.
    """
    cols, labels = [], []
    for p in range(k):
        rows = np.flatnonzero(row_labels == p)
        sub = basis_of(mat[np.ix_(rows, np.flatnonzero(col_labels == p))])
        cols.append(np.zeros((mat.shape[0], sub.shape[1]), dtype=complex))
        cols[-1][rows] = sub
        labels += [p] * sub.shape[1]
    return np.hstack(cols), np.asarray(labels, dtype=int)


def build_defects(spec: TupleSpec, alg: AlgebraStructure):
    """Defect data for hat1 (drop index 1), hatn (drop index n) and the merged tuple.

    Returns ``(defects, merged, equality_residual)``, the residual measuring
    the two displayed factorizations of the merged defect square.  Each
    defect's range basis splits by algebra component (``_per_component``).
    ``alg`` is ``effective_algebra(spec)``, resolved once by the caller.
    """
    if spec.d != 1:
        raise UnsupportedMultiplicity("the dilation construction requires d = 1")
    report, sq_hat1, sq_hatn = class_gate(spec)
    if not report.in_T1n:
        raise NotInClass("; ".join(report.failing_conditions()) or "not in the dilatable class")
    merged = merge_1n(spec)

    sq_hat1n = szego_operator(merged, range(1, merged.n + 1))

    blocks = np.asarray(alg.block_of)
    defects = {}
    for name, sq in (("hat1", sq_hat1), ("hatn", sq_hatn), ("hat1n", sq_hat1n)):
        root = psd_sqrt(sq)
        defects[name] = DefectData(sq, root, *_per_component(root, blocks, blocks, alg.k,
                                                             range_basis))

    t1, tn = spec.op(1), spec.op(spec.n)
    resid = max(
        rel_residual(sq_hat1n - (sq_hatn + t1 @ sq_hat1 @ adj(t1)), sq_hat1n),
        rel_residual(sq_hat1n - (sq_hat1 + tn @ sq_hatn @ adj(tn)), sq_hat1n),
    )
    return defects, merged, resid


def defect_frames(spec: TupleSpec, defects: dict) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate frames X_h, Y_h over the standard basis of H.

    X_h = D_hatn h (+) D_hat1 t1* h  lives in Dn (+) (E1 x D1);
    Y_h = D_hat1 h (+) D_hatn tn* h  lives in D1 (+) (En x Dn).
    """
    qn, q1 = defects["hatn"].basis, defects["hat1"].basis
    dn, d1 = defects["hatn"].root, defects["hat1"].root
    t1, tn = spec.op(1), spec.op(spec.n)
    x = np.vstack([adj(qn) @ dn, adj(q1) @ d1 @ adj(t1)])
    y = np.vstack([adj(q1) @ d1, adj(qn) @ dn @ adj(tn)])
    return x, y


def coefficient_layout(spec: TupleSpec, defects: dict, mult1,
                       alg: AlgebraStructure) -> CoefficientLayout:
    """The layout of D, Udom and D' for these defects and aux1 multiplicities
    (``alg`` as in ``build_defects``).

    A twisted summand E_i (x) W carries component a_i(label) on W's columns.
    """
    a1, an = alg.automorphisms[0], alg.automorphisms[spec.n - 1]
    g1n = compose_perm(a1, an)  # the merged generator's automorphism
    lab_qn, lab_q1 = defects["hatn"].labels, defects["hat1"].labels
    rn, r1 = lab_qn.size, lab_q1.size
    mult1 = np.array(mult1, dtype=int)
    mult2 = mult1[invert_perm(an)]
    aux1 = np.repeat(np.arange(alg.k), mult1)
    aux2 = np.repeat(np.arange(alg.k), mult2)
    lab_d = np.concatenate([lab_qn, np.take(a1, lab_q1), aux1])
    lab_udom = np.concatenate([lab_q1, np.take(an, lab_qn), aux2])
    lab_dp = np.concatenate([lab_qn, aux1])
    dim = lab_d.size
    dprime_rows = np.r_[0:rn, rn + r1:dim]
    u1_labels = (np.concatenate([lab_d, np.take(g1n, lab_dp)]),
                 np.concatenate([np.take(a1, lab_d), lab_dp]))
    un_labels = (np.concatenate([lab_d, np.take(g1n, lab_q1)]),
                 np.concatenate([np.take(an, lab_d), lab_q1]))
    for arr in (mult1, mult2, lab_d, lab_udom, lab_dp, dprime_rows, *u1_labels, *un_labels):
        arr.setflags(write=False)
    return CoefficientLayout(
        rn=rn, r1=r1, mult1=mult1, mult2=mult2, D=lab_d, Udom=lab_udom, Dprime=lab_dp,
        parts_D=(slice(0, rn), slice(rn, rn + r1), slice(rn + r1, dim)),
        parts_Udom=(slice(0, r1), slice(r1, r1 + rn), slice(r1 + rn, dim)),
        Dprime_rows=dprime_rows, U1_labels=u1_labels, Un_labels=un_labels)


def build_V0(spec: TupleSpec, defects: dict, alg: AlgebraStructure) -> CouplingData:
    """Partial isometry V0: span X -> span Y and the complements M1, M2 of its
    initial and final spaces in D and Udom before padding (``alg`` as in
    ``build_defects``)."""
    bare = coefficient_layout(spec, defects, np.zeros(alg.k, dtype=int), alg)
    x, y = defect_frames(spec, defects)
    v0 = isometry_from_frames(x, y)
    blocks = np.asarray(alg.block_of)

    def complement(block):
        return orthogonal_complement(range_basis(block))
    m1, m1lab = _per_component(x, bare.D, blocks, alg.k, complement)
    m2, m2lab = _per_component(y, bare.Udom, blocks, alg.k, complement)
    return CouplingData(V0=v0, M1=m1, M2=m2, M1_labels=m1lab, M2_labels=m2lab, algebra=alg,
                        X=x, Y=y)


def solve_aux(spec: TupleSpec, coupling: CouplingData,
              config: BuildConfig = BuildConfig()) -> tuple[int, int]:
    """Finite auxiliary padding: the multiplicity vector mult1 of aux1.

    aux2 has multiplicities mult2 = mult1 o an^{-1} (existence of u2), and
    mult1 = mult2 o a1^{-1} (existence of u1); the unitary completion needs
    #M2_p + mult2[p] = #M1_p + mult1[p] in every component p.  So
    mult1[an^{-1}(p)] - mult1[p] = #M1_p - #M2_p, and mult1 is constant along
    the twist a1 o an.  These differences fix mult1 on each orbit of <a1, an>
    up to a shift: the potentials are propagated along an^{-1}, an, the twist
    and its inverse, and shifted so that the orbit's least entry is
    ``config.aux_pad``.  The scalar case reduces to #M1 = #M2 and padding
    (pad, pad).  Stores mult1 on the coupling and returns the sizes of aux1
    and aux2, which are equal.
    """
    alg = coupling.algebra
    a1, an = np.asarray(alg.automorphisms[0]), np.asarray(alg.automorphisms[spec.n - 1])
    an_inv, twist = np.argsort(an), a1[an]
    twist_inv = np.argsort(twist)
    delta = (np.bincount(coupling.M1_labels, minlength=alg.k)
             - np.bincount(coupling.M2_labels, minlength=alg.k))
    mult1, seen = np.zeros(alg.k, dtype=int), np.zeros(alg.k, dtype=bool)
    for start in range(alg.k):
        if seen[start]:
            continue
        pot, stack = {start: 0}, [start]
        while stack:
            p = stack.pop()
            for q, val in ((an_inv[p], pot[p] + delta[p]), (an[p], pot[p] - delta[an[p]]),
                           (twist[p], pot[p]), (twist_inv[p], pot[p])):
                if q not in pot:
                    pot[q] = val
                    stack.append(q)
                elif pot[q] != val:
                    raise InfeasibleFinitePadding(
                        f"multiplicity constraints are inconsistent at component {q}"
                        f" ({pot[q]} vs {val}); no finite padding exists")
        orbit, values = list(pot), np.array(list(pot.values()))
        mult1[orbit], seen[orbit] = values - values.min() + config.aux_pad, True
    if int(mult1.max(initial=0)) > MAX_PAD:
        raise InfeasibleFinitePadding(
            f"minimal padding {int(mult1.max())} exceeds the limit {MAX_PAD}")
    coupling.mult1 = mult1
    return int(mult1.sum()), int(mult1.sum())


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def build_U(spec: TupleSpec, defects: dict, coupling: CouplingData,
            config: BuildConfig = BuildConfig()) -> CouplingData:
    """Lay out the padded D and Udom, extend V0^{-1} to the unitary U: Udom -> D
    and assemble the isometry V."""
    alg = coupling.algebra
    layout = coefficient_layout(spec, defects, coupling.mult1, alg)
    rn, r1, dD = layout.rn, layout.r1, layout.dim
    aux1, aux2 = layout.parts_D[2], layout.parts_Udom[2]
    e1, e2 = int(layout.mult1.sum()), int(layout.mult2.sum())

    w = np.zeros((dD, dD), dtype=complex)
    w[:rn + r1, :r1 + rn] = adj(coupling.V0)

    dom_basis = np.vstack([coupling.M2, np.zeros((e2, coupling.M2.shape[1]))])
    dom_basis = np.hstack([dom_basis, np.vstack([np.zeros((r1 + rn, e2)), np.eye(e2)])])
    dom_labels = np.concatenate([coupling.M2_labels, layout.Udom[aux2]])
    cod_basis = np.vstack([coupling.M1, np.zeros((e1, coupling.M1.shape[1]))])
    cod_basis = np.hstack([cod_basis, np.vstack([np.zeros((rn + r1, e1)), np.eye(e1)])])
    cod_labels = np.concatenate([coupling.M1_labels, layout.D[aux1]])

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

    resid, gate = frob(adj(u) @ u - eye(dD)), UNITARY_GATE * max(1.0, dD)
    if config.check_identities and resid > gate:
        raise IdentityResidualExceeded("U_unitarity", resid, gate)

    q1n = defects["hat1n"].basis
    src = adj(q1n) @ defects["hat1n"].root
    dst = np.vstack([coupling.X, np.zeros((e1, spec.dimH))])

    coupling.layout = layout
    coupling.U = u
    coupling.V = isometry_from_frames(src, dst)
    coupling.vs = coupling.V @ src
    return coupling


def _gate(residuals: dict, name: str, value: float, gate: float, enabled: bool):
    residuals[name] = value
    if enabled and value > gate:
        raise IdentityResidualExceeded(name, value, gate)


def build_transfer(spec: TupleSpec, coupling: CouplingData,
                   config: BuildConfig = BuildConfig()) -> TransferData:
    """Block unitaries U1 and Un, plus self-checks.

    U1 = [[(I1 x U) P1, (I1 x U) j2'], [i2*, 0]] on D (+) (E_merged x D') and
    Un = [[(I (+) u2) P2 U*, i1'], [i1* U*, 0]] on D (+) (E_merged x D1).
    The inclusion i1' carries the flip phase u(1,n) that re-expresses merged
    coordinates (E1 tensor En order) inside En x E1 x D1; it cancels against
    the conjugate flip used when feeding merged-order inputs.  The unitary u2
    pairs the label-p block of aux2 with the label an^{-1}(p) block of aux1:
    aux1 coordinate j is the image of aux2 coordinate ``pair[j]``.
    """
    layout, u_mat = coupling.layout, coupling.U
    an_inv = invert_perm(coupling.algebra.automorphisms[spec.n - 1])
    _, e1d1, aux1 = layout.parts_D
    d1, endn, aux2 = layout.parts_Udom
    rn, r1, dD = layout.rn, layout.r1, layout.dim
    e1, e2 = int(layout.mult1.sum()), int(layout.mult2.sum())
    pair = np.empty(e1, dtype=int)
    for p in range(len(an_inv)):
        pair[layout.D[aux1] == an_inv[p]] = np.flatnonzero(layout.Udom[aux2] == p)
    u_adj = adj(u_mat)

    a1 = np.zeros((dD, dD), dtype=complex)
    a1[:, e1d1] = u_mat[:, d1]
    b1 = np.hstack([u_mat[:, endn], u_mat[:, aux2][:, pair]])
    c1 = eye(dD)[layout.Dprime_rows]
    u1 = np.block([[a1, b1], [c1, np.zeros((rn + e1, rn + e1), dtype=complex)]])

    an = np.zeros((dD, dD), dtype=complex)
    an[layout.Dprime_rows] = np.vstack([u_adj[endn], u_adj[aux2][pair]])
    bn = np.zeros((dD, r1), dtype=complex)
    bn[e1d1] = spec.u(1, spec.n) * eye(r1)
    cn = u_adj[d1]
    un = np.block([[an, bn], [cn, np.zeros((r1, r1), dtype=complex)]])

    residuals: dict = {}
    chk = config.check_identities
    _gate(residuals, "U1_unitarity", frob(adj(u1) @ u1 - eye(u1.shape[0])),
          UNITARY_GATE * max(1.0, u1.shape[0]), chk)
    _gate(residuals, "Un_unitarity", frob(adj(un) @ un - eye(un.shape[0])),
          UNITARY_GATE * max(1.0, un.shape[0]), chk)
    for tag, (a, b, c) in (("U1", (a1, b1, c1)), ("Un", (an, bn, cn))):
        _gate(residuals, f"{tag}_ACstar", frob(a @ adj(c)), UNITARY_GATE * dD, chk)
        _gate(residuals, f"{tag}_CCstar", frob(c @ adj(c) - eye(c.shape[0])),
              UNITARY_GATE * dD, chk)
        _gate(residuals, f"{tag}_rows", frob(a @ adj(a) + b @ adj(b) - eye(dD)),
              UNITARY_GATE * dD, chk)

    # the frames X = (Dn h, D1 t1* h) and Y = (D1 h, Dn tn* h) of build_V0, in coordinates
    x, y, vs = coupling.X, coupling.Y, coupling.vs
    t1, tn = spec.op(1), spec.op(spec.n)

    # defining frame equation of U, Eq-level check on a basis of E1 (x) H
    f_in = np.vstack([y, np.zeros((e2, spec.dimH))])
    f_out = np.vstack([x, np.zeros((e1, spec.dimH))])
    _gate(residuals, "frame_eq_f", rel_residual(u_mat @ f_in - f_out, f_out),
          config.identity_gate, chk)

    lemma_in = np.vstack([vs, y[r1:] @ adj(t1), np.zeros((e1, spec.dimH))])
    lemma_out = np.vstack([vs @ adj(t1), x[:rn], np.zeros((e1, spec.dimH))])
    _gate(residuals, "lemma_U1", rel_residual(u1 @ lemma_in - lemma_out, lemma_out),
          config.identity_gate, chk)

    mu = spec.u(spec.n, 1)  # flip into merged (E1 before En) coordinate order
    abn_in = np.vstack([vs, mu * (x[rn:] @ adj(tn))])
    abn_out = np.vstack([vs @ adj(tn), y[:r1]])
    _gate(residuals, "eq_ABn", rel_residual(un @ abn_in - abn_out, abn_out),
          config.identity_gate, chk)
    _gate(residuals, "eq_Cn", rel_residual(cn @ vs - y[:r1], y[:r1]),
          config.identity_gate, chk)

    return TransferData(U1=u1, Un=un, residuals=residuals)


def transfer_tau(spec: TupleSpec, transfer: TransferData, layout: CoefficientLayout,
                 fock: FockModel, which: int) -> FockOperator:
    """The transfer operator on the truncated model, read off U1 or Un alone.

    Realizes I_F (x) (A* + [I (x) C*] B*) with the domain identified through
    front insertion of the acting factor, so that the dilation identities hold
    as plain matrix equations on interior cells.  The shift block of tau1
    places U1's B block* on the D' rows of D; that of taun is Un's C block*
    (which is U i1) on the E1 x D1 columns, with the flip phase u(n,1).
    Moving the front E_which factor across the cell monomial costs the phase
    kappa(alpha): u(1,n) (for which = n, u(n,1)) per merged factor, the E1 or
    En crossing inside it being trivial, and u(which, j) per factor of slot j.
    """
    d = fock.coeff_dim
    if d != layout.dim:
        raise DimensionMismatch("Fock coefficient dimension must equal dim D")
    shift_block = np.zeros((d, d), dtype=complex)
    if which == 1:
        a, merged_cost = transfer.U1[:d, :d], spec.u(1, spec.n)
        shift_block[layout.Dprime_rows] = adj(transfer.U1[:d, d:])
    elif which == spec.n:
        a, merged_cost = transfer.Un[:d, :d], spec.u(spec.n, 1)
        shift_block[:, layout.parts_D[1]] = merged_cost * adj(transfer.Un[d:, :d])
    else:
        raise DimensionMismatch("transfer operators exist for the first and last index only")
    # coefficient-end insertion of the merged factor: prod_{t > 0} u(t, 0)^alpha_t
    back = fock.cell_phases(np.where(np.arange(fock.m) > 0, fock.merged_phases[:, 0], 1))
    kappa = fock.cell_phases([merged_cost] + [spec.u(which, j) for j in range(2, spec.n)])
    return FockOperator(fock, adj(a), shift_block, 0, back, kappa)


def dilated_isometries(spec: TupleSpec, transfer: TransferData, layout: CoefficientLayout,
                       fock: FockModel) -> list:
    """The dilated tuple (tau1, L_2, ..., L_{n-1}, taun) on the truncated model."""
    middles = [creation_matrix(fock, i - 1) for i in range(2, spec.n)]
    return ([transfer_tau(spec, transfer, layout, fock, 1)] + middles
            + [transfer_tau(spec, transfer, layout, fock, spec.n)])


def build_Pi(merged: TupleSpec, defects: dict, coupling: CouplingData,
             fock: FockModel) -> tuple[np.ndarray, np.ndarray]:
    """Dilation map Pi: H -> F_N(E) (x) D and its exact per-basis-vector tail."""
    pi = (coupling.vs @ ordered_power_products(merged, fock.cells)).reshape(-1, merged.dimH)
    return pi, truncation_tails(merged, defects["hat1n"].root, fock.N)


def truncation_tails(merged: TupleSpec, dhat_root: np.ndarray, N: int) -> np.ndarray:
    """Per-basis-vector tail ||h||^2 - sum_{|alpha|<=N} ||Dhat T*^(alpha) h||^2.

    The sum is diag(A_0(1) + ... + A_N(1)) for the degree-k layers A_k(s) of
    the CP maps phi_s(X) = t_s X t_s*, by the recursion over the slots
    A_k(s) = A_k(s+1) + phi_s(A_{k-1}(s)) with A_0 = Dhat* Dhat, O(mN)
    applications in all.  No step assumes that the merged CP maps commute, so
    a commutation error under the class gate does not enter the tails.
    """
    square = adj(dhat_root) @ dhat_root
    layer = [square] + [np.zeros_like(square)] * N  # layer[k] = A_k(s)
    for s in range(merged.n, 0, -1):
        for k in range(1, N + 1):
            layer[k] = layer[k] + cp_apply(merged, s, layer[k - 1])
    return 1.0 - np.real(np.diag(sum(layer)))


def simplex_mass(merged: TupleSpec, dhat_root: np.ndarray, N: int) -> np.ndarray:
    """Per-basis-vector sum of ||Dhat T*^(alpha) h||^2 over |alpha| <= N, one
    power-table row per cell of ``enumerate_indices``."""
    table = ordered_power_products(merged, enumerate_indices(merged.n, N))
    return np.sum(np.abs(dhat_root @ table) ** 2, axis=1).sum(axis=0)


def assemble_model(spec: TupleSpec, N: int = 4,
                   config: BuildConfig = BuildConfig()) -> DilationModel:
    """Run the whole construction and package the dilation model."""
    alg = effective_algebra(spec)
    defects, merged, eq_resid = build_defects(spec, alg)
    coupling = build_V0(spec, defects, alg)
    solve_aux(spec, coupling, config)
    build_U(spec, defects, coupling, config)
    transfer = build_transfer(spec, coupling, config)
    _gate(transfer.residuals, "defect_equality", eq_resid, config.identity_gate,
          config.check_identities)
    pure, radius = is_pure(merged, 1)
    if config.check_identities and not pure and radius >= 1.0:
        raise NotInClass(f"merged generator is not pure (cp radius {radius:.6g})")

    layout = coupling.layout
    fock = FockModel(m=merged.n, N=N, coeff_dim=layout.dim, merged_phases=merged.phases)
    isometries = dilated_isometries(spec, transfer, layout, fock)
    pi, tails = build_Pi(merged, defects, coupling, fock)
    return DilationModel(spec=spec, merged=merged, fock=fock, N=N, defects=defects,
                         layout=layout, coupling=coupling, transfer=transfer, Pi=pi,
                         isometries=isometries, tails=tails)
