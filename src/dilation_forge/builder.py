"""End-to-end construction of the isometric dilation for d = 1 tuples.

Pipeline: defect operators for the two deleted-index sub-tuples and the merged
tuple, the norm-preserving coupling V0 between the two defect frames, minimal
auxiliary padding, the extended unitary U, the block unitaries U1/Un, their
transfer-operator realizations on the truncated Fock model, and the dilation
map Pi with exact truncation-tail accounting.  Szego operators and tails are
recursions in the CP maps phi_s(X) = t_s X t_s*, not subset or box sums.

Coordinates: defect spaces are orthonormal column bases inside H, and the
coupling spaces coordinate direct sums laid out by ``coefficient_layout``.
Once U is fixed, U1, Un and the dilated isometries depend only on it, the
layout and the Fock model; Pi does not depend on U at all (``build_Pi``).

For d = 1 every tensor factor E_i (x) W is canonically W; only the algebra
action (twisted by the automorphism) and the u-phases remember the factor.
Phase conventions are spelled out where they enter; each one is pinned by the
requirement that the dilation identities hold exactly on interior cells.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import (DimensionMismatch, IdentityResidualExceeded, InfeasibleFinitePadding,
                     NotInClass, UnsupportedMultiplicity)
from .fock import FockFamily, FockModel, apply_adjoints, creation_terms, degree_layers
from .linalg import (RANK_TOL, adj, check_count, eye, frob, frob_stack, isometry_from_frames,
                     psd_checks, psd_sqrt, range_bases)
from .tuples import (AlgebraStructure, TupleSpec, class_gate, cp_apply, merge_1n,
                     ordered_power_products, purity_radii)


IDENTITY_GATE = 1e-10  # gate on the frame, lemma and defect-equality residuals
UNITARY_GATE = 1e-12   # per-dimension gate on U, U1 and Un unitarity residuals
MAX_PAD = 64           # largest auxiliary multiplicity of one algebra component


@dataclass
class DefectData:
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
    coordinates of component p and aux2 ``mult1[an^{-1}(p)]``.
    ``parts_D`` and ``parts_Udom`` slice the three parts of D and Udom, and
    ``Dprime_rows`` are the coordinates of D' inside D.  ``Dprime_pair`` is
    each D' coordinate's partner in Udom: Dn's in En x Dn, and aux1's in aux2
    under u2, which pairs the label-an^{-1}(p) block of aux1 with the label-p
    block of aux2.  ``U1_labels`` and ``Un_labels`` are the (domain, codomain)
    labels of U1 on D (+) (E x D') and of Un on D (+) (E x D1).  Built only by
    ``coefficient_layout``.
    """

    rn: int
    r1: int
    mult1: np.ndarray
    D: np.ndarray
    Udom: np.ndarray
    parts_D: tuple
    parts_Udom: tuple
    Dprime_rows: np.ndarray
    Dprime_pair: np.ndarray
    U1_labels: tuple
    Un_labels: tuple

    @property
    def dim(self) -> int:
        return self.D.size


@dataclass
class CouplingData:
    """V0 with the complements M1 (of span X in D) and M2 (of span Y in Udom)
    before padding, the algebra and the frames X, Y of ``defect_frames``."""

    V0: np.ndarray
    M1: np.ndarray
    M2: np.ndarray
    M1_labels: np.ndarray
    M2_labels: np.ndarray
    algebra: AlgebraStructure
    X: np.ndarray
    Y: np.ndarray


@dataclass
class TransferData:
    """U, U1, Un (``transfer_unitaries``), the frames X, Y and the residuals measured on them."""

    U: np.ndarray
    U1: np.ndarray
    Un: np.ndarray
    frames: tuple
    residuals: dict


@dataclass
class DilationModel:
    """The finite data that fix the dilation, ``transfer`` among them; the Fock model
    (which checks the cell budget first), the tails, the power table, Pi and the dilated
    family are derived on construction, for built and loaded models alike."""

    spec: TupleSpec
    merged: TupleSpec
    N: int
    defects: dict
    layout: CoefficientLayout
    transfer: TransferData
    fock: FockModel = field(init=False)
    tails: np.ndarray = field(init=False)
    powers: np.ndarray = field(init=False)  # ``ordered_power_products`` of the merged tuple
    Pi: np.ndarray = field(init=False)
    isometries: FockFamily = field(init=False)  # tau1, L_2, ..., L_{n-1}, taun, then L1

    def __post_init__(self):
        self.fock = FockModel(self.merged.n, self.N, self.layout.dim, self.merged.phases)
        self.tails = truncation_tails(self.merged, self.defects["hat1n"].root, self.N)
        self.isometries = dilated_isometries(self.spec, self.transfer, self.layout, self.fock)
        self.powers = ordered_power_products(self.merged, self.fock)
        self.Pi = build_Pi(pad_rows(self.transfer.frames[0], self.layout), self.powers)

    @cached_property
    def pi_adjoints(self) -> np.ndarray:
        """The family's adjoints times Pi, formed once, read by the intertwining and moment checks."""
        return apply_adjoints(self.isometries, self.Pi)


def effective_algebra(spec: TupleSpec) -> AlgebraStructure:
    """The declared algebra, or the trivial one-component algebra, which is
    valid by construction and so skips ``AlgebraStructure``'s checks."""
    if spec.algebra is not None:
        return spec.algebra
    trivial = AlgebraStructure.__new__(AlgebraStructure)
    vars(trivial).update(k=1, block_of=np.broadcast_to(0, (spec.dimH,)),
                         automorphisms=np.broadcast_to(0, (spec.n, 1)))  # read-only views
    return trivial


def _per_component(mats: np.ndarray, labels, k: int) -> list:
    """Per matrix of the (j, dim, dim) stack ``mats``, a basis that splits by
    algebra component and the component of each column: for each p, the range
    basis of the matrix masked to the rows and columns labelled p (its row of
    ``labels``, or ``labels`` for all; -1 for none), from one ``range_bases``
    call in label order, so each block's basis is its own ``range_basis``, bit
    for bit, and exactly 0 off its rows."""
    order = np.argsort(labels, kind="stable")
    mask = np.sort(labels)[..., None, :] == np.arange(k)[:, None]  # (matrix or all, p, coordinate)
    ordered = mats[np.arange(len(mats))[:, None, None], order[..., :, None], order[..., None, :]]
    masked = ordered[:, None] * (mask[..., :, None] & mask[..., None, :])
    bases, out = iter(range_bases(masked.reshape(-1, *mats.shape[1:]))), []
    for back in np.broadcast_to(np.argsort(order), mats.shape[:2]):  # each matrix's rows unsorted
        parts = [next(bases) for _ in range(k)]
        out.append((np.hstack(parts)[back], np.repeat(np.arange(k), [p.shape[1] for p in parts])))
    return out


def build_defects(spec: TupleSpec, alg: AlgebraStructure):
    """Defect data for hat1 (drop index 1), hatn (drop index n) and the merged tuple.

    Returns ``(defects, merged, equality_residual)``, the residual measuring
    the two displayed factorizations of the merged defect square.  One
    ``class_gate`` recursion gives the verdict, the hat1 and hatn squares with
    their PSD reports and the Szego operator M of indices 2..n-1 (I for n =
    2); M - t1n M t1n* (t1n = t_1 t_n) is the merged square, bit for bit.
    The merged generator must be pure, for a built and a loaded model alike;
    each defect's range basis splits by algebra component (``_per_component``).
    ``alg`` is ``effective_algebra(spec)``, resolved once by the caller.
    """
    if spec.d != 1:
        raise UnsupportedMultiplicity("the dilation construction requires d = 1")
    report, sq = class_gate(spec, [range(2, spec.n)])
    if not report.in_T1n:
        raise NotInClass("; ".join(report.failing_conditions()) or "not in the dilatable class")
    merged = merge_1n(spec)
    radius = purity_radii(merged, [1])[0]
    if radius >= 1.0:
        raise NotInClass(f"merged generator is not pure (cp radius {radius:.6g})")

    sq[2:] -= merged.op(1) @ sq[2:] @ adj(merged.op(1))  # M becomes the merged square
    roots = psd_sqrt(sq, (report.szego_hat1, report.szego_hatn, *psd_checks(sq[2:])))
    parts = _per_component(roots, alg.block_of, alg.k)
    defects = {name: DefectData(root, *part)
               for name, root, part in zip(("hat1", "hatn", "hat1n"), roots, parts)}

    # the two factorizations hatn + t1 hat1 t1* and hat1 + tn hatn tn* of the merged square
    ends = spec.blocks[[0, -1], 0]
    sides = sq[1::-1] + ends @ sq[:2] @ adj(ends)
    norms = frob_stack(np.concatenate([sq[2] - sides, sq[2:]]))
    return defects, merged, float(norms[:2].max() / max(1.0, norms[2]))


def defect_frames(spec: TupleSpec, defects: dict) -> tuple[np.ndarray, np.ndarray]:
    """Coordinate frames X_h, Y_h over the standard basis of H.

    X_h = D_hatn h (+) D_hat1 t1* h  lives in Dn (+) (E1 x D1);
    Y_h = D_hat1 h (+) D_hatn tn* h  lives in D1 (+) (En x Dn).
    """
    dn = adj(defects["hatn"].basis) @ defects["hatn"].root  # D_hatn in Dn's coordinates
    d1 = adj(defects["hat1"].basis) @ defects["hat1"].root
    return (np.vstack([dn, d1 @ adj(spec.op(1))]), np.vstack([d1, dn @ adj(spec.op(spec.n))]))


def pad_rows(a: np.ndarray, layout: CoefficientLayout) -> np.ndarray:
    """``a`` with zero rows on aux1 of D (or aux2 of Udom); [X; 0] for the frame X
    of ``defect_frames`` is Pi's cell-0 block."""
    return np.vstack([a, np.zeros((layout.dim - len(a), a.shape[1]))])


def coefficient_layout(spec: TupleSpec, defects: dict, mult1,
                       alg: AlgebraStructure) -> CoefficientLayout:
    """The layout of D, Udom and D' for these defects and aux1 multiplicities
    (``alg`` as in ``build_defects``).

    A twisted summand E_i (x) W carries component a_i(label) on W's columns.
    """
    a1, an = alg.automorphisms[[0, spec.n - 1]]
    g1n = a1[an]  # the merged generator's automorphism
    lab_qn, lab_q1 = defects["hatn"].labels, defects["hat1"].labels
    rn, r1 = lab_qn.size, lab_q1.size
    an_inv = np.argsort(an)
    mult1 = np.array(mult1, dtype=int)
    aux1 = np.repeat(np.arange(alg.k), mult1)
    aux2 = np.repeat(np.arange(alg.k), mult1[an_inv])
    pair = np.argsort(an_inv[aux2], kind="stable")  # aux2's label-p block for aux1's an^{-1}(p)
    lab_d = np.concatenate([lab_qn, a1[lab_q1], aux1])
    lab_udom = np.concatenate([lab_q1, an[lab_qn], aux2])
    lab_dp = np.concatenate([lab_qn, aux1])
    dim = lab_d.size
    dprime_rows = np.concatenate([np.arange(rn), np.arange(rn + r1, dim)])
    dprime_pair = np.concatenate([np.arange(r1, r1 + rn), r1 + rn + pair])
    u1_labels = (np.concatenate([lab_d, g1n[lab_dp]]), np.concatenate([a1[lab_d], lab_dp]))
    un_labels = (np.concatenate([lab_d, g1n[lab_q1]]), np.concatenate([an[lab_d], lab_q1]))
    for arr in (mult1, lab_d, lab_udom, dprime_rows, dprime_pair, *u1_labels, *un_labels):
        arr.setflags(write=False)
    return CoefficientLayout(
        rn=rn, r1=r1, mult1=mult1, D=lab_d, Udom=lab_udom,
        parts_D=(slice(0, rn), slice(rn, rn + r1), slice(rn + r1, dim)),
        parts_Udom=(slice(0, r1), slice(r1, r1 + rn), slice(r1 + rn, dim)),
        Dprime_rows=dprime_rows, Dprime_pair=dprime_pair, U1_labels=u1_labels, Un_labels=un_labels)


def build_V0(spec: TupleSpec, defects: dict, alg: AlgebraStructure) -> CouplingData:
    """Partial isometry V0: span X -> span Y and the complements M1, M2 of its
    initial and final spaces in D and Udom before padding (``alg`` as in
    ``build_defects``).  A frame masked to component p spans B_p (rank as in
    ``range_bases``); the complement there is the range of I - B B* masked to p
    (none where B_p fills p), in the order of its columns' leading coordinates."""
    x, y = defect_frames(spec, defects)
    qn, q1 = defects["hatn"].labels, defects["hat1"].labels
    labels = np.stack([np.concatenate([qn, alg.automorphisms[0, q1]]),  # Dn (+) (E1 x D1)
                       np.concatenate([q1, alg.automorphisms[spec.n - 1, qn]])])  # D1 (+) (En x Dn)
    comp = np.arange(alg.k)[:, None, None]
    rows = labels[:, None, :, None] == comp  # (frame, component, row, 1)
    u, s, _ = np.linalg.svd(np.stack([x, y])[:, None] * (rows & (alg.block_of == comp)),
                            full_matrices=False)
    kept = s > RANK_TOL * s[..., :1]
    span = u * kept[..., None, :]
    filled = (rows.sum(axis=(2, 3)) == kept.sum(axis=2))[[[0], [1]], labels]  # by frame and row
    parts = []
    for basis, lab in _per_component(eye(len(x)) - np.sum(span @ adj(span), axis=1),
                                     np.where(filled, -1, labels), alg.k):
        order = np.lexsort((np.argmax(np.abs(basis), axis=0), lab))
        parts += [basis[:, order], lab[order]]
    m1, m1lab, m2, m2lab = parts
    return CouplingData(V0=isometry_from_frames(x, y), M1=m1, M2=m2, M1_labels=m1lab,
                        M2_labels=m2lab, algebra=alg, X=x, Y=y)


def solve_aux(spec: TupleSpec, coupling: CouplingData) -> np.ndarray:
    """The minimal finite auxiliary padding: the multiplicity vector mult1 of aux1.

    aux2 has multiplicities mult2 = mult1 o an^{-1} (existence of u2), and
    mult1 = mult2 o a1^{-1} (existence of u1); the unitary completion needs
    #M2_p + mult2[p] = #M1_p + mult1[p] in every component p.  So
    mult1[an^{-1}(p)] - mult1[p] = #M1_p - #M2_p, and mult1 is constant along
    the twist a1 o an.  These differences fix mult1 on each orbit of <a1, an>
    up to a shift: the potentials are propagated along an^{-1}, an, the twist
    and its inverse, and shifted so that the orbit's least entry is 0.  The
    scalar case reduces to #M1 = #M2 and no padding.  More padding (``mult1``
    raised before ``build_U``) adds coordinates that no V^alpha Pi h reaches
    unless a completion seed mixes them in.
    """
    alg = coupling.algebra
    a1, an = alg.automorphisms[[0, spec.n - 1]]
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
        mult1[orbit], seen[orbit] = values - values.min(), True
    if int(mult1.max(initial=0)) > MAX_PAD:
        raise InfeasibleFinitePadding(
            f"minimal padding {int(mult1.max())} exceeds the limit {MAX_PAD}")
    return mult1


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def build_U(spec: TupleSpec, defects: dict, coupling: CouplingData, mult1,
            completion_seed: Optional[int] = None) -> tuple:
    """Lay out D and Udom padded by the aux1 multiplicities ``mult1`` and extend
    V0^{-1} to the unitary U: Udom -> D; returns ``(layout, U)``.  A
    ``completion_seed`` >= 0, the one free choice, rotates each component's
    completion by a seeded Haar unitary."""
    if completion_seed is not None:
        completion_seed = check_count(completion_seed, "completion seed")
    alg = coupling.algebra
    layout = coefficient_layout(spec, defects, mult1, alg)
    rn, r1, dD = layout.rn, layout.r1, layout.dim
    aux1, aux2 = layout.parts_D[2], layout.parts_Udom[2]

    u = np.zeros((dD, dD), dtype=complex)
    u[:rn + r1, :r1 + rn] = adj(coupling.V0)

    dom_basis = np.hstack([pad_rows(coupling.M2, layout), eye(dD)[:, aux2]])
    dom_labels = np.concatenate([coupling.M2_labels, layout.Udom[aux2]])
    cod_basis = np.hstack([pad_rows(coupling.M1, layout), eye(dD)[:, aux1]])
    cod_labels = np.concatenate([coupling.M1_labels, layout.D[aux1]])

    rng = None if completion_seed is None else np.random.default_rng(completion_seed)
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
    if resid > gate:
        raise IdentityResidualExceeded("U_unitarity", resid, gate)
    return layout, u


def transfer_unitaries(spec: TupleSpec, layout: CoefficientLayout,
                       u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The block unitaries U1 and Un, fixed rearrangements of the completion U.

    U1 = [[(I1 x U) P1, (I1 x U) j2'], [i2*, 0]] on D (+) (E_merged x D') and
    Un = [[(I (+) u2) P2 U*, i1'], [i1* U*, 0]] on D (+) (E_merged x D1).
    The inclusion i1' carries the flip phase u(1,n) that re-expresses merged
    coordinates (E1 tensor En order) inside En x E1 x D1; it cancels against
    the conjugate flip used when feeding merged-order inputs.  j2' and u2
    read the Udom coordinates ``layout.Dprime_pair``.  Built and loaded models
    alike get U1 and Un here alone.
    """
    e1d1, d1, dD = layout.parts_D[1], layout.parts_Udom[0], layout.dim
    rows, cols = layout.Dprime_rows, layout.Dprime_pair
    u1 = np.zeros((dD + rows.size,) * 2, dtype=complex)
    u1[:dD, e1d1] = u[:, d1]
    u1[:dD, dD:] = u[:, cols]
    u1[dD + np.arange(rows.size), rows] = 1.0
    u_adj = adj(u)
    un = np.zeros((dD + layout.r1,) * 2, dtype=complex)
    un[rows, :dD] = u_adj[cols]
    un[e1d1, dD:] = spec.u(1, spec.n) * eye(layout.r1)
    un[dD:, :dD] = u_adj[d1]
    return u1, un


def _norm(a: np.ndarray) -> float:
    """||a||_F by one vdot, at a third of ``frob``'s cost on these small blocks."""
    return float(np.sqrt(np.vdot(a, a).real))


def _rel(delta: np.ndarray, reference: np.ndarray) -> float:
    return _norm(delta) / max(1.0, _norm(reference))


def measure_transfer(spec: TupleSpec, layout: CoefficientLayout, u: np.ndarray, frames: tuple,
                     defect_equality: float) -> TransferData:
    """U1 and Un of ``transfer_unitaries`` and the construction residuals, ungated.

    One Gram G = W W* - I per block unitary W = [[A, B], [C, 0]] gives
    W_unitarity = ||G||_F (||W* W - I||_F in exact arithmetic, W being square)
    and its blocks W_rows = ||A A* + B B* - I||, W_ACstar = ||A C*|| and
    W_CCstar = ||C C* - I||.  The frames X, Y of ``defect_frames`` give U Y = X
    (frame_eq_f), and lemma_U1, eq_ABn and eq_Cn on xs = ``pad_rows(X)``,
    its zero rows left out of the products.  Built and loaded models alike.
    """
    x, y = frames
    xs = pad_rows(x, layout)
    rn, r1, dD = layout.rn, layout.r1, layout.dim
    t1_adj, tn_adj = adj(spec.op(1)), adj(spec.op(spec.n))
    u1, un = transfer_unitaries(spec, layout, u)
    grams = {tag: w @ adj(w) - eye(len(w)) for tag, w in (("U1", u1), ("Un", un))}
    residuals = {f"{tag}_unitarity": _norm(g) for tag, g in grams.items()}
    for tag, g in grams.items():
        residuals.update({f"{tag}_ACstar": _norm(g[:dD, dD:]), f"{tag}_CCstar": _norm(g[dD:, dD:]),
                          f"{tag}_rows": _norm(g[:dD, :dD])})

    frame = u[:, :r1 + rn] @ y  # Y fills D1 (+) (En x Dn), X fills Dn (+) (E1 x D1)
    frame[:rn + r1] -= x
    residuals["frame_eq_f"] = _rel(frame, x)

    lemma_out = np.vstack([xs @ t1_adj, x[:rn]])  # D (+) (E x Dn); its aux1 rows are zero
    lemma = u1[:, :dD + rn] @ np.vstack([xs, y[r1:] @ t1_adj])
    lemma[:dD + rn] -= lemma_out
    residuals["lemma_U1"] = _rel(lemma, lemma_out)

    mu = spec.u(spec.n, 1)  # flip into merged (E1 before En) coordinate order
    abn_out = np.vstack([xs @ tn_adj, y[:r1]])
    residuals["eq_ABn"] = _rel(un @ np.vstack([xs, mu * (x[rn:] @ tn_adj)]) - abn_out, abn_out)
    residuals["eq_Cn"] = _rel(un[dD:, :dD] @ xs - y[:r1], y[:r1])
    residuals["defect_equality"] = defect_equality
    return TransferData(U=u, U1=u1, Un=un, frames=frames, residuals=residuals)


def build_transfer(spec: TupleSpec, coupling: CouplingData, layout: CoefficientLayout,
                   u: np.ndarray, defect_equality: float) -> TransferData:
    """``measure_transfer`` on the frames of ``build_V0``, its residuals gated in
    order: U1's and Un's at UNITARY_GATE times the dimension of the block
    unitary (unitarity) or of D (blocks), the others at IDENTITY_GATE."""
    transfer = measure_transfer(spec, layout, u, (coupling.X, coupling.Y), defect_equality)
    sizes = {"U1": len(transfer.U1), "Un": len(transfer.Un)}
    for name, value in transfer.residuals.items():
        tag, _, kind = name.partition("_")
        gate = (IDENTITY_GATE if tag not in sizes else
                UNITARY_GATE * (max(1.0, sizes[tag]) if kind == "unitarity" else layout.dim))
        if value > gate:
            raise IdentityResidualExceeded(name, value, gate)
    return transfer


def transfer_tau(spec: TupleSpec, transfer: TransferData, layout: CoefficientLayout,
                 fock: FockModel, which: int) -> list:
    """The terms of the transfer operator on the truncated model, read off U1 or Un alone.

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
    back = np.where(np.arange(fock.m) > 0, fock.merged_phases[:, 0], 1)
    kappa = np.array([merged_cost] + [spec.u(which, j) for j in range(2, spec.n)])
    return [(0, shift_block, back * kappa), (fock.m, adj(a), kappa)]


def dilated_isometries(spec: TupleSpec, transfer: TransferData, layout: CoefficientLayout,
                       fock: FockModel) -> FockFamily:
    """The dilated tuple (tau1, L_2, ..., L_{n-1}, taun) on the truncated model,
    then the merged creation operator L1, as one family, checked once: the
    creation terms of every merged slot come from one ``creation_terms`` call."""
    l1, *middles = creation_terms(fock, range(fock.m))
    return FockFamily(fock, [transfer_tau(spec, transfer, layout, fock, 1), *middles,
                             transfer_tau(spec, transfer, layout, fock, spec.n), l1])


def build_Pi(xs: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Dilation map Pi: H -> F_N(E) (x) D, whose cell-alpha block is xs (T^(alpha))*,
    (T^(alpha))* the row alpha of the merged tuple's power table ``powers``.

    ``xs`` = [X; 0] of ``pad_rows`` (h -> D_hatn h (+) D_hat1 t1* h) is cell 0's
    block, so the tuple and the layout fix Pi, whatever the completion;
    ``DilationModel`` forms Pi here, built or loaded alike.
    """
    return (xs @ powers).reshape(-1, xs.shape[1])


def truncation_tails(merged: TupleSpec, dhat_root: np.ndarray, N: int) -> np.ndarray:
    """Per-basis-vector tail ||h||^2 - sum_{|alpha|<=N} ||Dhat T*^(alpha) h||^2:
    the sum is the diagonal of the ``degree_layers`` of the CP maps
    phi_s(X) = t_s X t_s* from Dhat* Dhat, so a commutation error under the
    class gate does not enter the tails."""
    square = adj(dhat_root) @ dhat_root
    layers = degree_layers(lambda s, x: cp_apply(merged, s, x), merged.n, square, N)
    return 1.0 - np.real(np.diag(sum(layers)))


def simplex_mass(dhat_root: np.ndarray, powers: np.ndarray) -> np.ndarray:
    """Per-basis-vector sum of ||Dhat T*^(alpha) h||^2 over the cells, one row
    of the merged tuple's power table ``powers`` per cell."""
    return np.sum(np.abs(dhat_root @ powers) ** 2, axis=1).sum(axis=0)


def assemble_model(spec: TupleSpec, N: int = 4,
                   completion_seed: Optional[int] = None) -> DilationModel:
    """Run the whole construction and package the dilation model.  A degree
    ``N`` that is no integer >= 1, or a ``completion_seed`` (or None) that is
    no integer >= 0, is an input error, raised before any other work."""
    N = check_count(N, "truncation degree N", least=1)
    if completion_seed is not None:
        completion_seed = check_count(completion_seed, "completion seed")
    alg = effective_algebra(spec)
    defects, merged, eq_resid = build_defects(spec, alg)
    coupling = build_V0(spec, defects, alg)
    mult1 = solve_aux(spec, coupling)
    layout, u = build_U(spec, defects, coupling, mult1, completion_seed)
    transfer = build_transfer(spec, coupling, layout, u, eq_resid)
    return DilationModel(spec=spec, merged=merged, N=N, defects=defects, layout=layout,
                         transfer=transfer)
