"""Independent numerical verification of the dilation identities.

Every check recomputes both sides of a proved identity from the assembled
model and reports a relative residual.  Interior restrictions make the
truncation error exactly zero on the compared subspace: margin 1 for
single-operator identities, margin 2 where two operators compose.

Every check reads the model's one checked family of Fock operators,
``DilationModel.isometries`` (tau1, L_2, ..., taun, then L1), applied only to
Pi and never composed cell by cell.  The isometry, commutation and
factorization residuals are norms of sums of its products in closed form from
the d x d blocks and characters, reading no cell, so that their time and
memory do not depend on N: ``fock.isometry_defects`` gives each W_i* W_i - I,
and one ``fock.product_norms`` call every V_a V_b - u(a,b) V_b V_a and its
reference V_b V_a, both transfer factorizations and the reference L1.

The closed form counts cells.  Let m = n - 1 and C(K) = comb(m + K, m), the
number of cells with |alpha| <= K (0 for K < 0).  Every term of tau1, the
L_i, taun and L1 is a d x d block M, which does not depend on the cell, times
a unimodular character chi(alpha) = prod_s c_s^alpha_s of its source cell,
and moves alpha to alpha + delta, delta = e_s or 0.  A product of two terms
from source cell alpha is chi_l(delta_r) (chi_l chi_r)(alpha) M_l M_r, at
the displacement Delta = delta_l + delta_r.  In the construction every term
pair of one composite that lands at one Delta carries the same character:
tau1 and taun share the coefficient-end cost of the merged slot, and the
product of their kappa costs with it is trivial, the character of L1.  So a
composite's squared norm is sum_Delta count(Delta) ||sum coef
chi_l(delta_r) M_l M_r||^2:

* W_i* W_i - I on the cells with |alpha| <= N - 1, as sources and as
  destinations, with D the cellwise block of W_i (0 for a creation operator)
  and S its shift block: D*D + S*S - I from alpha to alpha on C(N - 1)
  cells, D*S from alpha to alpha + e_s on the C(N - 2) cells with
  |alpha| <= N - 2, and its adjoint S*D on as many.  So isometry_v_i =
  sqrt(C(N - 1) ||D*D + S*S - I||^2 + 2 C(N - 2) ||D*S||^2), divided by the
  unit max(1, sqrt(C(N - 1) d)), whatever the characters (``isometry_defects``).
* V_a V_b - u(a,b) V_b V_a, V_1 V_n - L1 and V_n V_1 - u(n,1) L1, and their
  references V_b V_a and L1, have one kind of cell: the C(N - min(2, N))
  source cells.  At N = 1 the term pairs with |Delta| = 2 fall past the
  truncation and drop out.  Residual and reference scale with the same
  count, and the residual is their ratio, relative to max(1, reference).

``product_norms`` does not take the shared character on trust: products at
one Delta whose characters differ add their inner products times sums of the
characters' deviations over the cells, so a wrong phase in an operator, of
any size, shows in these residuals as it would on the cells.

Equivariance counts cells as well.  rho(p) is the indicator of the
coordinates labelled p, and cell alpha's labels are g(alpha) = prod_s
a_s^{alpha_s} of D's, for the merged automorphisms, which commute.  So a term
(slot s, block M) of W, of automorphism a_W, puts W rho(a_W^{-1}(p)) -
rho(p) W at (i, j) of a source cell alpha exactly when [g(alpha)(x_i) = p] xor
[g(alpha)(y_j) = p], x = a_s(D) (D for the cellwise slot s = m) and y = a_W(D); with
N[p, q] = #{alpha : g(alpha)(q) = p} over its source cells, its squared
residual is sum_q N[p, q] sum_ij |M_ij|^2 ([x_i = q][y_j != q] + [x_i != q]
[y_j = q]), its squared reference sum_q N[p, q] sum_ij |M_ij|^2 [x_i = q].
The intertwinings and the moments stay per cell: they read the family's
adjoints applied to Pi (``DilationModel.pi_adjoints``), whose cells carry the
powers T*^alpha.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb

import numpy as np

from .builder import DilationModel, simplex_mass
from .fock import (apply_adjoints, degree_layers, enumerate_indices, interior_projector,
                   isometry_defects, product_norms)
from .linalg import adj, eye, frob, frob_stack

TOLERANCES = {
    "linear": 1e-10,   # single-operator intertwinings, isometries, commutation, equivariance
    "product": 1e-9,   # the two-factor transfer factorizations (PRODUCT_GATED)
    "pi": 1e-12,       # exact telescoping of the dilation map
    "moment": 1e-10,   # brute-force moment oracle (plus computed allowance)
}
PRODUCT_GATED = ("factor_tau12", "factor_tau21")  # every other product norm at "linear"
MOMENT_MAXDEG = 3  # highest degree |beta| of the moment oracle


@dataclass
class VerificationReport:
    residuals: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    tail_bounds: list = field(default_factory=list)
    config: dict = field(default_factory=dict)
    construction: dict = field(default_factory=dict)  # the model's, measured and not gated

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def failures(self) -> list[str]:
        return [k for k, ok in self.verdicts.items() if not ok]

    def to_dict(self) -> dict:
        return {"residuals": {k: float(v) for k, v in self.residuals.items()},
                "verdicts": {k: bool(v) for k, v in self.verdicts.items()},
                "tail_bounds": [float(t) for t in self.tail_bounds],
                "config": self.config,
                "passed": bool(self.passed),
                "failures": self.failures(),
                "construction_residuals": {k: float(v) for k, v in self.construction.items()}}


def verify_pi(model: DilationModel) -> dict:
    """Exact telescoping: ||Pi h||^2 + tail(h) = ||h||^2 per basis vector.

    ``pi_isometry`` uses the assembled matrix Pi;
    ``pi_tail_match`` recomputes the partial mass directly from defect products
    (the merged defect root times the model's power table), independent of Pi.
    """
    col_mass = np.sum(np.abs(model.Pi) ** 2, axis=0)
    pi_isometry = float(np.max(np.abs(col_mass + model.tails - 1.0)))
    direct = simplex_mass(model.defects["hat1n"].root, model.powers)
    pi_tail_match = float(np.max(np.abs(direct + model.tails - 1.0)))
    return {"pi_isometry": pi_isometry, "pi_tail_match": pi_tail_match}


def verify_intertwining(model: DilationModel) -> dict:
    """Coextension identities (I_i x Pi) T_i* = V_i* Pi on interior cells, for
    V_1..V_n against T_1..T_n and L1 against the merged generator: the
    model's ``pi_adjoints``, ``rel_residual`` by ``frob_stack``."""
    spec, pi = model.spec, model.Pi
    inner = interior_projector(model.fock, 1)
    lhs = model.pi_adjoints[:, inner]
    ts = np.concatenate([spec.blocks[:, 0], model.merged.blocks[:1, 0]])
    rhs = (pi @ adj(ts))[:, inner]
    resid = frob_stack(lhs - rhs) / np.maximum(1.0, frob_stack(rhs))
    names = (["dilation1_tau1"] + [f"dilation_L{i}" for i in range(2, spec.n)]
             + ["dilation2_taun", "dilationV_L1"])
    return dict(zip(names, resid.tolist()))


def verify_isometric_representation(model: DilationModel) -> dict:
    """Each dilated operator is isometric on interior cells, the family
    u-commutes with the original phase table, and tau1 (I x taun) is the
    merged creation L1, the reversed product L1 up to the flip phase u(n,1)
    that re-orders the two fused factors.

    ``isometry_defects`` measures W*W - I relative to sqrt(#interior
    coordinates); one ``product_norms`` call (see the module docstring) the
    products on the source cells with |alpha| <= N - min(2, N): group q is
    the q-th pair i < j (``combinations`` order), Q + q its V_j V_i, and the
    last three V_1 V_n - L1, V_n V_1 - u(n,1) L1 and their reference L1.
    """
    spec, fock, n = model.spec, model.fock, model.spec.n
    lo, hi = np.array(list(combinations(range(n), 2)), dtype=int).reshape(-1, 2).T
    pairs, q = len(lo), np.arange(len(lo))
    fac = 2 * pairs  # ops index n: L1, n + 1: the identity
    norms = product_norms(
        model.isometries,
        left=np.concatenate([lo, hi, hi, [0, n + 1, n - 1, n + 1, n + 1]]),
        right=np.concatenate([hi, lo, lo, [n - 1, n, 0, n, n]]),
        coef=np.concatenate([np.ones(pairs), -spec.phases[lo, hi], np.ones(pairs),
                             [1.0, -1.0, 1.0, -spec.u(n, 1), 1.0]]),
        group=np.concatenate([q, q, pairs + q, [fac, fac, fac + 1, fac + 1, fac + 2]]),
        src=np.full(fac + 3, min(2, fock.N)))
    unit = max(1.0, np.sqrt(comb(fock.m + fock.N - 1, fock.m) * fock.coeff_dim))
    out = {f"isometry_v{i + 1}": float(v / unit)
           for i, v in enumerate(isometry_defects(model.isometries)[:n])}
    # the commutators and factorizations, each over its reference
    diff = norms[np.concatenate([q, [fac, fac + 1]])]
    ref = np.maximum(1.0, norms[np.concatenate([pairs + q, [fac + 2, fac + 2]])])
    names = [f"commute_{i + 1}_{j + 1}" for i, j in zip(lo, hi)] + list(PRODUCT_GATED)
    out.update(zip(names, (diff / ref).tolist()))
    return out


def verify_factorization(model: DilationModel) -> dict:
    """The ``factor_*`` entries of ``verify_isometric_representation``."""
    out = verify_isometric_representation(model)
    return {name: out[name] for name in PRODUCT_GATED}


def moment_degree(model: DilationModel) -> int:
    """The highest |beta| the moment oracle checks: below N, and at most MOMENT_MAXDEG."""
    return min(MOMENT_MAXDEG, model.N - 1)


def verify_moments(model: DilationModel) -> dict:
    """Brute-force oracle <Pi h, V^beta Pi g> = <h, T^beta g> over all basis pairs.

    V^beta = V_1^{beta_1} ... V_n^{beta_n}.  The betas are the rows of
    ``enumerate_indices(n, moment_degree(model))`` read with the slots reversed, so a
    row's first unit j is beta's last, s = n - 1 - j, and its parent link is
    beta - e_s.  One walk down that tree fills the (betas, dim, dimH) memo
    (V^beta)* Pi = V_s* (V^{beta - e_s})* Pi, the degree-1 rows from the
    model's ``pi_adjoints``, each deeper (degree, s) group by one ``apply_adjoints``
    on its parents side by side, and the table (T^beta)* = t_s* (T^{beta - e_s})*;
    the memo gives both sides, (Pi* V^beta Pi)* = Pi* ((V^beta)* Pi) against
    (T^beta)*, with no conjugate copy of the memo.  At finite truncation the
    identity holds only up to the dropped mass, so the entry comes with a
    computed ``moment_allowance``: the spectral defect of Pi*Pi plus the
    largest operator-norm gap between V^beta* Pi and Pi T^beta*, from the
    gaps' dimH x dimH Gram eigenvalues; the gaps overwrite the memo, and each
    Gram is one real product of a gap's real and imaginary parts side by side.
    Both vanish when the tuple is nilpotent enough for the truncation to be exact.
    """
    spec, pi, ws, n = model.spec, model.Pi, model.isometries, model.spec.n
    cells, slot, parent = enumerate_indices(n, moment_degree(model))
    group = cells.sum(axis=1) * n + n - 1 - slot  # (degree, beta's last slot), in degree order
    ops = adj(spec.blocks[:, 0])
    tadj = np.empty((len(cells), spec.dimH, spec.dimH), dtype=complex)
    back = np.empty((len(cells),) + pi.shape, dtype=complex)
    tadj[0], back[0] = eye(spec.dimH), pi
    if len(cells) > 1:  # row 1 + j is beta = e_s, s = n - 1 - j
        tadj[1:n + 1], back[1:n + 1] = ops[::-1], model.pi_adjoints[n - 1::-1]
    for g in np.unique(group[n + 1:]):
        rows, s = np.flatnonzero(group == g), g % n
        tadj[rows] = ops[s] @ tadj[parent[rows]]
        cols = back[parent[rows]].transpose(1, 0, 2).reshape(len(pi), -1)
        back[rows] = apply_adjoints(ws[s], cols).reshape(len(pi), len(rows), -1).swapaxes(0, 1)
    pi_adj = adj(pi)
    residual = float(np.max(np.abs(pi_adj @ back - tadj)))
    back[1:] -= pi @ tadj[1:]  # the gaps V^beta* Pi - Pi T^beta*, in place
    flat = back[1:].view(float)  # real and imaginary parts of each column side by side
    real = (flat.swapaxes(-1, -2) @ flat).reshape(-1, spec.dimH, 2, spec.dimH, 2)
    gram = (real[:, :, 0, :, 0] + real[:, :, 1, :, 1]
            + 1j * (real[:, :, 0, :, 1] - real[:, :, 1, :, 0]))  # each gap's G* G
    gap = float(np.sqrt(np.max(np.linalg.eigvalsh(gram), initial=0.0)))
    gram_defect = eye(spec.dimH) - pi_adj @ pi
    lam = float(max(0.0, np.max(np.linalg.eigvalsh(0.5 * (gram_defect + adj(gram_defect))))))
    return {"moment_match": residual, "moment_allowance": gap + lam}


def _relabel_counts(autos: np.ndarray, N: int) -> np.ndarray:
    """(N + 2, k, k): entry K + 1 is N[p, q] over the cells with |alpha| <= K,
    entry 0 zero; the sum of prod_s P_s^{alpha_s}, P_s the permutation matrix
    of a_s (row s of ``autos``), by ``degree_layers``."""
    m, k = autos.shape
    perms = (autos[:, None, :] == np.arange(k)[:, None]).astype(float)  # [s, p, q]: a_s(q) = p
    layers = degree_layers(lambda s, x: perms[s - 1] @ x, m, np.eye(k), N)
    return np.cumsum([np.zeros((k, k))] + layers, axis=0)


def _covariance(model: DilationModel, autos) -> np.ndarray:
    """(operators, k): the relative residual of W rho(a_W^{-1}(p)) - rho(p) W
    against rho(p) W for W = tau1, L_2, ..., taun, L1, a_W the rows of
    ``autos``, and each component p (see the module docstring)."""
    merged, labels = model.merged.algebra.automorphisms, model.layout.D
    family, k = model.isometries, merged.shape[1]
    owner, slots = family.owner, family.slots
    x = np.vstack([merged, np.arange(k)])[slots][:, labels]  # row m: a cellwise term's identity
    rows = (x[..., None] == np.arange(k)).astype(float)  # [x_i = q]
    cols = (autos[owner][:, labels, None] == np.arange(k)).astype(float)  # [y_j = q]
    mass = np.abs(family.blocks) ** 2
    mismatch = np.sum(rows * (mass @ (1.0 - cols)) + (1.0 - rows) * (mass @ cols), axis=1)  # F
    total = np.sum(rows * mass.sum(axis=2, keepdims=True), axis=1)  # R
    # a shift term's sources are the cells with |alpha| <= N - 1, a cellwise term's all
    counts = _relabel_counts(merged, model.N)[model.N + (slots == model.fock.m)]
    squares = np.zeros((len(family), 2, k))
    np.add.at(squares, owner, np.einsum("tpq,tcq->tcp", counts, np.stack([mismatch, total], 1)))
    return np.sqrt(squares[:, 0]) / np.maximum(1.0, np.sqrt(squares[:, 1]))


def verify_equivariance(model: DilationModel) -> dict:
    """Algebra covariance of U1, Un and of the dilated isometries, the latter
    in closed form from cell 0's labels and the cell counts per relabelling
    (see the module docstring): no cell is read."""
    spec, alg, out = model.spec, model.spec.algebra, {}
    if alg is None:
        return out
    # M rho_dom - rho_cod M has entries M_ij ([dom_j = p] - [cod_i = p]), for every p at once
    comp = np.arange(alg.k)[:, None, None]
    for name, mat, (dom, cod) in (("equiv_U1", model.transfer.U1, model.layout.U1_labels),
                                  ("equiv_Un", model.transfer.Un, model.layout.Un_labels)):
        out[name] = float(frob_stack(mat * ((dom == comp) != (cod[:, None] == comp))).max()
                          / max(1.0, frob(mat)))
    autos = np.concatenate([alg.automorphisms, model.merged.algebra.automorphisms[:1]])
    names = [f"equiv_v{i}" for i in range(1, spec.n + 1)] + ["equiv_L1"]
    out.update(zip(names, np.max(_covariance(model, autos), axis=1).tolist()))
    return out


def full_report(model: DilationModel) -> VerificationReport:
    """Run every verifier, gate its residuals at ``TOLERANCES``, and carry the
    model's construction residuals."""
    report = VerificationReport(config={"tolerances": dict(TOLERANCES), "N": model.N,
                                        "moment_maxdeg": moment_degree(model)},
                                construction=dict(model.transfer.residuals))
    report.tail_bounds = [float(t) for t in model.tails]

    for entries, kind in ((verify_pi(model), "pi"), (verify_intertwining(model), "linear"),
                          (verify_isometric_representation(model), "linear"),  # but PRODUCT_GATED
                          (verify_equivariance(model), "linear")):
        for name, value in entries.items():
            report.residuals[name] = value
            report.verdicts[name] = value <= TOLERANCES["product" if name in PRODUCT_GATED
                                                        else kind]

    moments = verify_moments(model)
    report.residuals.update(moments)
    report.verdicts["moment_match"] = (
        moments["moment_match"] <= TOLERANCES["moment"] + moments["moment_allowance"])
    return report
