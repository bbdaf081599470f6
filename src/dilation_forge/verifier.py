"""Independent numerical verification of the dilation identities.

Every check recomputes both sides of a proved identity from the assembled
model and reports a relative residual.  Interior restrictions make the
truncation error exactly zero on the compared subspace: margin 1 for
single-operator identities, margin 2 where two operators compose.

Fock operators are only ever applied to Pi, or composed with each other
cell by cell and the composite's blocks measured on the interior cells.  No
dim x dim product is formed.  One ``fock.TermTable`` per model
(``DilationModel.table``: the isometries, then L1) serves three checks, each
one stacked pass over the whole tuple.  The intertwinings apply every block
of the table to Pi in one batched product.  Every W_i* W_i and every ordered
product V_a V_b come from one ``TermTable.products`` call each, and all their
residuals and reference norms from one ``fock.group_norms`` reduction.  Both
transfer factorizations of V_1 and V_n are one more ``products`` call, their
residuals and the reference L1 one more ``group_norms`` reduction.

The isometry, commutation and factorization checks read only the fixed
cells, those of degree |alpha| <= N0 - margin with N0 = min(N, FIXED_DEGREE),
and give the model's residuals at any N.  Proof.  Every operator of the table
is a ``FockOperator`` whose per-cell phases (kappa, the shift phase) are
unimodular characters chi(alpha) = prod_s c_s^{alpha_s}, from
``FockModel.cell_phases``, so chi(alpha + delta) = chi(delta) chi(alpha).  A
block of a product of two terms from source cell alpha is then the product of
the two terms' characters at alpha (the left one conjugated in W* W) times a
matrix that depends on neither alpha nor N.  The displacement dst - src fixes
which shift terms a block used (tau1 and taun, the two operators that shift
in one slot, share their shift phase), so all blocks added at one cell pair
carry one common character, of modulus 1.  Each composite's squared
Frobenius norm is therefore a sum, over the kinds of block, of (the number of
cells of that kind) x (one block's squared norm).  Every kind already occurs
at alpha = 0 and alpha = e_s, which are fixed cells of margin 2 whenever
N >= FIXED_DEGREE = 3.  The kinds:

* V_a V_b - u(a,b) V_b V_a, V_1 V_n - L1 and V_n V_1 - u(n,1) L1, with
  their references V_b V_a and L1: one kind, the source cells with
  |alpha| <= N - 2.  Residual and reference scale with the same count, so
  the ratio on the cells with |alpha| <= N0 - 2 is the model's.
* W_i* W_i - I on the cells with |alpha| <= N - 1, as sources and as
  destinations: the diagonal blocks alpha -> alpha (the -I among them), on
  count(interior_cells(fock, 1)) cells; the blocks alpha -> alpha + e_s, on
  the count(interior_cells(fock, 2)) cells with |alpha| <= N - 2; and their
  adjoints alpha -> alpha - e_s, on the same number of cells.  Read on the
  fixed cells of margin 1, the diagonal blocks are scaled by the square root
  of count(interior_cells(fock, 1)) over the number of fixed cells of margin
  1, and the others by that of count(interior_cells(fock, 2)) over the number
  of fixed cells of margin 2 (``_cell_weight``).  The norm is then the
  model's, and the residual is divided by the model's unit
  sqrt(count(interior_cells(fock, 1)) * dim D).

For N <= FIXED_DEGREE the fixed cells are the model's and every weight is 1.
Equivariance stays at the model's N: its coordinate labels are powers of the
automorphisms along alpha, not characters, so its residual on the cells of
low degree is a different mixture.  The checks that read Pi (``pi``, the
intertwinings, the moments) stay at the model's N as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .builder import DilationModel, simplex_mass
from .fock import (FockModel, FockOperator, enumerate_indices, group_norms, interior_cells,
                   interior_projector, parent_rows)
from .linalg import adj, eye, frob_stack, rel_residual
from .tuples import invert_perm, ordered_power_products

DEFAULT_TOLERANCES = {
    "linear": 1e-10,   # single-operator intertwinings, isometries, equivariance
    "product": 1e-9,   # two-factor factorizations and commutation
    "pi": 1e-12,       # exact telescoping of the dilation map
    "moment": 1e-10,   # brute-force moment oracle (plus computed allowance)
}
MOMENT_MAXDEG = 3  # highest degree |beta| of the moment oracle
FIXED_DEGREE = 3   # highest cell degree the isometry, commutation and factorization checks read


@dataclass
class VerificationReport:
    residuals: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    tail_bounds: list = field(default_factory=list)
    config: dict = field(default_factory=dict)

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
                "failures": self.failures()}


def verify_pi(model: DilationModel) -> dict:
    """Exact telescoping: ||Pi h||^2 + tail(h) = ||h||^2 per basis vector.

    ``pi_isometry`` uses the assembled matrix (so it also exercises V);
    ``pi_tail_match`` recomputes the partial mass directly from defect
    products, independent of every dilation matrix.
    """
    col_mass = np.sum(np.abs(model.Pi) ** 2, axis=0)
    pi_isometry = float(np.max(np.abs(col_mass + model.tails - 1.0)))
    direct = simplex_mass(model.merged, model.defects["hat1n"].root, model.N)
    pi_tail_match = float(np.max(np.abs(direct + model.tails - 1.0)))
    return {"pi_isometry": pi_isometry, "pi_tail_match": pi_tail_match}


def verify_intertwining(model: DilationModel) -> dict:
    """Coextension identities (I_i x Pi) T_i* = V_i* Pi on interior cells,
    for the isometries V_1..V_n against T_1..T_n and for L1 against the
    merged generator.

    One stacked pass over ``model.table``: every block's adjoint times the Pi
    block of its destination cell is one batched product, added into its
    operator's source cells term by term, as ``FockOperator.apply_adj`` adds
    them; every residual is ``rel_residual``'s, from ``frob_stack``.
    """
    spec, fock, pi, table = model.spec, model.fock, model.Pi, model.table
    inner = interior_projector(fock, 1)
    y = pi.reshape(fock.cell_count, fock.coeff_dim, -1)
    blocks = adj(table.blocks) @ y[table.dst]
    out = np.zeros((len(table.count),) + y.shape, dtype=complex)
    for t in range(table.term.max() + 1):
        rows = table.term == t
        out[table.op[rows], table.src[rows]] += blocks[rows]
    ts = np.array([spec.op(i) for i in range(1, spec.n + 1)] + [model.merged.op(1)])
    lhs = out.reshape(len(ts), *pi.shape)[:, inner]
    rhs = (pi @ adj(ts))[:, inner]
    resid = frob_stack(lhs - rhs) / np.maximum(1.0, frob_stack(rhs))
    names = (["dilation1_tau1"] + [f"dilation_L{i}" for i in range(2, spec.n)]
             + ["dilation2_taun", "dilationV_L1"])
    return dict(zip(names, resid.tolist()))


def _fixed_cells(fock: FockModel, margin: int) -> np.ndarray:
    """Boolean mask of the cells with |alpha| <= min(N, FIXED_DEGREE) - margin."""
    return interior_cells(fock, fock.N - min(fock.N, FIXED_DEGREE) + margin)


def _cell_weight(fock: FockModel, margin: int) -> float:
    """sqrt(model cells / fixed cells) at ``margin``: the factor that makes the
    blocks of the fixed cells of one kind carry the norm of all the model's."""
    return float(np.sqrt(np.count_nonzero(interior_cells(fock, margin))
                         / np.count_nonzero(_fixed_cells(fock, margin))))


def verify_factorization(model: DilationModel) -> dict:
    """Transfer products against the merged creation operator.

    tau1 (I x taun) equals the merged creation L1; the reversed product equals
    it up to the flip phase u(n,1) that re-orders the two fused factors.  Both
    products are compared on the source cells with |alpha| <= N0 - min(2, N),
    N0 = min(N, FIXED_DEGREE), relative to L1 there: every source cell carries
    the same blocks up to one character, so the ratios are those on the
    model's cells with |alpha| <= N - min(2, N) (see the module docstring).
    V_1 V_n and V_n V_1 come from one ``TermTable.products`` call and every
    norm from one ``group_norms`` reduction, whose groups are V_1 V_n - L1,
    V_n V_1 - u(n,1) L1 and L1.
    """
    fock, table, n = model.fock, model.table, model.spec.n
    src = _fixed_cells(fock, min(2, fock.N))
    _, p, to, start, vv = table.products(table, [0, n - 1], [n - 1, 0], src=src)
    l1_to, l1_start, l1 = model.L1.terms[0]  # a creation operator has one term
    keep = src[l1_start]
    l1_to, l1_start, l1 = l1_to[keep], l1_start[keep], l1[keep]
    flip = model.spec.u(model.spec.n, 1)
    norms = group_norms(fock, np.concatenate([p, np.arange(3).repeat(len(l1))]),
                        np.concatenate([to, np.tile(l1_to, 3)]),
                        np.concatenate([start, np.tile(l1_start, 3)]),
                        np.concatenate([vv, -l1, -flip * l1, l1]), 3)
    ref = max(1.0, float(norms[2]))
    return {"factor_tau12": float(norms[0]) / ref, "factor_tau21": float(norms[1]) / ref}


def verify_isometric_representation(model: DilationModel) -> dict:
    """Each dilated operator is isometric on interior cells and the family
    u-commutes with the original phase table.

    With N0 = min(N, FIXED_DEGREE), W*W - I is measured on the cells with
    |alpha| <= N0 - 1, as sources and as destinations, its diagonal blocks
    (the -I among them) weighted by ``_cell_weight`` at margin 1 and its
    blocks alpha -> alpha +- e_s by that at margin 2, relative to
    sqrt(#interior coordinates of the model); V_i V_j - u(i,j) V_j V_i on the
    source cells with |alpha| <= N0 - min(2, N), relative to V_j V_i there.
    Every cell of one kind carries the same blocks up to one character, so
    these are the residuals on the model's cells with |alpha| <= N - 1 and
    N - min(2, N) (see the module docstring).  One pass: all W_i* W_i, and all
    ordered V_a V_b, come from one ``TermTable.products`` call each, and every
    norm from one ``group_norms`` reduction, whose group i - 1 is
    W_i* W_i - I, group n + p the p-th of the P pairs i < j (``combinations``
    order) and group n + P + p that pair's reference V_j V_i.
    """
    spec, fock, ws = model.spec, model.fock, model.isometries
    n, d = len(ws), fock.coeff_dim
    inner = _fixed_cells(fock, 1)
    src = _fixed_cells(fock, min(2, fock.N))
    unit = max(1.0, np.sqrt(np.count_nonzero(interior_cells(fock, 1)) * d))
    on, off = _cell_weight(fock, 1), _cell_weight(fock, min(2, fock.N))
    table, every, cells = model.table, np.arange(n), np.flatnonzero(inner)
    _, w_group, w_to, w_start, wtw = table.products(table, every, every, adjoint=True,
                                                    src=inner, dst=inner)
    wtw *= np.where(w_to == w_start, on, off)[:, None, None]
    pairs = list(combinations(range(n), 2))
    lo, hi = np.array(pairs, dtype=int).reshape(-1, 2).T
    # V_i V_j for every pair p, then V_j V_i for every pair as p + len(pairs)
    _, p, to, start, vv = table.products(table, np.concatenate([lo, hi]),
                                         np.concatenate([hi, lo]), src=src)
    swapped = p >= len(pairs)
    p %= len(pairs)
    ref = vv[swapped]
    vv[swapped] *= -spec.phases[lo, hi][p[swapped], None, None]
    blocks = np.concatenate([wtw, np.broadcast_to(-on * np.eye(d), (n * len(cells), d, d)), vv,
                             ref])
    del wtw, vv, ref  # keep one copy of the blocks through the reduction
    norms = group_norms(
        fock,
        np.concatenate([w_group, every.repeat(len(cells)), n + p, n + len(pairs) + p[swapped]]),
        np.concatenate([w_to, np.tile(cells, n), to, to[swapped]]),
        np.concatenate([w_start, np.tile(cells, n), start, start[swapped]]),
        blocks, n + 2 * len(pairs))
    out = {f"isometry_v{i + 1}": float(norms[i] / unit) for i in range(n)}
    diff, ref = norms[n:n + len(pairs)], np.maximum(1.0, norms[n + len(pairs):])
    out.update((f"commute_{i + 1}_{j + 1}", float(diff[q] / ref[q]))
               for q, (i, j) in enumerate(pairs))
    return out


def verify_moments(model: DilationModel) -> dict:
    """Brute-force oracle <Pi h, V^beta Pi g> = <h, T^beta g> over all basis pairs.

    V^beta = V_1^{beta_1} ... V_n^{beta_n}.  One (betas, dim, dimH) memo over
    the rows of ``enumerate_indices(n, MOMENT_MAXDEG)`` holds (V^beta)* Pi =
    V_s* (V^{beta - e_s})* Pi, s the last non-zero slot of beta, from one
    ``apply_adj`` per (degree, s) group on its predecessors side by side.  It
    gives both sides, Pi* V^beta Pi = ((V^beta)* Pi)* Pi, and
    ``tuples.ordered_power_products`` gives (T^beta)* on the same rows.  At
    finite truncation the identity holds only up to the dropped mass, so the
    entry comes with a computed ``moment_allowance``: the spectral defect of
    Pi*Pi plus the largest operator-norm gap between V^beta* Pi and Pi T^beta*,
    from the gaps' dimH x dimH Gram eigenvalues.  Both vanish when the tuple
    is nilpotent enough for the truncation to be exact.
    """
    spec, pi, ws = model.spec, model.Pi, model.isometries
    betas = enumerate_indices(spec.n, min(MOMENT_MAXDEG, max(model.N - 1, 0)))
    tadj = ordered_power_products(spec, betas)
    slot, parent = parent_rows(betas, last=True)
    group = betas.sum(axis=1) * spec.n + slot  # (degree, slot) pairs, in degree order
    back = np.empty((len(betas),) + pi.shape, dtype=complex)
    back[0] = pi
    for g in np.unique(group[1:]):
        rows, s = np.flatnonzero(group == g), g % spec.n
        cols = back[parent[rows]].transpose(1, 0, 2).reshape(len(pi), -1)
        back[rows] = ws[s].apply_adj(cols).reshape(len(pi), len(rows), -1).transpose(1, 0, 2)
    residual = float(np.max(np.abs(adj(back) @ pi - adj(tadj))))
    diff = back[1:] - pi @ tadj[1:]
    gap = float(np.sqrt(np.max(np.linalg.eigvalsh(adj(diff) @ diff), initial=0.0)))
    gram_defect = eye(spec.dimH) - adj(pi) @ pi
    lam = float(max(0.0, np.max(np.linalg.eigvalsh(0.5 * (gram_defect + adj(gram_defect))))))
    return {"moment_match": residual, "moment_allowance": gap + lam}


def _fock_covariance(w: FockOperator, labels: np.ndarray, q: int, p: int) -> float:
    """rel_residual(W rho(q) - rho(p) W, rho(p) W) for rho the indicators of coordinate labels.

    The difference has entries W_ij ([label_j = q] - [label_i = p]): a sum over W's blocks.
    """
    delta = ref = 0.0
    for dst, src, blocks in w.terms:
        mass = np.abs(blocks) ** 2
        rows, cols = labels[dst] == p, labels[src] == q
        delta += float(np.sum(mass * (rows[:, :, None] != cols[:, None, :])))
        ref += float(np.sum(mass * rows[:, :, None]))
    return float(np.sqrt(delta) / max(1.0, np.sqrt(ref)))


def verify_equivariance(model: DilationModel) -> dict:
    """Algebra covariance of U1, Un and of the dilated isometries.

    Read on every cell of the model, not on the fixed cells: the coordinate
    labels are automorphism powers along alpha, not characters, so the cells
    of low degree do not stand for the others (see the module docstring).
    """
    spec = model.spec
    if spec.algebra is None:
        return {}
    alg, ident = spec.algebra, range(spec.algebra.k)
    g1n = model.merged.algebra.automorphisms[0]
    a1, an = alg.automorphisms[0], alg.automorphisms[spec.n - 1]
    out = {}
    # M rho_dom - rho_cod M has entries M_ij ([dom_j = p] - [cod_i = p])
    for name, mat, (dom, cod) in (("equiv_U1", model.transfer.U1, model.layout.U1_labels),
                                  ("equiv_Un", model.transfer.Un, model.layout.Un_labels)):
        out[name] = max(rel_residual(mat * ((dom == p)[None, :] != (cod == p)[:, None]), mat)
                        for p in ident)
    labels = model.coordinate_labels()
    perms = [a1] + [alg.automorphisms[i - 1] for i in range(2, spec.n)] + [an]
    for i, (w, perm) in enumerate(zip(model.isometries, perms), start=1):
        inv = invert_perm(perm)
        out[f"equiv_v{i}"] = max(_fock_covariance(w, labels, inv[p], p) for p in ident)
    inv_g = invert_perm(g1n)
    out["equiv_L1"] = max(_fock_covariance(model.L1, labels, inv_g[p], p) for p in ident)
    return out


def full_report(model: DilationModel, tolerances: dict | None = None) -> VerificationReport:
    """Run every verifier and aggregate residuals with per-identity verdicts."""
    tol = dict(DEFAULT_TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    report = VerificationReport(config={"tolerances": tol, "N": model.N,
                                        "fixed_degree": min(model.N, FIXED_DEGREE),
                                        "moment_maxdeg": MOMENT_MAXDEG})
    report.tail_bounds = [float(t) for t in model.tails]

    groups = [
        (verify_pi(model), "pi"),
        (verify_intertwining(model), "linear"),
        (verify_isometric_representation(model), "linear"),
        (verify_factorization(model), "product"),
        (verify_equivariance(model), "linear"),
    ]
    for entries, kind in groups:
        for name, value in entries.items():
            report.residuals[name] = value
            report.verdicts[name] = value <= tol[kind]

    moments = verify_moments(model)
    report.residuals.update(moments)
    report.verdicts["moment_match"] = (
        moments["moment_match"] <= tol["moment"] + moments["moment_allowance"])
    return report
