"""Seeded generators of example tuples, positive and negative.

The dilatable class has no usable parametrization, so the positive styles
build structurally commuting families and shrink them until classification
passes with a safety margin (rejection loop).  Purity is structural for the
nilpotent styles; Szego positivity always holds for small enough scale.
"""

from __future__ import annotations

import numpy as np

from .errors import GenerationFailed
from .tuples import AlgebraStructure, TupleSpec, class_gate

STYLES = ("jointly-nilpotent", "scaled-commuting", "u-commuting", "covariant")
MARGIN = 1e-6  # minimum Szego eigenvalue and purity gap required of generated tuples


def _crandn(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _scale_into_class(ops, phases=None, algebra=None) -> TupleSpec:
    """Shrink all operators geometrically, at most 60 times, until the class
    gate passes with margin."""
    scale = 1.0
    for _ in range(60):
        spec = TupleSpec.from_operators([scale * t for t in ops], phases=phases, algebra=algebra)
        report, _, _ = class_gate(spec)
        radii_ok = all(r <= 1.0 - MARGIN for r in report.purity_radii[:-1])
        szego_ok = (report.szego_hat1.min_eig >= MARGIN and report.szego_hatn.min_eig >= MARGIN)
        if report.in_T1n and report.is_contraction_tuple and radii_ok and szego_ok:
            return spec
        scale *= 0.8
    raise GenerationFailed("could not scale the candidate tuple into the class")


def _commuting_polynomials(rng: np.random.Generator, n: int, dim: int,
                           nilpotent: bool) -> list[np.ndarray]:
    """Commuting family p_i(A) for a single upper-triangular seed matrix A."""
    a = np.triu(_crandn(rng, (dim, dim)), k=1)
    if not nilpotent:
        a = a + np.diag(0.5 * _crandn(rng, dim))
    a /= max(1.0, np.linalg.norm(a, 2))
    powers = [np.eye(dim, dtype=complex)]
    for _ in range(dim - 1):
        powers.append(powers[-1] @ a)
    ops = []
    lo = 1 if nilpotent else 0
    for _ in range(n):
        coeffs = _crandn(rng, dim)
        t = sum((coeffs[k] * powers[k] for k in range(lo, dim)),
                start=np.zeros((dim, dim), dtype=complex))
        ops.append(t / max(1.0, np.linalg.norm(t, 2)))
    return ops


def jointly_nilpotent(rng: np.random.Generator, n: int, dim: int) -> TupleSpec:
    return _scale_into_class(_commuting_polynomials(rng, n, dim, nilpotent=True))


def scaled_commuting(rng: np.random.Generator, n: int, dim: int) -> TupleSpec:
    return _scale_into_class(_commuting_polynomials(rng, n, dim, nilpotent=False))


def _weighted_shift(rng: np.random.Generator, dim: int) -> np.ndarray:
    s = np.zeros((dim, dim), dtype=complex)
    weights = 0.3 + 0.7 * rng.random(dim - 1)
    for j in range(dim - 1):
        s[j + 1, j] = weights[j]
    return s


def u_commuting(rng: np.random.Generator, n: int, dim: int,
                phase_pool=(1, -1, 1j, -1j)) -> TupleSpec:
    """Weighted shift / diagonal pairs realizing unimodular commutation phases.

    n = 2: (S, D_q) with D_q S = q S D_q.  n = 3: a Kronecker pair of such
    systems sharing a diagonal, giving nontrivial phases on two of the three
    pairs (the third commutes).
    """
    q1 = complex(phase_pool[rng.integers(len(phase_pool))])
    if n == 2:
        s = _weighted_shift(rng, dim)
        d = np.diag(np.asarray([q1 ** j for j in range(dim)], dtype=complex))
        d = d * (0.4 + 0.5 * rng.random())
        # D S = q S D, so t1 t2 = conj(q) t2 t1
        phases = np.asarray([[1, np.conj(q1)], [q1, 1]])
        return _scale_into_class([s, d], phases=phases)
    if n == 3:
        q2 = complex(phase_pool[rng.integers(len(phase_pool))])
        da, db = max(2, dim // 2), 2
        sa = _weighted_shift(rng, da)
        sb = _weighted_shift(rng, db)
        qa = np.diag(np.asarray([q1 ** j for j in range(da)], dtype=complex))
        qb = np.diag(np.asarray([q2 ** j for j in range(db)], dtype=complex))
        t1 = np.kron(sa, np.eye(db))
        t2 = (0.4 + 0.5 * rng.random()) * np.kron(qa, qb)
        t3 = np.kron(np.eye(da), sb)
        phases = np.asarray([
            [1, np.conj(q1), 1],
            [q1, 1, q2],
            [1, np.conj(q2), 1],
        ])
        return _scale_into_class([t1, t2, t3], phases=phases)
    raise GenerationFailed("u-commuting style supports n in {2, 3}")


def covariant(rng: np.random.Generator, n: int, dimH: int, k: int = 2,
              automorphisms=None) -> TupleSpec:
    """Block-patterned tuple covariant for C^k with commuting permutations.

    H = C^k (x) C^width with width = dimH / k, t_i = P_i (x) B_i with P_i the
    permutation matrix of alpha_i and B_i drawn from a commuting nilpotent
    family.  ``dimH`` must be a positive multiple of ``k``.
    """
    if dimH < k or dimH % k:
        raise GenerationFailed(f"covariant style needs dimH a positive multiple of k = {k}, "
                               f"got dimH={dimH}")
    width = dimH // k
    if automorphisms is None:
        cycle = [(j + 1) % k for j in range(k)]
        pool = [list(range(k)), cycle]
        automorphisms = [list(pool[rng.integers(2)]) for _ in range(n)]
    perms = []
    for a in automorphisms:
        p = np.zeros((k, k), dtype=complex)
        for r in range(k):
            p[a[r], r] = 1.0
        perms.append(p)
    bs = _commuting_polynomials(rng, n, width, nilpotent=True)
    ops = [np.kron(p, b) for p, b in zip(perms, bs)]
    algebra = AlgebraStructure(k=k, block_of=[p for p in range(k) for _ in range(width)],
                               automorphisms=[list(a) for a in automorphisms])
    return _scale_into_class(ops, algebra=algebra)


def random_tuple(style: str, n: int, dimH: int, seed: int, **kwargs) -> TupleSpec:
    """Dispatch by style name; deterministic in (style, n, dimH, seed)."""
    if n < 2 or dimH < 1:
        raise GenerationFailed(f"need n >= 2 and dimH >= 1, got n={n}, dimH={dimH} (the "
                               "dilatable class has n >= 2; a single contraction T dilates "
                               "as the pair (T, 0))")
    rng = np.random.default_rng(seed)
    if style == "jointly-nilpotent":
        return jointly_nilpotent(rng, n, dimH)
    if style == "scaled-commuting":
        return scaled_commuting(rng, n, dimH)
    if style == "u-commuting":
        return u_commuting(rng, n, dimH)
    if style == "covariant":
        return covariant(rng, n, dimH, **kwargs)
    raise GenerationFailed(f"unknown style {style!r}; choose from {STYLES}")


def parrott_tuple() -> TupleSpec:
    """The canonical negative control: commuting contractions without dilation.

    Nilpotent 2x2-block pattern built from three non-commuting unitaries; all
    pairwise products vanish, so the tuple commutes, but deleting any index
    leaves a non-PSD Szego operator.
    """
    a1 = np.eye(2, dtype=complex)
    a2 = np.asarray([[0, 1], [1, 0]], dtype=complex)
    a3 = np.asarray([[1, 0], [0, -1]], dtype=complex)
    ops = []
    for a in (a1, a2, a3):
        t = np.zeros((4, 4), dtype=complex)
        t[2:, :2] = a
        ops.append(t)
    return TupleSpec.from_operators(ops)


def scalar_triple(a: float = 0.5, b: float = 0.4, c: float = 0.3) -> TupleSpec:
    return TupleSpec.from_operators([np.asarray([[a]]), np.asarray([[b]]), np.asarray([[c]])])


def zero_tuple(n: int = 3, dimH: int = 2) -> TupleSpec:
    return TupleSpec.from_operators([np.zeros((dimH, dimH))] * n)
