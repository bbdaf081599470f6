"""Seeded generators of example tuples, positive and negative.

The dilatable class has no usable parametrization, so the positive styles
build structurally commuting families and shrink them until classification
passes with a safety margin (rejection loop).  Purity is structural for the
nilpotent styles; Szego positivity always holds for small enough scale.
"""

from __future__ import annotations

import inspect
from functools import reduce

import numpy as np

from .errors import DilationForgeError, GenerationFailed
from .linalg import check_count
from .tuples import AlgebraStructure, TupleSpec, class_gate

MARGIN = 1e-6  # minimum Szego eigenvalue and purity gap required of generated tuples
PHASE_POOL = (1, -1, 1j, -1j)  # the commutation phases u_commuting draws from


def _crandn(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _scale_into_class(ops, phases=None, algebra=None) -> TupleSpec:
    """Shrink all operators geometrically, at most 60 times, until the class
    gate passes with margin."""
    scale = 1.0
    for _ in range(60):
        spec = TupleSpec.from_operators([scale * t for t in ops], phases=phases, algebra=algebra)
        report, _ = class_gate(spec, [])
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


def u_commuting(rng: np.random.Generator, n: int, dim: int) -> TupleSpec:
    """Weighted shifts around a phase-diagonal hub: index 2 is c (x)_k diag(q_k^j),
    every other index k a weighted shift S_k on its own tensor factor, with dim
    rows for n = 2 and max(2, dim // 2) and 2 rows for n = 3.  As diag(q^j) S =
    q S diag(q^j), t_k t_2 = conj(q_k) t_2 t_k, and the shifts commute."""
    if n not in (2, 3):
        raise GenerationFailed("u-commuting style supports n in {2, 3}")
    qs = [complex(PHASE_POOL[rng.integers(len(PHASE_POOL))]) for _ in range(n - 1)]
    sizes = [dim] if n == 2 else [max(2, dim // 2), 2]
    shifts = [np.diag(0.3 + 0.7 * rng.random(size - 1), -1).astype(complex) for size in sizes]
    diags = [np.diag(np.asarray([q ** j for j in range(size)], dtype=complex))
             for q, size in zip(qs, sizes)]
    hub = (0.4 + 0.5 * rng.random()) * reduce(np.kron, diags)
    ops = [reduce(np.kron, [s if g == f else np.eye(size) for g, size in enumerate(sizes)])
           for f, s in enumerate(shifts)]
    ops.insert(1, hub)
    others = [0, *range(2, n)]
    phases = np.ones((n, n), dtype=complex)
    phases[1, others], phases[others, 1] = qs, np.conj(qs)
    return _scale_into_class(ops, phases=phases)


def covariant(rng: np.random.Generator, n: int, dimH: int, k: int = 2,
              automorphisms=None) -> TupleSpec:
    """Block-patterned tuple covariant for C^k with commuting permutations.

    H = C^k (x) C^width with width = dimH / k, t_i = P_i (x) B_i with P_i the
    permutation matrix of alpha_i and B_i drawn from a commuting nilpotent
    family.  ``k`` must be a positive integer and ``dimH`` a multiple of it.
    """
    if (isinstance(k, bool) or not isinstance(k, (int, np.integer)) or k < 1
            or dimH < k or dimH % k):
        raise GenerationFailed("covariant style needs k a positive integer and dimH a positive "
                               f"multiple of it, got k={k!r}, dimH={dimH}")
    width = dimH // k
    if automorphisms is None:
        pool = [list(range(k)), [(j + 1) % k for j in range(k)]]  # the identity and the cycle
        automorphisms = [pool[rng.integers(2)] for _ in range(n)]
    algebra = AlgebraStructure(k=k, block_of=np.repeat(np.arange(k), width),
                               automorphisms=automorphisms)
    if (rows := len(algebra.automorphisms)) != n:
        raise GenerationFailed(f"covariant style needs n = {n} automorphisms, got {rows}")
    bs = _commuting_polynomials(rng, n, width, nilpotent=True)
    # P_i sends e_r to e_{a_i[r]}: its columns are those of the identity, permuted by a_i
    ops = [np.kron(np.eye(k, dtype=complex)[:, a], b) for a, b in zip(algebra.automorphisms, bs)]
    return _scale_into_class(ops, algebra=algebra)


# style name -> builder(rng, n, dimH, **options); the keys, in order, are STYLES
BUILDERS = {
    "jointly-nilpotent": lambda rng, n, dim: _scale_into_class(
        _commuting_polynomials(rng, n, dim, nilpotent=True)),
    "scaled-commuting": lambda rng, n, dim: _scale_into_class(
        _commuting_polynomials(rng, n, dim, nilpotent=False)),
    "u-commuting": u_commuting,
    "covariant": covariant,
}
STYLES = tuple(BUILDERS)


def random_tuple(style: str, n: int, dimH: int, seed: int, **options) -> TupleSpec:
    """Dispatch by style name; deterministic in (style, n, dimH, seed).  An n,
    dimH or seed that is no integer >= 0 (``check_count``), an unknown style and
    an option the style's builder does not take are refused by name."""
    try:
        n, dimH, seed = (check_count(v, k) for k, v in zip(("n", "dimH", "seed"), (n, dimH, seed)))
    except DilationForgeError as err:
        raise GenerationFailed(str(err)) from None
    if n < 2 or dimH < 1:
        raise GenerationFailed(f"need n >= 2 and dimH >= 1, got n={n}, dimH={dimH} (the "
                               "dilatable class has n >= 2; a single contraction T dilates "
                               "as the pair (T, 0))")
    if not isinstance(style, str) or style not in BUILDERS:
        raise GenerationFailed(f"unknown style {style!r}; choose from {STYLES}")
    build = BUILDERS[style]
    if extra := set(options) - set(list(inspect.signature(build).parameters)[3:]):
        raise GenerationFailed(f"style {style!r} takes no option {', '.join(sorted(extra))}")
    return build(np.random.default_rng(seed), n, dimH, **options)


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
