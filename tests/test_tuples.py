import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilation_forge.errors import MalformedSpec, UnsupportedMultiplicity
from dilation_forge.generators import (STYLES, parrott_tuple, random_tuple, scalar_triple,
                                       zero_tuple)
from dilation_forge.linalg import adj, frob
from dilation_forge.tuples import (AlgebraStructure, TupleSpec, class_gate, classify,
                                   cp_map_matrix, invert_perm, is_pure, merge_1n, szego_operator,
                                   szego_operators, validate)


def subset_product(spec, G):
    """The product operator T_{g1} (I (x) T_{g2}) ... of an ordered subset G of {1..n}.

    A dimH x d^{|G|}*dimH matrix, built right to left; the plain product for d = 1.
    The reference for the nested Szego recursion.
    """
    result = np.eye(spec.dimH, dtype=complex)
    for g in reversed(list(G)):
        row = np.hstack(spec.blocks[g - 1])
        result = row @ np.kron(np.eye(spec.d), result) if spec.d > 1 else row @ result
    return result


def test_validate_zero_tuple():
    rep = validate(zero_tuple(3, 2))
    assert rep.is_contraction_tuple
    assert rep.commutation_residual == 0.0


def test_validate_scalar_triple():
    rep = validate(scalar_triple())
    assert rep.is_contraction_tuple and rep.commutation_residual == 0.0


def test_validate_u_pair():
    # t1 t2 = -t2 t1 so the phase table with u12 = -1 has zero residual
    t1 = np.array([[0.0, 1.0], [0.0, 0.0]])
    t2 = 0.9 * np.diag([1.0, -1.0])
    spec = TupleSpec.from_operators([t1, t2], phases=[[1, -1], [-1, 1]])
    assert validate(spec).commutation_residual < 1e-15
    wrong = TupleSpec.from_operators([t1, t2])
    assert validate(wrong).commutation_residual > 1.0


def test_malformed_specs():
    with pytest.raises(MalformedSpec):
        TupleSpec(n=2, dimH=2, d=1, blocks=[[np.zeros((2, 2))]], phases=None)
    with pytest.raises(MalformedSpec):
        TupleSpec.from_operators([np.zeros((2, 2))] * 2, phases=[[1, 2], [2, 1]])
    with pytest.raises(MalformedSpec):
        TupleSpec(n=1, dimH=2, d=2, blocks=[[np.zeros((2, 2)), np.zeros((2, 2))]],
                  phases=np.array([[-1.0]]))
    with pytest.raises(MalformedSpec):
        AlgebraStructure(k=2, block_of=[0, 1], automorphisms=[[0, 0]])
    with pytest.raises(MalformedSpec):
        AlgebraStructure(k=-1, block_of=[], automorphisms=[])


def test_automorphisms_must_pairwise_commute():
    # a transposition of {0, 1} and one of {1, 2} do not commute
    with pytest.raises(MalformedSpec, match="pairwise commute"):
        AlgebraStructure(k=3, block_of=[0, 1, 2], automorphisms=[[1, 0, 2], [0, 2, 1]])
    # a 3-cycle, its inverse and the identity do
    alg = AlgebraStructure(k=3, block_of=[0, 1, 2], automorphisms=[[1, 2, 0], [2, 0, 1], [0, 1, 2]])
    assert alg.automorphisms == [[1, 2, 0], [2, 0, 1], [0, 1, 2]]


def test_subset_product_empty_and_scalars():
    spec = scalar_triple(0.5, 0.4, 0.3)
    assert np.allclose(subset_product(spec, []), np.eye(1))
    assert subset_product(spec, [1, 2])[0, 0] == pytest.approx(0.2)


def test_subset_product_multiplicity_row():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.5, 0.0], [0.0, 0.5]])
    spec = TupleSpec(n=1, dimH=2, d=2, blocks=[[a, b]])
    assert np.allclose(subset_product(spec, [1]), np.hstack([a, b]))


def test_szego_single_and_zero():
    spec = TupleSpec.from_operators([[[0.5]]])
    assert szego_operator(spec, [1])[0, 0] == pytest.approx(0.75)
    z = zero_tuple(3, 2)
    assert np.allclose(szego_operator(z, [1, 2, 3]), np.eye(2))


def test_szego_scalar_pair_factorizes():
    spec = TupleSpec.from_operators([[[0.6]], [[0.5]]])
    assert szego_operator(spec, [1, 2])[0, 0] == pytest.approx(0.48)


def test_szego_hermitian_and_order_independent():
    spec = random_tuple("u-commuting", 3, 4, seed=12)
    for r in range(4):
        for S in itertools.combinations([1, 2, 3], r):
            s = szego_operator(spec, S)
            assert np.linalg.norm(s - adj(s)) < 1e-13
    # T_G T_G* does not depend on the order of G
    for order in itertools.permutations([1, 2, 3]):
        tg = subset_product(spec, order)
        ref = subset_product(spec, (1, 2, 3))
        assert np.linalg.norm(tg @ adj(tg) - ref @ adj(ref)) < 1e-12


def test_is_pure_scalars():
    assert is_pure(TupleSpec.from_operators([[[0.5]]]), 1) == (True, pytest.approx(0.25))
    pure, radius = is_pure(TupleSpec.from_operators([[[1.0]]]), 1)
    assert not pure and radius == pytest.approx(1.0)


def test_is_pure_nilpotent_parrott_block():
    spec = parrott_tuple()
    for i in (1, 2, 3):
        pure, radius = is_pure(spec, i)
        assert pure and radius < 1e-12


def test_purity_radius_is_squared_spectral_radius():
    # d = 1 reads r(t)^2 off eigvals(t); it must equal the CP map's spectral radius
    rng = np.random.default_rng(7)
    for scale in (0.3, 0.9, 1.0):
        t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        t *= scale / np.linalg.norm(t, 2)
        spec = TupleSpec.from_operators([t])
        superop = float(np.max(np.abs(np.linalg.eigvals(cp_map_matrix(spec, 1)))))
        assert is_pure(spec, 1)[1] == pytest.approx(superop, rel=1e-12)


def test_purity_matches_iteration():
    rng = np.random.default_rng(6)
    for _ in range(5):
        t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        t *= 0.8 / np.linalg.norm(t, 2)
        spec = TupleSpec.from_operators([t])
        pure, radius = is_pure(spec, 1)
        phi = cp_map_matrix(spec, 1)
        x = np.eye(3, dtype=complex).reshape(-1, order="F")
        iterated = False
        for _ in range(200):
            x = phi @ x
            if np.linalg.norm(x) <= 1e-8:
                iterated = True
                break
        assert pure == iterated or abs(radius - 1.0) < 1e-8


def test_classify_zero_and_triple():
    assert classify(zero_tuple(3, 2)).in_T1n
    rep = classify(scalar_triple(0.5, 0.4, 0.3))
    assert rep.in_T1n
    # independent oracle: each deleted-index Szego operator factorizes as a
    # product of scalar defects, so membership reduces to moduli below one
    for vals in ((0.5, 0.4, 0.3),):
        for drop in (0, 2):
            kept = [v for i, v in enumerate(vals) if i != drop]
            expected = np.prod([1 - v * v for v in kept])
            s = szego_operator(scalar_triple(*vals), [i + 1 for i in range(3) if i != drop])
            assert s[0, 0] == pytest.approx(expected)


def test_single_operator_fails_the_gate_by_name():
    """Every Szego and purity condition holds vacuously at n = 1, but the
    construction fuses indices 1 and n: the gate names the missing index."""
    spec = TupleSpec.from_operators([0.5 * np.array([[0.0, 1.0], [0.0, 0.0]])])
    for rep in (class_gate(spec)[0], classify(spec)):
        assert not rep.in_T1n
        assert rep.failing_conditions() == [
            "n = 1 < 2: the construction fuses indices 1 and n; "
            "dilate a single contraction T as the pair (T, 0)"]
    assert classify(TupleSpec.from_operators([spec.op(1), np.zeros((2, 2))])).in_T1n


def test_classify_parrott_rejected():
    rep = classify(parrott_tuple())
    assert not rep.in_T1n
    assert not rep.szego_hat1.is_psd and rep.szego_hat1.min_eig == pytest.approx(-1.0)
    assert not rep.szego_hatn.is_psd
    assert rep.szego_full.min_eig == pytest.approx(-2.0)
    assert any("szego" in f for f in rep.failing_conditions())
    # the full gkvw table fails on every pair for this example
    assert all(not c1 or not c2 for (c1, c2) in rep.gkvw.values())


def test_classify_gkvw_flags_all_pass_in_class():
    rep = classify(scalar_triple())
    assert all(c1 and c2 for (c1, c2) in rep.gkvw.values())


def test_merge_scalars():
    merged = merge_1n(scalar_triple(0.5, 0.4, 0.3))
    assert merged.n == 2
    assert merged.op(1)[0, 0] == pytest.approx(0.15)
    assert merged.op(2)[0, 0] == pytest.approx(0.4)
    z = merge_1n(zero_tuple(3, 2))
    assert all(np.allclose(z.op(i), 0) for i in (1, 2))


def test_merge_phases():
    # u(2,1) = i and u(2,3) = -1 gives merged phase u(2,1)*u(2,3) = -i
    phases = np.array([
        [1, -1j, 1],
        [1j, 1, -1],
        [1, -1, 1],
    ])
    spec = TupleSpec.from_operators([np.zeros((2, 2))] * 3, phases=phases)
    merged = merge_1n(spec)
    assert merged.phases[1, 0] == pytest.approx(-1j)
    assert merged.phases[0, 1] == pytest.approx(1j)


def test_merged_phase_table_matches_the_pair_loop():
    rng = np.random.default_rng(3)
    for n in (2, 3, 5, 8):
        upper = np.triu(np.exp(2j * np.pi * rng.uniform(size=(n, n))), 1)
        spec = TupleSpec.from_operators([np.zeros((2, 2))] * n,
                                        phases=upper + adj(upper) + np.eye(n))
        m = n - 1
        ref = np.ones((m, m), dtype=complex)
        for s in range(1, m):
            ref[s, 0] = spec.u(s + 1, 1) * spec.u(s + 1, n)
            ref[0, s] = np.conj(ref[s, 0])
            for t in range(1, m):
                ref[s, t] = spec.u(s + 1, t + 1)
        assert merge_1n(spec).phases.tobytes() == ref.tobytes()


def test_merge_requires_d1():
    spec = TupleSpec(n=2, dimH=2, d=2,
                     blocks=[[np.zeros((2, 2))] * 2, [np.zeros((2, 2))] * 2])
    with pytest.raises(UnsupportedMultiplicity):
        merge_1n(spec)


def test_merged_tuple_still_valid():
    spec = random_tuple("u-commuting", 3, 4, seed=21)
    merged = merge_1n(spec)
    assert validate(merged).commutation_residual < 1e-12


def test_merged_covariance_survives():
    spec = random_tuple("covariant", 3, 4, seed=3, k=2,
                        automorphisms=[[1, 0], [0, 1], [1, 0]])
    merged = merge_1n(spec)
    rep = validate(merged)
    assert rep.covariance_residual < 1e-12


def test_defect_equality_identity():
    # D^2 of the merged tuple equals both displayed factorizations whenever the
    # two deleted-index Szego operators are PSD
    for seed in range(4):
        spec = random_tuple("scaled-commuting", 3, 4, seed=seed)
        merged = merge_1n(spec)
        d_hat1 = szego_operator(spec, [2, 3])
        d_hatn = szego_operator(spec, [1, 2])
        d_merged = szego_operator(merged, [1, 2])
        t1, tn = spec.op(1), spec.op(3)
        assert np.linalg.norm(d_merged - d_hatn - t1 @ d_hat1 @ adj(t1)) < 1e-10
        assert np.linalg.norm(d_merged - d_hat1 - tn @ d_hatn @ adj(tn)) < 1e-10


def test_classify_gates_commutation_and_covariance():
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    rep = classify(TupleSpec.from_operators([0.2 * e12, 0.2 * e12.T, 0.2 * np.eye(2)]))
    assert rep.commutation_residual == pytest.approx(0.04 * np.sqrt(2))
    assert not rep.in_T1n
    assert [f for f in rep.failing_conditions() if "commutation" in f]
    # E12 commutes with itself but maps block 1 into block 0
    ops = [0.2 * e12, 0.3 * e12]
    assert classify(TupleSpec.from_operators(ops)).in_T1n
    alg = AlgebraStructure(k=2, block_of=[0, 1], automorphisms=[[0, 1], [0, 1]])
    rep = classify(TupleSpec.from_operators(ops, algebra=alg))
    assert rep.covariance_residual > 0.1 and not rep.in_T1n
    assert [f for f in rep.failing_conditions() if "covariance" in f]


def subset_sum_szego(spec, S):
    """Reference sum_{G subset S} (-1)^|G| T_G T_G* over ascending subsets G."""
    out = np.zeros((spec.dimH, spec.dimH), dtype=complex)
    for r in range(len(S) + 1):
        for G in itertools.combinations(sorted(S), r):
            tg = subset_product(spec, G)
            out += (-1.0) ** r * (tg @ adj(tg))
    return out


@st.composite
def noncommuting_tuples(draw):
    """A random tuple (no commutation imposed), d in {1, 2}, and a subset S."""
    n = draw(st.integers(1, 5))
    d = draw(st.sampled_from([1, 2]))
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    blocks = []
    for _ in range(n):
        row = [rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
               for _ in range(d)]
        scale = draw(st.floats(0.1, 1.0)) / np.linalg.norm(np.hstack(row), 2)
        blocks.append([scale * t for t in row])
    S = draw(st.lists(st.integers(1, n), max_size=n))
    return TupleSpec(n=n, dimH=dim, d=d, blocks=blocks), S


@settings(max_examples=60, deadline=None, derandomize=True)
@given(noncommuting_tuples())
def test_nested_szego_matches_subset_sum(case):
    spec, S = case
    ref = subset_sum_szego(spec, set(S))
    assert np.linalg.norm(szego_operator(spec, S) - ref) <= 1e-13 * max(1.0, np.linalg.norm(ref))


def _scaled(spec, factor):
    return TupleSpec(n=spec.n, dimH=spec.dimH, d=spec.d,
                     blocks=[[factor * t for t in row] for row in spec.blocks],
                     phases=spec.phases, algebra=spec.algebra)


def _gate_cases():
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    cases = {"parrott": parrott_tuple(),
             "non-commuting": TupleSpec.from_operators([0.2 * e12, 0.2 * e12.T, 0.2 * np.eye(2)]),
             "non-contraction": TupleSpec.from_operators([[[1.5]], [[0.5]], [[0.3]]]),
             "not pure": TupleSpec.from_operators([[[1.0]], [[0.5]]]),
             "non-covariant": TupleSpec.from_operators(
                 [0.2 * e12, 0.3 * e12],
                 algebra=AlgebraStructure(k=2, block_of=[0, 1], automorphisms=[[0, 1], [0, 1]])),
             "d = 2": TupleSpec(n=2, dimH=2, d=2, blocks=[[0.3 * np.eye(2)] * 2] * 2),
             "n = 1": TupleSpec.from_operators([0.5 * e12 + 0.3 * np.eye(2)])}
    for style in STYLES:
        for seed in range(3):
            dimH = 4 if style == "covariant" else 3  # covariant: C^2 (x) C^2
            spec = random_tuple(style, 3, dimH, seed=seed)
            cases[f"{style}-{seed}"] = spec
            cases[f"{style}-{seed} x2.5"] = _scaled(spec, 2.5)
    return cases


GATE_CASES = _gate_cases()


@pytest.mark.parametrize("name", sorted(GATE_CASES))
def test_class_gate_agrees_with_classify(name):
    spec = GATE_CASES[name]
    gate, sq_hat1, sq_hatn = class_gate(spec)
    full = classify(spec)
    assert gate.in_T1n == full.in_T1n
    assert gate.failing_conditions() == full.failing_conditions()
    assert gate.szego_full is None and gate.gkvw == {}
    assert gate.to_dict() == {**full.to_dict(), "szego_full": None, "gkvw": {}}
    assert np.array_equal(sq_hat1, szego_operator(spec, range(2, spec.n + 1)))
    assert np.array_equal(sq_hatn, szego_operator(spec, range(1, spec.n)))


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("d", [1, 2])
def test_szego_stack_matches_each_subset(n, d):
    rng = np.random.default_rng(10 * n + d)
    blocks = [[0.4 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / np.sqrt(d)
               for _ in range(d)] for _ in range(n)]
    spec = TupleSpec(n=n, dimH=3, d=d, blocks=blocks)
    subsets = [S for r in range(n + 1) for S in itertools.combinations(range(1, n + 1), r)]
    stack = szego_operators(spec, subsets)
    assert stack.shape == (len(subsets), 3, 3)
    for S, row in zip(subsets, stack):
        assert np.array_equal(row, szego_operator(spec, S)), S


def reference_validate(spec, tol=1e-10):
    """The per-pair loop ``validate`` replaced: (row_norms, commutation_residual,
    covariance_residual, structure_gate), with the projections sigma(e_p) built here."""
    idx = range(1, spec.n + 1)
    norms = [float(np.linalg.norm(np.hstack(spec.blocks[i - 1]), 2)) for i in idx]
    comm = 0.0
    if spec.d == 1:
        for i, j in itertools.permutations(idx, 2):
            ti, tj = spec.op(i), spec.op(j)
            comm = max(comm, frob(ti @ tj - spec.u(i, j) * (tj @ ti)))
    else:
        for i, j in itertools.combinations(idx, 2):
            for a in spec.blocks[i - 1]:
                for b in spec.blocks[j - 1]:
                    comm = max(comm, frob(a @ b - b @ a))
    cov = None
    if spec.algebra is not None:
        alg = spec.algebra
        proj = [np.diag([1.0 if b == p else 0.0 for b in alg.block_of]).astype(complex)
                for p in range(alg.k)]
        cov = 0.0
        for i in idx:
            t, inv = spec.op(i), invert_perm(alg.automorphisms[i - 1])
            for p in range(alg.k):
                cov = max(cov, frob(t @ proj[inv[p]] - proj[p] @ t))
    return norms, comm, cov, tol * max(1.0, max(norms) ** 2)


def _validate_cases():
    rng = np.random.default_rng(5)

    def dense(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    cases = dict(GATE_CASES)
    cases["non-commuting d = 2"] = TupleSpec(n=3, dimH=3, d=2,
                                             blocks=[[0.3 * dense(3, 3) for _ in range(2)]
                                                     for _ in range(3)])
    # t_i = P_i (x) c_i E12 with P_i[a_i[r], r] = 1 maps block a_i^-1(p) into block p
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    for name, autos in (("k = 2", [[1, 0], [0, 1], [1, 0]]),
                        ("k = 3", [[1, 2, 0], [0, 1, 2], [2, 0, 1]])):
        k = len(autos[0])
        alg = AlgebraStructure(k=k, block_of=[p for p in range(k) for _ in range(2)],
                               automorphisms=autos)
        spec = TupleSpec.from_operators([np.kron(np.eye(k)[:, a], (0.2 + 0.1 * s) * e12)
                                         for s, a in enumerate(autos)], algebra=alg)
        cases[f"covariant {name}"] = spec
        ops = [spec.op(i) + 0.01 * dense(spec.dimH, spec.dimH) for i in range(1, 4)]
        cases[f"perturbed covariant {name}"] = TupleSpec.from_operators(ops, algebra=spec.algebra)
    # a commuting tuple whose diagonal phases sit just inside the 1e-12 gate
    phases = np.ones((3, 3)) + 5e-13 * np.eye(3)
    cases["diagonal phases 1 + 5e-13"] = TupleSpec.from_operators(
        [np.diag(0.3 * dense(2)) for _ in range(3)], phases=phases)
    return cases


VALIDATE_CASES = _validate_cases()


@pytest.mark.parametrize("name", sorted(VALIDATE_CASES))
def test_validate_matches_per_pair_reference(name):
    spec = VALIDATE_CASES[name]
    rep = validate(spec)
    norms, comm, cov, gate = reference_validate(spec)
    assert rep.row_norms == norms
    assert rep.commutation_residual == comm
    assert rep.covariance_residual == cov
    assert rep.structure_gate == gate
