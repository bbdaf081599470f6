import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dilation_forge.builder import (UNITARY_GATE, BuildConfig, CouplingData, assemble_model,
                                    build_defects, build_transfer, build_U, build_V0,
                                    coefficient_layout, defect_frames, effective_algebra,
                                    simplex_mass, solve_aux, truncation_tails)
from dilation_forge.errors import (IdentityResidualExceeded, InfeasibleFinitePadding, NotInClass,
                                   UnsupportedMultiplicity)
from dilation_forge.fock import enumerate_indices
from dilation_forge.generators import parrott_tuple, random_tuple, scalar_triple, zero_tuple
from dilation_forge.linalg import adj
from dilation_forge.tuples import AlgebraStructure, TupleSpec, classify, ordered_power_products
from dilation_forge.verifier import full_report


def defects_for(spec):
    return build_defects(spec, effective_algebra(spec))


def coupling_for(spec, config=BuildConfig()):
    defects, merged, eq = defects_for(spec)
    coupling = build_V0(spec, defects, effective_algebra(spec))
    solve_aux(spec, coupling, config)
    build_U(spec, defects, coupling, config)
    return defects, merged, coupling, eq


def test_defects_scalar_triple_frozen_values():
    defects, merged, resid = defects_for(scalar_triple(0.5, 0.4, 0.3))
    assert defects["hat1"].square[0, 0] == pytest.approx((1 - 0.16) * (1 - 0.09))   # 0.7644
    assert defects["hatn"].square[0, 0] == pytest.approx((1 - 0.25) * (1 - 0.16))   # 0.63
    assert defects["hat1n"].square[0, 0] == pytest.approx((1 - 0.0225) * (1 - 0.16))  # 0.8211
    assert resid < 1e-14
    assert merged.op(1)[0, 0] == pytest.approx(0.15)


def test_defects_pair():
    defects, _, _ = defects_for(TupleSpec.from_operators([[[0.5]], [[0.8]]]))
    assert defects["hat1"].square[0, 0] == pytest.approx(1 - 0.64)
    assert defects["hatn"].square[0, 0] == pytest.approx(1 - 0.25)


def test_defects_reject_out_of_class():
    with pytest.raises(NotInClass):
        defects_for(parrott_tuple())
    with pytest.raises(UnsupportedMultiplicity):
        defects_for(TupleSpec(n=2, dimH=2, d=2,
                                blocks=[[np.zeros((2, 2))] * 2, [np.zeros((2, 2))] * 2]))


def test_zero_tuple_coupling_is_identity_like():
    defects, _, coupling, eq = coupling_for(zero_tuple(3, 2))
    assert eq == 0.0
    # frames are h (+) 0 on both sides, so V0 acts as the identity on the H copy
    x, y = defect_frames(zero_tuple(3, 2), defects)
    assert np.linalg.norm(coupling.V0 @ x - y) < 1e-14
    assert np.linalg.norm(adj(coupling.U) @ coupling.U - np.eye(coupling.U.shape[0])) < 1e-13


def test_frames_scalar_pair():
    # X_h = (sqrt(1-|t1|^2), sqrt(1-|t2|^2) conj(t1)), Y_h the symmetric swap
    t1, t2 = 0.5, 0.8
    defects, _, _ = defects_for(TupleSpec.from_operators([[[t1]], [[t2]]]))
    x, y = defect_frames(TupleSpec.from_operators([[[t1]], [[t2]]]), defects)
    assert x[:, 0] == pytest.approx([np.sqrt(1 - t1 ** 2), np.sqrt(1 - t2 ** 2) * t1])
    assert y[:, 0] == pytest.approx([np.sqrt(1 - t2 ** 2), np.sqrt(1 - t1 ** 2) * t2])
    assert np.linalg.norm(x[:, 0]) == pytest.approx(np.linalg.norm(y[:, 0]))


def test_v0_maps_frames_for_class_members():
    for seed in range(4):
        spec = random_tuple("scaled-commuting", 3, 4, seed=seed)
        defects, _, _ = defects_for(spec)
        coupling = build_V0(spec, defects, effective_algebra(spec))
        x, y = defect_frames(spec, defects)
        assert np.linalg.norm(coupling.V0 @ x - y) < 1e-10


@pytest.mark.parametrize("aux_pad", [0, 1])
def test_coupling_carries_each_intermediate_once(aux_pad):
    """The frames and V Q1n* Dhat are formed once, by the stage that owns them,
    and equal what their own functions form; so does the padded layout."""
    spec = random_tuple("covariant", 3, 4, seed=6, k=2, automorphisms=[[1, 0], [0, 1], [1, 0]])
    defects, _, coupling, _ = coupling_for(spec, BuildConfig(aux_pad=aux_pad))
    x, y = defect_frames(spec, defects)
    assert coupling.X.tobytes() == x.tobytes() and coupling.Y.tobytes() == y.tobytes()
    hat1n = defects["hat1n"]
    assert coupling.vs.tobytes() == (coupling.V @ (adj(hat1n.basis) @ hat1n.root)).tobytes()
    fresh = coefficient_layout(spec, defects, coupling.mult1, coupling.algebra)
    for name in ("mult1", "mult2", "D", "Udom", "Dprime", "Dprime_rows"):
        assert np.array_equal(getattr(coupling.layout, name), getattr(fresh, name)), name
    assert coupling.layout.parts_D == fresh.parts_D


def test_solve_aux_scalar_mode():
    spec = random_tuple("jointly-nilpotent", 3, 4, seed=0)
    defects, _, _ = defects_for(spec)
    coupling = build_V0(spec, defects, effective_algebra(spec))
    e1, e2 = solve_aux(spec, coupling)
    assert (e1, e2) == (0, 0)
    # the complements always match in dimension for d = 1
    assert coupling.M1.shape[1] == coupling.M2.shape[1]


def test_solve_aux_user_padding():
    spec = random_tuple("jointly-nilpotent", 3, 4, seed=1)
    defects, _, _ = defects_for(spec)
    coupling = build_V0(spec, defects, effective_algebra(spec))
    e1, e2 = solve_aux(spec, coupling, BuildConfig(aux_pad=2))
    assert (e1, e2) == (2, 2)
    build_U(spec, defects, coupling, BuildConfig(aux_pad=2))
    u = coupling.U
    assert np.linalg.norm(adj(u) @ u - np.eye(u.shape[0])) < 1e-12


def padded_covariant_spec():
    # alpha1 = alpha3 = swap, alpha2 = id on C^2 (+) C^1; the rank-one defect
    # direction of hatn makes the component multiplicities of M1/M2 differ,
    # forcing one unit of auxiliary padding
    a, s, c, d = 0.6, 0.8, 0.5, 0.3
    b = a * d / c
    t1 = np.zeros((3, 3), complex); t1[0, 2] = a; t1[2, 1] = b
    t3 = np.zeros((3, 3), complex); t3[0, 2] = c; t3[2, 1] = d
    t2 = np.zeros((3, 3), complex); t2[0, 1] = s
    alg = AlgebraStructure(k=2, block_of=[0, 0, 1], automorphisms=[[1, 0], [0, 1], [1, 0]])
    return TupleSpec.from_operators([t1, t2, t3], algebra=alg)


def test_solve_aux_equivariant_identity_automorphisms():
    spec = random_tuple("covariant", 3, 4, seed=2, k=2, automorphisms=[[0, 1]] * 3)
    defects, _, _ = defects_for(spec)
    coupling = build_V0(spec, defects, effective_algebra(spec))
    assert solve_aux(spec, coupling) == (0, 0)


def test_solve_aux_equivariant_minimal_padding():
    spec = padded_covariant_spec()
    defects, _, _ = defects_for(spec)
    coupling = build_V0(spec, defects, effective_algebra(spec))
    e1, e2 = solve_aux(spec, coupling)
    assert (e1, e2) == (1, 1)
    assert coupling.mult1.tolist() == [1, 0]
    assert coefficient_layout(spec, defects, coupling.mult1,
                              effective_algebra(spec)).mult2.tolist() == [0, 1]


def test_solve_aux_infeasible():
    # alpha1 = id with alphan = swap forces equal multiplicities, but the
    # asymmetric defect ranks demand a twist: no finite padding exists
    def blk(x):
        return np.array([[0, x], [0, 0]], complex)
    t1 = np.block([[blk(0.6), np.zeros((2, 2))], [np.zeros((2, 2)), blk(0.3)]])
    t2 = np.block([[blk(0.8), np.zeros((2, 2))], [np.zeros((2, 2)), blk(0.4)]])
    e = np.zeros((2, 2), complex); e[0, 1] = 1.0
    t3 = 0.5 * np.block([[np.zeros((2, 2)), e], [e, np.zeros((2, 2))]])
    alg = AlgebraStructure(k=2, block_of=[0, 0, 1, 1], automorphisms=[[0, 1], [0, 1], [1, 0]])
    spec = TupleSpec.from_operators([t1, t2, t3], algebra=alg)
    defects, _, _ = defects_for(spec)
    coupling = build_V0(spec, defects, effective_algebra(spec))
    with pytest.raises(InfeasibleFinitePadding):
        solve_aux(spec, coupling)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_solve_aux_matches_brute_force_search(k):
    """Every commuting pair (a1, an) of permutations of k components, with
    M1/M2 component counts drawn at random, drawn feasible and drawn with an
    odd total (never feasible), at aux_pad 0 and 2: solve_aux returns the
    componentwise-minimal mult1 in {0..10}^k that a brute-force search finds,
    plus the pad, and raises InfeasibleFinitePadding exactly when the search
    finds none.  The counts stay small enough for every minimal solution to
    lie in the searched box."""
    rng = np.random.default_rng(k)
    box = np.array(list(itertools.product(range(11), repeat=k)))
    perms = [list(p) for p in itertools.permutations(range(k))]
    outcomes = set()
    for a1, an in itertools.product(perms, perms):
        twist = np.array(a1)[an]
        if twist.tolist() != np.array(an)[a1].tolist():
            continue
        an_inv, twist_inv = np.argsort(an), np.argsort(twist)
        steps = box[:, an_inv] - box  # mult1[an^-1(p)] - mult1[p] = #M1_p - #M2_p
        twist_fixed = np.all(box[:, twist_inv] == box, axis=1)  # mult1 constant on twist orbits
        m = rng.integers(0, 4, k)
        for _ in range(k):  # least value on each twist orbit: a twist-invariant mult1
            m = np.minimum(m, m[twist_inv])
        delta = m[an_inv] - m
        m2 = rng.integers(0, 3, k) + np.maximum(0, -delta)
        draws = [rng.integers(0, 3, (2, k)) for _ in range(3)] + [
            (m2 + delta, m2), (m2 + delta + np.eye(k, dtype=int)[0], m2)]
        spec = TupleSpec.from_operators(
            [np.zeros((k, k))] * 2, algebra=AlgebraStructure(k, list(range(k)), [a1, an]))
        for count1, count2 in draws:
            solutions = box[np.all(steps == count1 - count2, axis=1) & twist_fixed]
            outcomes.add(len(solutions) > 0)
            minimal = solutions.min(axis=0, initial=10)
            assert not len(solutions) or np.all(solutions == minimal, axis=1).any()
            for pad in (0, 2):
                coupling = CouplingData(V0=None, M1=None, M2=None, X=None, Y=None,
                                        M1_labels=np.repeat(np.arange(k), count1),
                                        M2_labels=np.repeat(np.arange(k), count2),
                                        algebra=spec.algebra)
                config = BuildConfig(aux_pad=pad)
                if not len(solutions):
                    with pytest.raises(InfeasibleFinitePadding):
                        solve_aux(spec, coupling, config)
                    continue
                size = int(minimal.sum()) + pad * k
                assert solve_aux(spec, coupling, config) == (size, size)
                assert coupling.mult1.tolist() == (minimal + pad).tolist()
    assert outcomes == {True, False}


def test_build_U_unitary_and_block_pattern():
    spec = padded_covariant_spec()
    defects, _, coupling, _ = coupling_for(spec)
    u = coupling.U
    assert np.linalg.norm(adj(u) @ u - np.eye(u.shape[0])) < 1e-12
    # equivariance: U maps each component to itself
    off = 0.0
    for i, li in enumerate(coupling.layout.D):
        for j, lj in enumerate(coupling.layout.Udom):
            if li != lj:
                off = max(off, abs(u[i, j]))
    assert off < 1e-12


def test_transfer_identities_on_random_members():
    for seed in range(6):
        style = "jointly-nilpotent" if seed % 2 else "scaled-commuting"
        spec = random_tuple(style, 3, 3 + seed % 3, seed=seed)
        defects, _, coupling, eq = coupling_for(spec)
        transfer = build_transfer(spec, coupling)
        assert eq < 1e-10
        assert transfer.residuals["lemma_U1"] < 1e-10
        assert transfer.residuals["eq_ABn"] < 1e-10
        assert transfer.residuals["eq_Cn"] < 1e-10
        assert transfer.residuals["frame_eq_f"] < 1e-10
        assert transfer.residuals["U1_unitarity"] < 1e-12 * transfer.U1.shape[0]


def test_transfer_blocks_satisfy_colligation_relations():
    spec = random_tuple("u-commuting", 3, 4, seed=4)
    defects, _, coupling, _ = coupling_for(spec)
    tr = build_transfer(spec, coupling)
    d = coupling.layout.dim
    for u in (tr.U1, tr.Un):
        a, b, c = u[:d, :d], u[:d, d:], u[d:, :d]
        assert np.linalg.norm(a @ adj(c)) < 1e-12
        assert np.linalg.norm(c @ adj(c) - np.eye(c.shape[0])) < 1e-12
        assert np.linalg.norm(a @ adj(a) + b @ adj(b) - np.eye(a.shape[0])) < 1e-12


def test_tau_degree_zero_is_diagonal_part_alone():
    spec = scalar_triple()
    model = assemble_model(spec, N=0)
    tau1 = model.isometries[0]
    # single cell: no shifted output survives truncation
    d = model.layout.dim
    assert np.allclose(tau1, adj(model.transfer.U1[:d, :d]))


def test_pi_geometric_series_pair():
    # pair (t, 1): merged operator is t, so Pi is the classic geometric column
    t = 0.5
    spec = TupleSpec.from_operators([[[t]], [[1.0]]])
    model = assemble_model(spec, N=4)
    expect = [np.sqrt(1 - t * t) * t ** k for k in range(5)]
    assert np.allclose(np.abs(model.Pi[:, 0]), expect)
    assert model.tails[0] == pytest.approx(t ** 10)


def test_pi_zero_tuple_exactly_isometric():
    model = assemble_model(zero_tuple(3, 2), N=3)
    assert np.allclose(adj(model.Pi) @ model.Pi, np.eye(2))
    assert np.allclose(model.tails, 0.0)


def test_tails_match_pi_mass_both_routes():
    for seed in (0, 5):
        spec = random_tuple("scaled-commuting", 3, 4, seed=seed)
        model = assemble_model(spec, N=4)
        mass = np.sum(np.abs(model.Pi) ** 2, axis=0)
        assert np.max(np.abs(mass + model.tails - 1.0)) < 1e-12
        direct = simplex_mass(model.merged, model.defects["hat1n"].root, 4)
        assert np.max(np.abs(direct + model.tails - 1.0)) < 1e-12


def test_tail_monotone_in_degree():
    spec = random_tuple("scaled-commuting", 3, 4, seed=7)
    defects, merged, _ = defects_for(spec)
    root = defects["hat1n"].root
    t3, t4, t5 = (truncation_tails(merged, root, N) for N in (3, 4, 5))
    assert np.all(t4 <= t3 + 1e-13) and np.all(t5 <= t4 + 1e-13)
    assert np.all(t5 >= -1e-13)


def test_tails_stay_exact_when_the_tuple_commutes_only_to_the_class_gate():
    """t_1 + 3e-11 J / 3 (J all ones) keeps the tuple in class, with a
    commutation residual of 7.8e-12 under the 1e-10 gate.  Tails summed from
    the degree layers alone keep ||Pi h||^2 + tail(h) = ||h||^2 at rounding
    level; a telescoped form that holds only for exactly commuting CP maps
    is off by 1.1e-12 here and fails the pi gate."""
    spec = random_tuple("scaled-commuting", 3, 3, seed=3)
    ops = [spec.op(i) for i in range(1, 4)]
    ops[0] = ops[0] + 3e-11 * np.ones((3, 3)) / 3
    spec = TupleSpec.from_operators(ops, phases=spec.phases)
    report = classify(spec)
    assert report.in_T1n and report.commutation_residual > 1e-12
    verdict = full_report(assemble_model(spec, N=6))
    assert verdict.passed, verdict.failures()
    assert verdict.residuals["pi_isometry"] < 1e-13


def test_U_unitarity_error_reports_the_bound_it_applies():
    spec = random_tuple("jointly-nilpotent", 3, 4, seed=1)
    defects, _, _ = defects_for(spec)
    coupling = build_V0(spec, defects, effective_algebra(spec))
    solve_aux(spec, coupling)
    dim = coefficient_layout(spec, defects, coupling.mult1, coupling.algebra).dim
    coupling.V0 = (1.0 + 1e-9) * coupling.V0  # the extension U is no longer unitary
    with pytest.raises(IdentityResidualExceeded) as exc:
        build_U(spec, defects, coupling)
    assert dim > 1 and exc.value.identity == "U_unitarity"
    assert exc.value.gate == UNITARY_GATE * dim < exc.value.residual
    assert f"{exc.value.gate:.1e}" in str(exc.value)


def test_model_determinism_and_free_completion():
    spec = random_tuple("scaled-commuting", 3, 4, seed=11)
    m1 = assemble_model(spec, N=3)
    m2 = assemble_model(spec, N=3)
    assert np.array_equal(m1.Pi, m2.Pi)
    assert np.array_equal(m1.coupling.U, m2.coupling.U)
    alt = assemble_model(spec, N=3, config=BuildConfig(completion_seed=42))
    assert not np.allclose(alt.coupling.U, m1.coupling.U)
    # the theorems hold for any admissible completion
    from dilation_forge.verifier import full_report
    assert full_report(alt).passed


def test_assemble_rejects_out_of_class():
    with pytest.raises(NotInClass):
        assemble_model(parrott_tuple(), N=2)


def box_indices(m, kmax):
    """All alpha with max alpha_s <= kmax."""
    out = [()]
    for _ in range(m):
        out = [a + (v,) for a in out for v in range(kmax + 1)]
    return out


def dict_power_products(spec, indices):
    """Reference memo: (T^alpha)* keyed by tuple, each from alpha minus its
    first unit by recursion, in the order the indices are first reached."""
    ops = [spec.op(i) for i in range(1, spec.n + 1)]
    memo = {tuple([0] * spec.n): np.eye(spec.dimH, dtype=complex)}
    for alpha in indices:
        _fill_power(memo, ops, tuple(int(v) for v in alpha))
    return memo


def _fill_power(memo, ops, alpha):
    if alpha not in memo:
        s = next(k for k, v in enumerate(alpha) if v > 0)
        prev = alpha[:s] + (alpha[s] - 1,) + alpha[s + 1:]
        memo[alpha] = _fill_power(memo, ops, prev) @ adj(ops[s])
    return memo[alpha]


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_power_table_matches_dict_memo(m):
    rng = np.random.default_rng(m)
    ops = [(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / 3 for _ in range(m)]
    spec = TupleSpec.from_operators(ops)
    for N in range(7):
        for cells in (enumerate_indices(m, N), box_indices(m, N)):
            table = ordered_power_products(spec, cells)
            memo = dict_power_products(spec, cells)
            ref = np.array([memo[tuple(alpha)] for alpha in np.asarray(cells).tolist()])
            assert table.shape == ref.shape
            assert np.linalg.norm(table - ref) <= 1e-15 * np.linalg.norm(ref)


def box_enumeration_tails(merged, dhat_root, N):
    """Reference tails: the 2^m telescoping of the (N+1)^m box partial sum,
    minus the box cells above degree N, each cell a row of the power table."""
    m, dim = merged.n, merged.dimH
    cells = box_indices(m, N)
    table = ordered_power_products(merged, cells)
    tele = np.zeros(dim)
    for mask in range(1, 2 ** m):
        members = [s for s in range(m) if mask >> s & 1]
        tg = np.eye(dim, dtype=complex)
        for s in members:
            tg = tg @ merged.op(s + 1)
        power = np.linalg.matrix_power(tg, N + 1)
        tele -= (-1.0) ** len(members) * np.sum(np.abs(power) ** 2, axis=1)
    excess = np.zeros(dim)
    for row, alpha in enumerate(cells):
        if sum(alpha) > N:
            excess += np.sum(np.abs(dhat_root @ table[row]) ** 2, axis=0)
    return tele + excess


@pytest.mark.parametrize("N", [0, 1, 2, 5])
@pytest.mark.parametrize("style", ["jointly-nilpotent", "scaled-commuting", "u-commuting",
                                   "covariant"])
@settings(max_examples=10, deadline=None, derandomize=True)
@example(n=2, dim=2, seed=0)  # merged m = 1
@given(n=st.integers(2, 4), dim=st.integers(2, 4), seed=st.integers(0, 10 ** 6))
def test_tails_recursion_matches_box_enumeration(style, N, n, dim, seed):
    n = min(n, 3) if style == "u-commuting" else n
    dim = 2 * dim if style == "covariant" else dim  # a multiple of its k = 2
    defects, merged, _ = defects_for(random_tuple(style, n, dim, seed=seed))
    root = defects["hat1n"].root
    ref = box_enumeration_tails(merged, root, N)
    assert np.max(np.abs(truncation_tails(merged, root, N) - ref)) < 1e-13
