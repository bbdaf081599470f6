import itertools
import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dilation_forge import builder
from dilation_forge import io as dfio
from dilation_forge.builder import (UNITARY_GATE, CouplingData, assemble_model, build_defects,
                                    build_Pi, build_transfer, build_U, build_V0,
                                    coefficient_layout, defect_frames, dilated_isometries,
                                    effective_algebra, pad_rows, solve_aux, truncation_tails)
from dilation_forge.errors import (DilationForgeError, DimensionMismatch, GenerationFailed,
                                   IdentityResidualExceeded, InfeasibleFinitePadding, NotInClass,
                                   UnsupportedMultiplicity)
from dilation_forge.fock import FockModel, enumerate_indices, reads
from dilation_forge.generators import parrott_tuple, random_tuple, scalar_triple, zero_tuple
from dilation_forge.io import dump_json, model_to_dict
from dilation_forge.linalg import adj, isometry_from_frames, psd_sqrt, range_basis
from dilation_forge.tuples import (AlgebraStructure, TupleSpec, class_gate, classify, merge_1n,
                                   ordered_power_products, szego_operator)
from dilation_forge.verifier import full_report
from padding import compressions, minimal_rank, padded_coupling, padded_covariant_spec, padded_model


def defects_for(spec):
    return build_defects(spec, effective_algebra(spec))


def coupling_for(spec, completion_seed=None):
    """The ``Stages`` of ``assemble_model(spec, completion_seed=...)`` up to ``build_U``."""
    return padded_coupling(spec, 0, completion_seed)


def transfer_for(spec, st):
    """``build_transfer`` on the ``Stages`` ``st`` of ``spec``."""
    return build_transfer(spec, st.coupling, st.layout, st.U, st.defect_equality)


def test_defects_scalar_triple_frozen_values():
    defects, merged, resid = defects_for(scalar_triple(0.5, 0.4, 0.3))
    squares = {name: (d.root @ d.root)[0, 0] for name, d in defects.items()}
    assert squares["hat1"] == pytest.approx((1 - 0.16) * (1 - 0.09))   # 0.7644
    assert squares["hatn"] == pytest.approx((1 - 0.25) * (1 - 0.16))   # 0.63
    assert squares["hat1n"] == pytest.approx((1 - 0.0225) * (1 - 0.16))  # 0.8211
    assert resid < 1e-14
    assert merged.op(1)[0, 0] == pytest.approx(0.15)


def test_defects_pair():
    defects, _, _ = defects_for(TupleSpec.from_operators([[[0.5]], [[0.8]]]))
    assert (defects["hat1"].root @ defects["hat1"].root)[0, 0] == pytest.approx(1 - 0.64)
    assert (defects["hatn"].root @ defects["hatn"].root)[0, 0] == pytest.approx(1 - 0.25)


def test_defects_reject_out_of_class():
    with pytest.raises(NotInClass):
        defects_for(parrott_tuple())
    with pytest.raises(UnsupportedMultiplicity):
        defects_for(TupleSpec(n=2, dimH=2, d=2,
                                blocks=[[np.zeros((2, 2))] * 2, [np.zeros((2, 2))] * 2]))


def test_zero_tuple_coupling_is_identity_like():
    st = coupling_for(zero_tuple(3, 2))
    assert st.defect_equality == 0.0
    # frames are h (+) 0 on both sides, so V0 acts as the identity on the H copy
    x, y = defect_frames(zero_tuple(3, 2), st.defects)
    assert np.linalg.norm(st.coupling.V0 @ x - y) < 1e-14
    assert np.linalg.norm(adj(st.U) @ st.U - np.eye(st.U.shape[0])) < 1e-13


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


@pytest.mark.parametrize("pad", [0, 1])
def test_coupling_carries_each_intermediate_once(pad):
    """The frames are formed once, by the stage that owns them, and equal what
    their own function forms; so does the padded layout.  Pi's cell-0 block
    is the padded frame [X; 0] exactly (``build_Pi`` multiplies it by the
    identity, which may flip the sign of a zero), and within rounding of
    V Q1n* Dhat, V the isometry that carries the merged defect frame onto it."""
    spec = random_tuple("covariant", 3, 4, seed=6, k=2, automorphisms=[[1, 0], [0, 1], [1, 0]])
    st = padded_coupling(spec, pad)
    x, y = defect_frames(spec, st.defects)
    assert st.coupling.X.tobytes() == x.tobytes() and st.coupling.Y.tobytes() == y.tobytes()
    dst = np.vstack([x, np.zeros((int(st.layout.mult1.sum()), spec.dimH))])
    block = padded_model(spec, 2, pad).Pi[:st.layout.dim]
    assert np.array_equal(block, dst)
    hat1n = st.defects["hat1n"]
    src = adj(hat1n.basis) @ hat1n.root
    assert np.max(np.abs(block - isometry_from_frames(src, dst) @ src)) <= 1e-14
    fresh = coefficient_layout(spec, st.defects, st.layout.mult1, st.coupling.algebra)
    for name in ("mult1", "D", "Udom", "Dprime_rows", "Dprime_pair"):
        assert np.array_equal(getattr(st.layout, name), getattr(fresh, name)), name
    assert st.layout.parts_D == fresh.parts_D


@pytest.mark.parametrize("k", [2, 3, 5])
def test_aux_pairing_matches_per_component_loop(k):
    """D' pairs aux1's label-an^{-1}(p) block with aux2's label-p block, in
    order: the stable sort of aux2 by an^{-1} of its labels equals the loop it
    replaced, for an order-k cycle an (an^{-1} != an from k = 3) and any
    multiplicities, zeros included."""
    rng = np.random.default_rng(k)
    cycle = [(j + 1) % k for j in range(k)]
    spec = random_tuple("covariant", 2, 2 * k, seed=k, k=k, automorphisms=[cycle, cycle])
    defects, _, _ = defects_for(spec)
    an_inv = np.argsort(spec.algebra.automorphisms[1])
    for _ in range(20):
        layout = coefficient_layout(spec, defects, rng.integers(0, 4, k), spec.algebra)
        aux1, aux2 = layout.D[layout.parts_D[2]], layout.Udom[layout.parts_Udom[2]]
        pair = np.empty(aux1.size, dtype=int)
        for p in range(k):
            pair[aux1 == an_inv[p]] = np.flatnonzero(aux2 == p)
        assert np.array_equal(layout.Dprime_pair[layout.rn:], layout.r1 + layout.rn + pair)


def test_a_rotated_shift_pair_dilates_as_the_shift_pair():
    """(W S W*, W S W*), S the 3 x 3 shift and W a unitary, is in the class
    as (S, S) is, builds, passes ``full_report`` and has the defect ranks of
    (S, S): the Szego squares' rounding eigenvalues give no root direction."""
    rng = np.random.default_rng(3)
    w, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    s = np.eye(3, k=-1)
    ranks = []
    for t in (s, w @ s @ adj(w)):
        spec = TupleSpec.from_operators([t, t])
        assert classify(spec).in_T1n
        model = assemble_model(spec, N=4)
        assert full_report(model).passed
        ranks.append({name: d.basis.shape[1] for name, d in model.defects.items()})
    assert ranks[1] == ranks[0] == {"hat1": 1, "hatn": 1, "hat1n": 2}


def test_solve_aux_scalar_mode():
    spec = random_tuple("jointly-nilpotent", 3, 4, seed=0)
    defects, _, _ = defects_for(spec)
    coupling = build_V0(spec, defects, effective_algebra(spec))
    assert solve_aux(spec, coupling).tolist() == [0]
    # the complements always match in dimension for d = 1
    assert coupling.M1.shape[1] == coupling.M2.shape[1]


def test_solve_aux_user_padding():
    """Padding beyond the minimal one is reached through the stages: mult1
    raised between ``solve_aux`` and ``build_U``."""
    spec = random_tuple("jointly-nilpotent", 3, 4, seed=1)
    st = padded_coupling(spec, 2)
    assert st.layout.mult1.tolist() == [2]
    assert st.layout.Udom[st.layout.parts_Udom[2]].tolist() == [0, 0]  # aux2, as many
    assert st.layout.dim == coefficient_layout(spec, st.defects, [0], st.coupling.algebra).dim + 2
    u = st.U
    assert np.linalg.norm(adj(u) @ u - np.eye(u.shape[0])) < 1e-12


def test_solve_aux_equivariant_identity_automorphisms():
    spec = random_tuple("covariant", 3, 4, seed=2, k=2, automorphisms=[[0, 1]] * 3)
    defects, _, _ = defects_for(spec)
    coupling = build_V0(spec, defects, effective_algebra(spec))
    assert solve_aux(spec, coupling).tolist() == [0, 0]


def test_solve_aux_equivariant_minimal_padding():
    spec = padded_covariant_spec()
    defects, _, _ = defects_for(spec)
    coupling = build_V0(spec, defects, effective_algebra(spec))
    mult1 = solve_aux(spec, coupling)
    assert mult1.tolist() == [1, 0]
    assert mult1[np.argsort(spec.algebra.automorphisms[-1])].tolist() == [0, 1]  # aux2's
    layout = coefficient_layout(spec, defects, mult1, effective_algebra(spec))
    assert layout.Udom[layout.parts_Udom[2]].tolist() == [1]


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
    odd total (never feasible): solve_aux returns the componentwise-minimal
    mult1 in {0..10}^k that a brute-force search finds, and raises
    InfeasibleFinitePadding exactly when the search finds none.  The counts stay small enough for every minimal solution to
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
            coupling = CouplingData(V0=None, M1=None, M2=None, X=None, Y=None,
                                    M1_labels=np.repeat(np.arange(k), count1),
                                    M2_labels=np.repeat(np.arange(k), count2),
                                    algebra=spec.algebra)
            if not len(solutions):
                with pytest.raises(InfeasibleFinitePadding):
                    solve_aux(spec, coupling)
                continue
            assert solve_aux(spec, coupling).tolist() == minimal.tolist()
    assert outcomes == {True, False}


def test_build_U_unitary_and_block_pattern():
    spec = padded_covariant_spec()
    st = coupling_for(spec)
    u = st.U
    assert np.linalg.norm(adj(u) @ u - np.eye(u.shape[0])) < 1e-12
    # equivariance: U maps each component to itself
    off = 0.0
    for i, li in enumerate(st.layout.D):
        for j, lj in enumerate(st.layout.Udom):
            if li != lj:
                off = max(off, abs(u[i, j]))
    assert off < 1e-12


def test_transfer_identities_on_random_members():
    for seed in range(6):
        style = "jointly-nilpotent" if seed % 2 else "scaled-commuting"
        spec = random_tuple(style, 3, 3 + seed % 3, seed=seed)
        st = coupling_for(spec)
        transfer = transfer_for(spec, st)
        assert st.defect_equality < 1e-10
        assert transfer.residuals["lemma_U1"] < 1e-10
        assert transfer.residuals["eq_ABn"] < 1e-10
        assert transfer.residuals["eq_Cn"] < 1e-10
        assert transfer.residuals["frame_eq_f"] < 1e-10
        assert transfer.residuals["U1_unitarity"] < 1e-12 * transfer.U1.shape[0]


def test_transfer_blocks_satisfy_colligation_relations():
    spec = random_tuple("u-commuting", 3, 4, seed=4)
    st = coupling_for(spec)
    tr = transfer_for(spec, st)
    d = st.layout.dim
    for u in (tr.U1, tr.Un):
        a, b, c = u[:d, :d], u[:d, d:], u[d:, :d]
        assert np.linalg.norm(a @ adj(c)) < 1e-12
        assert np.linalg.norm(c @ adj(c) - np.eye(c.shape[0])) < 1e-12
        assert np.linalg.norm(a @ adj(a) + b @ adj(b) - np.eye(a.shape[0])) < 1e-12


def test_tau_degree_zero_is_diagonal_part_alone():
    """On a degree-0 Fock model, one cell, tau1's shift term reads no cell, so
    tau1 is its cellwise term alone, U1's A block*."""
    model = assemble_model(scalar_triple(), N=1)
    d = model.layout.dim
    fock = FockModel(model.merged.n, 0, d, model.merged.phases)
    tau1 = dilated_isometries(model.spec, model.transfer, model.layout, fock)[0]
    assert reads(tau1)[0].tolist() == [[-1], [0]]
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
    """The tails recursion against Pi's mass and against the mass of the merged
    defect root times a power table formed here, cell by cell."""
    for seed in (0, 5):
        spec = random_tuple("scaled-commuting", 3, 4, seed=seed)
        model = assemble_model(spec, N=4)
        mass = np.sum(np.abs(model.Pi) ** 2, axis=0)
        assert np.max(np.abs(mass + model.tails - 1.0)) < 1e-12
        powers = ordered_power_products(model.merged, model.fock)
        direct = np.sum(np.abs(model.defects["hat1n"].root @ powers) ** 2, axis=(0, 1))
        assert np.max(np.abs(direct + model.tails - 1.0)) < 1e-12


def test_one_power_table_per_model(monkeypatch):
    """The model forms the merged power table once, for Pi, and keeps only Pi:
    ``full_report`` forms no table, and Pi's cell alpha is bit for bit [X; 0]
    times row alpha of a second table."""
    calls = []
    monkeypatch.setattr(builder, "ordered_power_products",
                        lambda *args: calls.append(1) or ordered_power_products(*args))
    model = assemble_model(random_tuple("scaled-commuting", 3, 4, seed=0), N=4)
    assert len(calls) == 1 and not hasattr(model, "powers")
    assert full_report(model).passed
    assert len(calls) == 1
    xs = pad_rows(model.transfer.frames[0], model.layout)
    again = build_Pi(xs, ordered_power_products(model.merged, model.fock))
    assert again.tobytes() == model.Pi.tobytes()


def test_defect_frames_formed_once_per_build_and_per_load(monkeypatch):
    """A build forms the frames X, Y in ``build_V0`` and a load in
    ``model_from_dict``; the model takes Pi's cell-0 block from the frames its
    transfer data were measured on, so each forms them exactly once."""
    calls = []

    def counted(spec, defects):
        calls.append(1)
        return defect_frames(spec, defects)

    monkeypatch.setattr(builder, "defect_frames", counted)
    monkeypatch.setattr(dfio, "defect_frames", counted)
    for style in ("covariant", "jointly-nilpotent"):
        model = assemble_model(random_tuple(style, 3, 4, seed=1), N=3)
        assert len(calls) == 1
        loaded = dfio.model_from_dict(json.loads(dump_json(model_to_dict(model), None)))
        assert len(calls) == 2
        assert loaded.Pi.tobytes() == model.Pi.tobytes()
        x, _ = defect_frames(model.spec, model.defects)
        assert np.array_equal(model.Pi[:len(x)], x)
        calls.clear()


def test_tail_monotone_in_degree():
    spec = random_tuple("scaled-commuting", 3, 4, seed=7)
    defects, merged, _ = defects_for(spec)
    root = defects["hat1n"].root
    t3, t4, t5 = (truncation_tails(merged, root, N) for N in (3, 4, 5))
    assert np.all(t4 <= t3 + 1e-13) and np.all(t5 <= t4 + 1e-13)
    assert np.all(t5 >= -1e-13)


def test_build_defects_roots_take_the_class_gate_verdicts_at_the_cutoff(monkeypatch):
    """``build_defects`` hands its one stacked ``psd_sqrt`` call the class
    gate's own squares and PSD verdicts for hat1 and hatn, so a tuple in the
    class always gets its defects, also with a smallest Szego eigenvalue
    within rounding of the cutoff -PSD_TOL * max(1, ||A||_2).  The tuples
    (0, t2, 0) with t2 = [[0, R], [0, 0]] and R R* = I - A have the hat1 Szego
    operator diag(A, I); A's smallest eigenvalue steps across -1e-10."""
    calls = []

    def spy(a, reports):
        calls.append((a, reports))
        return psd_sqrt(a, reports)

    monkeypatch.setattr(builder, "psd_sqrt", spy)
    rng = np.random.default_rng(5)
    verdicts = set()
    for dim in (2, 3):
        z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        q, _ = np.linalg.qr(z)
        for step in range(-20, 21):
            eigs = np.linspace(1.0, 0.5, dim)
            eigs[-1] = -1e-10 + step * 1e-16
            r = (q * np.sqrt(1.0 - eigs)) @ adj(q)  # R R* = I - A, A = q diag(eigs) q*
            t2 = np.zeros((2 * dim, 2 * dim), dtype=complex)
            t2[:dim, dim:] = r
            zero = np.zeros_like(t2)
            spec = TupleSpec.from_operators([zero, t2, zero])
            gate, (sq_hat1, sq_hatn) = class_gate(spec, [])
            verdicts.add(gate.in_T1n)
            calls.clear()
            if not gate.in_T1n:
                with pytest.raises(NotInClass):
                    defects_for(spec)
                assert calls == []
                continue
            defects_for(spec)
            [(stack, reports)] = calls
            (a1, an, _), (v1, vn, _) = stack, reports
            assert v1 == gate.szego_hat1 and vn == gate.szego_hatn, (dim, step)
            assert np.array_equal(a1, sq_hat1) and np.array_equal(an, sq_hatn)
    assert verdicts == {True, False}


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
    mult1 = solve_aux(spec, coupling)
    dim = coefficient_layout(spec, defects, mult1, coupling.algebra).dim
    coupling.V0 = (1.0 + 1e-9) * coupling.V0  # the extension U is no longer unitary
    with pytest.raises(IdentityResidualExceeded) as exc:
        build_U(spec, defects, coupling, mult1)
    assert dim > 1 and exc.value.identity == "U_unitarity"
    assert exc.value.gate == UNITARY_GATE * dim < exc.value.residual
    assert f"{exc.value.gate:.1e}" in str(exc.value)


def test_model_determinism_and_free_completion():
    spec = random_tuple("scaled-commuting", 3, 4, seed=11)
    m1 = assemble_model(spec, N=3)
    m2 = assemble_model(spec, N=3)
    assert np.array_equal(m1.Pi, m2.Pi)
    assert np.array_equal(m1.transfer.U1, m2.transfer.U1)  # U1 holds every column of U
    u = coupling_for(spec).U
    assert np.array_equal(coupling_for(spec).U, u)
    alt = assemble_model(spec, N=3, completion_seed=42)
    assert not np.allclose(coupling_for(spec, completion_seed=42).U, u)
    assert not np.allclose(alt.transfer.U1, m1.transfer.U1)
    # the theorems hold for any admissible completion
    from dilation_forge.verifier import full_report
    assert full_report(alt).passed


# the tuples of the padding facts: each style at seed 0, and the tuple whose
# minimal padding is [1, 0]
FACT_TUPLES = {
    "scaled-commuting": lambda: random_tuple("scaled-commuting", 3, 3, seed=0),
    "u-commuting": lambda: random_tuple("u-commuting", 3, 4, seed=0),
    "covariant": lambda: random_tuple("covariant", 3, 4, seed=0),
    "jointly-nilpotent": lambda: random_tuple("jointly-nilpotent", 4, 3, seed=0),
    "padded-covariant": padded_covariant_spec,
}


@pytest.mark.parametrize("name", list(FACT_TUPLES))
def test_padding_without_a_seed_is_invisible(name):
    """Without a completion seed, one more padding coordinate per component
    adds only coordinates that no V^alpha Pi h reaches: every Pi* V_i* V_j Pi
    and the minimal rank stay, while dim D grows.  At pad 0 the stages give
    the model ``assemble_model`` builds, byte for byte."""
    spec = FACT_TUPLES[name]()
    model = assemble_model(spec, N=3)
    text = dump_json(model_to_dict(model), None)
    assert dump_json(model_to_dict(padded_model(spec, 3, 0)), None) == text
    padded = padded_model(spec, 3, 1)
    k = effective_algebra(spec).k
    assert padded.layout.dim == model.layout.dim + k
    assert np.max(np.abs(compressions(padded) - compressions(model))) <= 1e-14
    assert minimal_rank(padded) == minimal_rank(model)
    assert full_report(padded).passed


@pytest.mark.parametrize("seed", [1, 2])
def test_completion_seeds_give_inequivalent_dilations(seed):
    """On a jointly nilpotent tuple T^alpha = 0 for |alpha| >= 3, so N = 3 is
    exact (no tail); a seeded completion still passes, yet moves the
    compressions, which a unitary equivalence of the minimal dilations would
    keep: the dilation is not unique.  Pi stays the same bit for bit: its
    cell-0 block is the defect frame X, which U does not enter."""
    spec = FACT_TUPLES["jointly-nilpotent"]()
    model = assemble_model(spec, N=3)
    assert np.max(np.abs(model.tails)) < 1e-14
    seeded = assemble_model(spec, N=3, completion_seed=seed)
    assert full_report(seeded).passed
    assert np.max(np.abs(compressions(seeded) - compressions(model))) > 0.1
    assert seeded.Pi.tobytes() == model.Pi.tobytes()


def test_degree_beyond_the_cell_budget_fails_before_the_tails():
    """comb(3 + 10^9, 3) cells: ``DimensionMismatch`` before the tails or the
    Fock model allocate anything that grows with N."""
    spec = random_tuple("scaled-commuting", 4, 3, seed=0)
    tracemalloc.start()
    try:
        with pytest.raises(DimensionMismatch, match="budget of 32768"):
            assemble_model(spec, N=10 ** 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2 ** 20, peak


@pytest.mark.parametrize("kwargs,message", [
    ({"N": 1.5}, "truncation degree N must be an integer, got 1.5"),
    ({"N": True}, "truncation degree N must be an integer, got True"),
    ({"N": "3"}, "truncation degree N must be an integer, got '3'"),
    ({"N": None}, "truncation degree N must be an integer, got None"),
    ({"N": -1}, "truncation degree N must be >= 1, got -1"),
    ({"completion_seed": 1.5}, "completion seed must be an integer, got 1.5"),
    ({"completion_seed": "3"}, "completion seed must be an integer, got '3'"),
    ({"completion_seed": True}, "completion seed must be an integer, got True"),
    ({"completion_seed": False}, "completion seed must be an integer, got False"),
    ({"completion_seed": np.int64(-2)}, "completion seed must be >= 0, got -2"),
    ({"N": np.uint8(0)}, "truncation degree N must be >= 1, got 0")])
def test_build_counts_that_are_no_integers_are_input_errors(kwargs, message, monkeypatch):
    """A degree that is not an integer >= 1 or a completion seed that is not an
    integer >= 0 (a bool is not one) is a ``DilationForgeError`` raised before
    any other work, so an out-of-class tuple gets it too; Python and numpy
    integers build, and a numpy degree is stored as an int, which a model file takes."""
    monkeypatch.setattr(builder, "effective_algebra", lambda spec: pytest.fail("built"))
    for spec in (scalar_triple(), parrott_tuple()):
        with pytest.raises(DilationForgeError, match=f"^{re.escape(message)}$"):
            assemble_model(spec, **kwargs)
    monkeypatch.undo()
    for N, seed in ((np.int64(2), np.int32(5)), (np.uint8(1), None), (1, 0)):
        model = assemble_model(scalar_triple(), N=N, completion_seed=seed)
        assert type(model.N) is int and model.N == N
        assert full_report(model).passed
        dump_json(model_to_dict(model), None)


@pytest.mark.parametrize("k", [0, -1, 1.5, True, "2", None])
def test_covariant_k_must_be_a_positive_integer(k):
    """The covariant generator refuses a k that is not a positive integer with
    ``GenerationFailed`` (k = 0 once divided by zero); a numpy integer is one."""
    with pytest.raises(GenerationFailed, match="k a positive integer"):
        random_tuple("covariant", 3, 4, 0, k=k)
    assert random_tuple("covariant", 3, 4, 0, k=np.int64(2)).algebra.k == 2


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
        cells = enumerate_indices(m, N)[0]
        table = ordered_power_products(spec, FockModel(m, N, 1, spec.phases))
        memo = dict_power_products(spec, cells)
        ref = np.array([memo[tuple(alpha)] for alpha in cells.tolist()])
        assert table.shape == ref.shape
        assert np.linalg.norm(table - ref) <= 1e-15 * np.linalg.norm(ref)


def box_enumeration_tails(merged, dhat_root, N):
    """Reference tails: the 2^m telescoping of the (N+1)^m box partial sum,
    minus the box cells above degree N, each cell from ``dict_power_products``."""
    m, dim = merged.n, merged.dimH
    cells = box_indices(m, N)
    memo = dict_power_products(merged, cells)
    tele = np.zeros(dim)
    for mask in range(1, 2 ** m):
        members = [s for s in range(m) if mask >> s & 1]
        tg = np.eye(dim, dtype=complex)
        for s in members:
            tg = tg @ merged.op(s + 1)
        power = np.linalg.matrix_power(tg, N + 1)
        tele -= (-1.0) ** len(members) * np.sum(np.abs(power) ** 2, axis=1)
    excess = np.zeros(dim)
    for alpha in cells:
        if sum(alpha) > N:
            excess += np.sum(np.abs(dhat_root @ memo[alpha]) ** 2, axis=0)
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


def per_component_loop(mat, row_labels, col_labels, k, basis_of):
    """The loop ``builder._per_component`` replaced: one matrix, one block and
    one ``basis_of`` call per component."""
    cols, labels = [], []
    for p in range(k):
        rows = np.flatnonzero(row_labels == p)
        sub = basis_of(mat[np.ix_(rows, np.flatnonzero(col_labels == p))])
        cols.append(np.zeros((mat.shape[0], sub.shape[1]), dtype=complex))
        cols[-1][rows] = sub
        labels += [p] * sub.shape[1]
    return np.hstack(cols), np.asarray(labels, dtype=int)


def complement_of_range(block):
    """The orthogonal complement of a block's range: the trailing left singular
    vectors of its range basis."""
    basis = range_basis(block)
    return np.linalg.svd(basis, full_matrices=True)[0][:, basis.shape[1]:]


def crandn(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def assert_same_spans(basis, labels, ref_basis, ref_labels):
    """Orthonormal columns with the reference's labels, spanning its span."""
    assert np.array_equal(labels, ref_labels)
    assert np.abs(adj(basis) @ basis - np.eye(basis.shape[1])).max(initial=0.0) <= 1e-14
    assert np.abs(basis @ adj(basis) - ref_basis @ adj(ref_basis)).max(initial=0.0) <= 1e-14


@pytest.mark.parametrize("seed", range(4))
def test_shape_grouped_bases_match_per_block_calls(seed):
    """``_per_component`` masks each matrix to each component and takes every
    range basis from one stack, with no grouping by shape; the bases equal the
    per-block loop's ``range_basis`` block by block, bit for bit: interleaved
    labels with k = 4 and k = 3, components of unequal sizes, a
    rank-deficient block, a zero block, a component with no rows, rows of no
    component (label -1), one label row per matrix, and one component (k = 1)."""
    rng = np.random.default_rng(seed)
    for k, sizes in ((4, [2, 2, 3, 1]), (3, [2, 2, 2]), (3, [3, 0, 2])):
        labels = rng.permutation(np.repeat(np.arange(k), sizes))
        dim = labels.size
        roots = crandn(rng, (3, dim, dim)) * 0.3 * (labels[:, None] == labels)
        roots[1][np.ix_(labels == 2, labels == 2)] = 0.0  # a zero block
        if k == 4:
            low = rng.standard_normal((3, 1)) @ rng.standard_normal((1, 3))
            roots[2][np.ix_(labels == 2, labels == 2)] = low  # rank one
        each = np.array([labels, np.where(labels == 0, -1, labels), rng.permutation(labels)])
        for rows in (labels, each):
            got = builder._per_component(roots, rows, k)
            assert len(got) == 3
            for (basis, got_labels), root, row in zip(got, roots, np.broadcast_to(rows, (3, dim))):
                ref_basis, ref_labels = per_component_loop(root, row, row, k, range_basis)
                assert basis.shape == ref_basis.shape and np.array_equal(basis, ref_basis)
                assert got_labels.dtype == ref_labels.dtype
                assert np.array_equal(got_labels, ref_labels)
    one = np.zeros(8, dtype=int)
    roots = crandn(rng, (3, 8, 8))
    for (basis, got_labels), root in zip(builder._per_component(roots, one, 1), roots):
        assert np.array_equal(basis, range_basis(root)) and not got_labels.any()


def interleaved_covariant():
    """A covariant k = 3 tuple whose coordinates are permuted so that no
    component's coordinates are adjacent: ``block_of`` is [2, 0, 2, 0, 1, 1]."""
    spec = random_tuple("covariant", 4, 6, seed=7, k=3)
    perm = np.array([4, 1, 5, 0, 3, 2])
    alg = AlgebraStructure(spec.algebra.k, spec.algebra.block_of[perm], spec.algebra.automorphisms)
    return TupleSpec(n=spec.n, dimH=spec.dimH, d=1, blocks=spec.blocks[..., perm, :][..., perm],
                     phases=spec.phases, algebra=alg)


def assert_complements(spec, defects, coupling, alg):
    """M1 and M2 against the frames X and Y: orthonormal, orthogonal to the
    frame, exactly 0 off their component's rows, as many in component p as
    its rows less the frame block's rank, labels ascending, each component's
    columns in the order of their leading coordinates, and spanning the
    per-block complements of the frame's blocks."""
    n, blocks = spec.n, alg.block_of
    d_labels = np.concatenate([defects["hatn"].labels, alg.automorphisms[0][defects["hat1"].labels]])
    u_labels = np.concatenate([defects["hat1"].labels,
                               alg.automorphisms[n - 1][defects["hatn"].labels]])
    for got, got_labels, frame, rows in ((coupling.M1, coupling.M1_labels, coupling.X, d_labels),
                                         (coupling.M2, coupling.M2_labels, coupling.Y, u_labels)):
        assert np.abs(adj(got) @ frame).max(initial=0.0) <= 1e-14 * max(1.0, np.abs(frame).max())
        assert np.all(got[rows[:, None] != got_labels] == 0.0)
        _, span_labels = per_component_loop(frame, rows, blocks, alg.k, range_basis)
        assert np.array_equal(np.bincount(got_labels, minlength=alg.k),
                              np.bincount(rows, minlength=alg.k)
                              - np.bincount(span_labels, minlength=alg.k))
        assert np.all(np.diff(got_labels) >= 0)
        lead = np.argmax(np.abs(got), axis=0)
        assert np.all((np.diff(lead) >= 0) | (np.diff(got_labels) > 0))
        assert_same_spans(got, got_labels,
                          *per_component_loop(frame, rows, blocks, alg.k, complement_of_range))


@pytest.mark.parametrize("style,n", [("covariant", 4), ("covariant", 9), ("scaled-commuting", 5),
                                     ("jointly-nilpotent", 4), ("u-commuting", 3),
                                     ("scaled-commuting", 2), ("jointly-nilpotent", 10)])
def test_built_defects_and_complements_match_per_block_calls(style, n, monkeypatch):
    """A model's defect bases are those of the per-matrix, per-component loop,
    bit for bit, and its complements M1, M2 span the loop's per-block
    complements and pass ``assert_complements``.  The merged square, which
    ``build_defects`` forms from the class gate's row of the inner indices
    2..n-1 (I for n = 2), is the merged tuple's own Szego operator, bit for bit."""
    squares = []
    monkeypatch.setattr(builder, "psd_sqrt", lambda a, reports: squares.append(a.copy())
                        or psd_sqrt(a, reports))
    spec = random_tuple(style, n, 4, seed=n)
    alg = effective_algebra(spec)
    blocks = np.asarray(alg.block_of)
    defects, merged, _ = build_defects(spec, alg)
    [(_, _, hat1n)] = squares
    assert hat1n.tobytes() == szego_operator(merge_1n(spec), range(1, n)).tobytes()
    assert merged.phases.tobytes() == merge_1n(spec).phases.tobytes()
    for d in defects.values():
        basis, labels = per_component_loop(d.root, blocks, blocks, alg.k, range_basis)
        assert np.array_equal(d.basis, basis) and np.array_equal(d.labels, labels)
    assert_complements(spec, defects, build_V0(spec, defects, alg), alg)


def test_interleaved_components_build_exact_blocks():
    """With interleaved components (k = 3) the defect bases are still the
    per-block loop's, bit for bit, the complements pass ``assert_complements``,
    with their exact zeros off their components, every equiv_* residual is at
    most 1e-14 and the model verifies."""
    spec = interleaved_covariant()
    alg = spec.algebra
    defects, _, _ = build_defects(spec, alg)
    for d in defects.values():
        basis, labels = per_component_loop(d.root, alg.block_of, alg.block_of, alg.k, range_basis)
        assert np.array_equal(d.basis, basis) and np.array_equal(d.labels, labels)
    assert_complements(spec, defects, build_V0(spec, defects, alg), alg)
    report = full_report(assemble_model(spec, N=3))
    assert report.passed
    assert max(v for name, v in report.residuals.items() if name.startswith("equiv_")) <= 1e-14


def test_a_span_that_fills_its_component_has_no_complement():
    """t_1 = t_2 = S (+) I/2 with S the 3 x 3 shift, components interleaved:
    in component 0 each frame spans both of its rows, so it has no complement
    column, while component 1 gets its three, and the model needs no padding
    and verifies.  With the defect bases turned by a unit phase, the frames'
    masked I - B B* in component 0 is rounding, not zero, and still gives none."""
    t = np.zeros((6, 6))
    t[:3, :3], t[3:, 3:] = np.diag([1.0, 1.0], -1), 0.5 * np.eye(3)
    perm = np.array([0, 3, 1, 4, 2, 5])
    alg = AlgebraStructure(2, [0, 1, 0, 1, 0, 1], [[0, 1], [0, 1]])
    spec = TupleSpec.from_operators([t[perm][:, perm]] * 2, algebra=alg)
    defects, _, _ = build_defects(spec, alg)
    turned = {name: builder.DefectData(d.root, d.basis * np.exp(0.7j), d.labels)
              for name, d in defects.items()}
    for defs in (defects, turned):
        coupling = build_V0(spec, defs, alg)
        assert coupling.M1_labels.tolist() == coupling.M2_labels.tolist() == [1, 1, 1]
        assert_complements(spec, defs, coupling, alg)
    model = assemble_model(spec, N=3)
    assert model.layout.mult1.tolist() == [0, 0] and full_report(model).passed


def test_trivial_algebra_equals_a_checked_one():
    """Without a declared algebra the builder's one-component algebra, which
    skips the checks, has the fields ``AlgebraStructure`` checks and builds."""
    spec = random_tuple("jointly-nilpotent", 4, 3, seed=0)
    checked, trivial = AlgebraStructure(1, [0] * 3, [[0]] * 4), effective_algebra(spec)
    assert trivial.k == checked.k == 1 and vars(trivial).keys() == vars(checked).keys()
    for name in ("block_of", "automorphisms"):
        got, want = getattr(trivial, name), getattr(checked, name)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())
    covariant = random_tuple("covariant", 3, 4, seed=0)
    assert effective_algebra(covariant) is covariant.algebra
