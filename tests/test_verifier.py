import timeit
import tracemalloc
from copy import copy
from dataclasses import replace
from itertools import combinations, product

import numpy as np
import pytest

from dilation_forge import builder, verifier
from dilation_forge.builder import assemble_model, defect_frames, measure_transfer
from dilation_forge.fock import (FockFamily, FockModel, apply_adjoints, creation_matrix,
                                 enumerate_indices, interior_projector)
from dilation_forge.generators import STYLES, random_tuple, scalar_triple, zero_tuple
from dilation_forge.linalg import adj, eye, rel_residual
from dilation_forge.tuples import TupleSpec, ordered_power_products, purity_radii
from dilation_forge.verifier import (TOLERANCES, _covariance, _relabel_counts, full_report,
                                     moment_degree, moment_sums, verify_equivariance,
                                     verify_factorization, verify_intertwining,
                                     verify_isometric_representation, verify_moments, verify_pi)
from fock_reference import (apply, cell_blocks, coordinate_labels, covariance, sparse_product,
                            sparse_terms_norm, term_lists, two_block_terms)
from padding import padded_model


def gated_worst(report):
    return max((v for k, v in report.residuals.items() if k in report.verdicts), default=0.0)


def style_tuple(style, n, dimH, seed):
    """``random_tuple``, except that the covariant style is drawn at dimH 4
    (C^2 (x) C^2, a multiple of its k = 2)."""
    return random_tuple(style, n, 4 if style == "covariant" else dimH, seed=seed)


def unit_columns(mask):
    """The identity columns of the coordinates selected by ``mask``."""
    return np.eye(mask.size, dtype=complex)[:, mask]


def reference_products(model):
    """Brute-force isometry, commutation and factorization residuals.

    Applies the operators to the identity columns of the interior
    coordinates (margin 1 for W*W, margin min(2, N) for the products) and
    takes the norms of the resulting dim-row columns.
    """
    spec, fock = model.spec, model.fock
    inner = interior_projector(fock, 1)
    e1, e2 = unit_columns(inner), unit_columns(interior_projector(fock, min(2, fock.N)))
    out, ws = {}, list(model.isometries)[:spec.n]
    for i, w in enumerate(ws, start=1):
        gram = apply_adjoints(w, apply(w, e1))[0]
        out[f"isometry_v{i}"] = rel_residual(gram[inner] - e1[inner], e1)
    for (i, vi), (j, vj) in combinations(enumerate(ws, start=1), 2):
        ji = apply(vj, apply(vi, e2))
        out[f"commute_{i}_{j}"] = rel_residual(apply(vi, apply(vj, e2)) - spec.u(i, j) * ji, ji)
    l1 = apply(creation_matrix(fock, 0), e2)
    v1, vn = ws[0], ws[-1]
    out["factor_tau12"] = rel_residual(apply(v1, apply(vn, e2)) - l1, l1)
    out["factor_tau21"] = rel_residual(apply(vn, apply(v1, e2)) - spec.u(spec.n, 1) * l1, l1)
    return out


def rebuilt_model(model, change):
    """The model with U1 and Un formed and measured, ungated, from
    ``change(U)``, U a copy of the model's completion."""
    spec, defects = model.spec, model.defects
    transfer = measure_transfer(spec, model.layout, change(model.transfer.U.copy()),
                                defect_frames(spec, defects),
                                model.transfer.residuals["defect_equality"])
    return replace(model, transfer=transfer)


def with_isometries(model, ops):
    """A copy of the model whose dilated family is made of the term lists ``ops``."""
    bent = copy(model)
    bent.isometries = FockFamily(model.fock, ops)
    return bent


def assert_matches_reference(model):
    got = verify_isometric_representation(model)
    ref = reference_products(model)
    assert list(got) == list(ref)
    for name, value in ref.items():
        assert abs(got[name] - value) <= 1e-14 * max(1.0, value), (name, got[name], value)


@pytest.mark.parametrize("style", STYLES)
def test_report_applies_the_adjoints_to_pi_once(style, monkeypatch):
    """A report applies the family's adjoints to Pi once, in the intertwining
    check, whose rows are ``apply_adjoints`` of each operator of the family
    alone, bit for bit; the moment check applies none."""
    model = assemble_model(style_tuple(style, 3, 3, seed=21), N=3)
    calls = []
    monkeypatch.setattr(verifier, "apply_adjoints",
                        lambda ops, x: calls.append(len(ops)) or apply_adjoints(ops, x))
    assert full_report(model).to_dict() == full_report(model).to_dict()
    assert calls == [model.spec.n + 1] * 2
    calls.clear()
    verify_moments(model)
    assert calls == []
    rows = apply_adjoints(model.isometries, model.Pi)
    for got, w in zip(rows, model.isometries):
        assert got.tobytes() == apply_adjoints(w, model.Pi)[0].tobytes()


@pytest.mark.parametrize("N", [1, 2, 5])
@pytest.mark.parametrize("style", STYLES)
def test_composed_residuals_match_identity_columns(style, N):
    model = assemble_model(style_tuple(style, 3, 3, seed=21), N=N)
    assert_matches_reference(model)
    # a non-unitary coupling makes the residuals O(1), so the masks show in the values
    broken = rebuilt_model(model, lambda u: u + 0.1)
    assert_matches_reference(broken)
    assert max(verify_isometric_representation(broken).values()) > 1e-3


@pytest.mark.parametrize("N", [1, 2, 5])
def test_composed_residuals_match_identity_columns_swap_covariant(N):
    spec = random_tuple("covariant", 3, 4, seed=6, k=2,
                        automorphisms=[[1, 0], [0, 1], [1, 0]])
    assert_matches_reference(padded_model(spec, N, 1))


@pytest.mark.parametrize("style,n,seed", [("jointly-nilpotent", 4, 1), ("u-commuting", 3, 0),
                                          ("scaled-commuting", 4, 1)])
def test_phases_at_the_tolerance_edge_match_identity_columns(style, n, seed):
    """Off-diagonal phases whose modulus is off by up to 4.9e-13, which the
    tuple's and the merged tuple's phase checks still accept: the characters'
    moduli then stray from 1 by a few 1e-12 on the deeper cells, which the
    brute force sees (about 3e-12) and the closed form, taking each character
    as its unimodular part, does not (about 8e-13); they agree within 1e-11.
    (Differences of such characters cancelling between separately taken
    norms once read 2.6e-6 here.)"""
    spec = style_tuple(style, n, 2, seed=seed)
    drift = np.triu(1.0 - 4.9e-13 * np.random.default_rng(0).uniform(0.5, 1.0, (n, n)), 1)
    phases = spec.phases * (drift + drift.T + np.eye(n))
    model = assemble_model(replace(spec, phases=phases), N=4)
    got = verify_isometric_representation(model)
    ref = reference_products(model)
    assert list(got) == list(ref)
    assert max(abs(got[name] - value) for name, value in ref.items()) <= 1e-11


def per_pair_isometric_representation(model):
    """The isometry and commutation residuals one pair at a time, from
    block-sparse products (``fock_reference``) on the model's interior cells."""
    spec, fock = model.spec, model.fock
    unit = max(1.0, np.sqrt(np.count_nonzero(interior_projector(fock, 1))))
    margin, out, ws = min(2, fock.N), {}, list(model.isometries)[:spec.n]
    for i, w in enumerate(ws, start=1):
        out[f"isometry_v{i}"] = sparse_terms_norm(
            fock, [(1.0, sparse_product(w, w, adjoint=True))], 1, 1, minus_identity=True) / unit
    for (i, vi), (j, vj) in combinations(enumerate(ws, start=1), 2):
        ji = sparse_product(vj, vi)
        ref = max(1.0, sparse_terms_norm(fock, [(1.0, ji)], margin))
        out[f"commute_{i}_{j}"] = sparse_terms_norm(
            fock, [(1.0, sparse_product(vi, vj)), (-spec.u(i, j), ji)], margin) / ref
    return out


def per_pair_factorization(model):
    """The transfer factorization residuals from block-sparse products on the
    model's source cells of margin min(2, N)."""
    fock, margin, n = model.fock, min(2, model.N), model.spec.n
    l1 = cell_blocks(model.isometries[n])
    ref = max(1.0, sparse_terms_norm(fock, [(1.0, l1)], margin))
    v1, vn = model.isometries[0], model.isometries[n - 1]
    flip = model.spec.u(model.spec.n, 1)
    return {"factor_tau12": sparse_terms_norm(
                fock, [(1.0, sparse_product(v1, vn)), (-1.0, l1)], margin) / ref,
            "factor_tau21": sparse_terms_norm(
                fock, [(1.0, sparse_product(vn, v1)), (-flip, l1)], margin) / ref}


def assert_close(got, ref):
    """Residuals equal by name, within 1e-14, or 1e-12 relative for the O(1)
    residuals of a broken model."""
    assert list(got) == list(ref)
    for name, value in ref.items():
        assert abs(got[name] - value) <= max(1e-14, 1e-12 * value), (name, got[name], value)


def assert_matches_per_pair(model):
    """The one-pass closed-form checks against the per-pair references; the
    factorization entries are the same whether asked for alone or with the rest."""
    got = verify_isometric_representation(model)
    assert verify_factorization(model) == {"factor_tau12": got["factor_tau12"],
                                           "factor_tau21": got["factor_tau21"]}
    assert_close(got, {**per_pair_isometric_representation(model), **per_pair_factorization(model)})


def assert_broken_matches_per_pair(model):
    """The model and its rebuild from the non-unitary coupling U + 0.1, whose
    residuals are O(1), against the per-pair references."""
    assert_matches_per_pair(model)
    broken = rebuilt_model(model, lambda u: u + 0.1)
    assert_matches_per_pair(broken)
    assert max(verify_isometric_representation(broken).values()) > 1e-3


WIDTHS = {"u-commuting": (2, 3)}  # the u-commuting style builds n = 2 and 3 only


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("style", STYLES)
def test_one_pass_matches_per_pair_loop(style, N):
    """Every width from 2 to 10, the wide-tuple shapes."""
    for n in WIDTHS.get(style, range(2, 11)):
        assert_broken_matches_per_pair(assemble_model(style_tuple(style, n, 2, seed=30 + n), N=N))


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("style", STYLES)
def test_fixed_degree_matches_model_degree(style, N):
    """The closed form does a fixed amount of work at every degree, reading no
    cell; its residuals equal the per-pair products on the model's interior
    cells at degrees up to 6, for widths up to 8 (up to 13728 coordinates)."""
    for n in WIDTHS.get(style, (2, 3, 5, 8)):
        assert_broken_matches_per_pair(assemble_model(style_tuple(style, n, 2, seed=40 + n), N=N))


def per_operator_intertwining(model):
    """The intertwining residuals one operator at a time, by ``apply_adjoints``
    of each operator alone and ``rel_residual``, each right-hand side from its
    own product."""
    spec, pi = model.spec, model.Pi
    inner = interior_projector(model.fock, 1)
    ts = [spec.op(i) for i in range(1, spec.n + 1)] + [model.merged.op(1)]
    out = []
    for w, t in zip(model.isometries, ts):
        rhs = (pi @ adj(t))[inner]
        out.append(rel_residual(apply_adjoints(w, pi)[0][inner] - rhs, rhs))
    return out


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("style", STYLES)
def test_stacked_intertwining_matches_per_operator_loop(style, N):
    """The verifier's one ``apply_adjoints`` over the family and stacked
    ``frob_stack`` equal this loop's ``apply_adjoints`` and ``rel_residual``
    per operator, bit for bit."""
    for n in WIDTHS.get(style, range(2, 11)):
        model = assemble_model(style_tuple(style, n, 2, seed=30 + n), N=N)
        got = verify_intertwining(model)
        assert list(got) == (["dilation1_tau1"] + [f"dilation_L{i}" for i in range(2, n)]
                             + ["dilation2_taun", "dilationV_L1"])
        assert list(got.values()) == per_operator_intertwining(model)
        broken = rebuilt_model(model, lambda u: u + 0.1)
        got = verify_intertwining(broken)
        assert list(got.values()) == per_operator_intertwining(broken)
        assert max(got["dilation1_tau1"], got["dilation2_taun"]) > 1e-3


def test_one_pass_keeps_each_pair_in_its_residual():
    """A middle operator whose block is scaled and whose costs are turned in
    the other slots fails exactly the commutations that involve its index, and
    moves only its own isometry entry."""
    model = assemble_model(random_tuple("jointly-nilpotent", 5, 2, seed=4), N=3)
    before = verify_isometric_representation(model)
    k = 3  # V_3 is the creation operator of merged slot k - 1 (0-based)
    ops = term_lists(model.isometries)
    [(slot, block, costs)] = ops[k - 1]
    turn = np.exp(0.7j * (np.arange(model.fock.m) != slot))
    ops[k - 1] = [(slot, 1.25 * block, costs * turn)]
    bent_model = with_isometries(model, ops)
    after = verify_isometric_representation(bent_model)
    assert list(after) == list(before)
    tol = TOLERANCES["linear"]
    n = model.spec.n
    for i, j in combinations(range(1, n + 1), 2):
        name = f"commute_{i}_{j}"
        if k in (i, j):
            assert after[name] > 1e-3, name
        else:
            assert after[name] == before[name] and after[name] <= tol, name
    for i in range(1, n + 1):
        name = f"isometry_v{i}"
        assert (after[name] > 1e-3) if i == k else (after[name] == before[name]), name
    assert_matches_per_pair(bent_model)


def test_commutation_is_gated_at_linear():
    """A middle operator's costs turned by 5e-10 in the other slots put each
    commutation involving it between the two gates, 1e-10 < residual <= 1e-9:
    ``full_report`` fails exactly those entries, which it gates at "linear"
    like the isometries, not at the factorizations' "product"."""
    model = assemble_model(random_tuple("jointly-nilpotent", 5, 2, seed=4), N=3)
    k = 3  # V_3 is the creation operator of merged slot k - 1 (0-based)
    ops = term_lists(model.isometries)
    [(slot, block, costs)] = ops[k - 1]
    turn = np.exp(5e-10j * (np.arange(model.fock.m) != slot))
    ops[k - 1] = [(slot, block, costs * turn)]
    report = full_report(with_isometries(model, ops))
    bent_pairs = [f"commute_{i}_{j}" for i, j in combinations(range(1, 6), 2) if k in (i, j)]
    for name in bent_pairs:
        assert TOLERANCES["linear"] < report.residuals[name] <= TOLERANCES["product"], name
    assert report.failures() == bent_pairs


def test_factorization_sees_a_bent_transfer_shift():
    """tau_n's shift cost turned in slot 1, which it never shifts: every block
    stays, but the shift's character no longer matches tau_1's and L1's on
    the cells with alpha_1 > 0.  Both transfer factorizations break, V_1's
    isometry entry stays as it was, and the closed form still equals the
    dense products."""
    model = assemble_model(random_tuple("jointly-nilpotent", 5, 2, seed=4), N=3)
    before = verify_isometric_representation(model)
    ops = term_lists(model.isometries)  # tau_n is operator n - 1, before L1
    (slot, shift, shift_costs), (_, diag, kappa_costs) = ops[-2]
    turn = np.exp(0.7j * (np.arange(model.fock.m) == 1))
    ops[-2] = two_block_terms(model.fock, diag, shift, slot, shift_costs / kappa_costs * turn,
                              kappa_costs)
    bent_model = with_isometries(model, ops)
    after = verify_isometric_representation(bent_model)
    assert list(after) == list(before)
    assert max(before["factor_tau12"], before["factor_tau21"]) <= TOLERANCES["product"]
    assert after["factor_tau12"] > 1e-3 and after["factor_tau21"] > 1e-3
    assert after["isometry_v1"] == before["isometry_v1"]
    assert_matches_per_pair(bent_model)


@pytest.mark.parametrize("turn", [1e-13, 1e-10, 1e-7])
@pytest.mark.parametrize("n,N", [(5, 3), (4, 30)])
def test_slightly_turned_transfer_shift_matches_per_pair(n, N, turn):
    """tau_n's shift cost turned by ``turn`` in slot 1: on a cell with
    alpha_1 = K its character is off by about K * turn, so the factorization
    residuals grow in proportion (0.32 * turn at N = 3, 6.4 * turn at N = 30).  The closed
    form, which sums the products' character deviations rather than their
    characters, equals the per-pair products within 1e-16 at every turn, and
    at N = 30 too (a tolerance that took characters within 1e-9 as equal read
    turns of 1e-10 as 0 and missed turns of 1e-7 by 1.7e-10)."""
    model = assemble_model(random_tuple("scaled-commuting" if N > 6 else "jointly-nilpotent",
                                        n, 2, seed=4), N=N)
    ops = term_lists(model.isometries)  # tau_n is operator n - 1, before L1
    (slot, shift, shift_costs), (_, diag, kappa_costs) = ops[-2]
    costs = shift_costs / kappa_costs * np.exp(1j * turn * (np.arange(model.fock.m) == 1))
    ops[-2] = two_block_terms(model.fock, diag, shift, slot, costs, kappa_costs)
    bent_model = with_isometries(model, ops)
    got = verify_isometric_representation(bent_model)
    ref = {**per_pair_isometric_representation(bent_model), **per_pair_factorization(bent_model)}
    assert list(got) == list(ref)
    assert max(abs(got[name] - value) for name, value in ref.items()) <= 1e-16
    assert got["factor_tau12"] > turn / 10 and got["factor_tau21"] > turn / 10


def test_zero_tuple_all_pass_exactly():
    model = assemble_model(zero_tuple(3, 2), N=3)
    report = full_report(model)
    assert report.passed
    assert gated_worst(report) < 1e-14
    assert verify_pi(model) == {"pi_isometry": 0.0}


def test_scalar_triple_full_suite():
    model = assemble_model(scalar_triple(), N=4)
    report = full_report(model)
    assert report.passed
    assert max(report.tail_bounds) < 2e-4


def test_pi_telescoping_exact_for_slow_tuples():
    # large tails, identity still exact
    spec = TupleSpec.from_operators([[[0.9]], [[0.85]], [[0.6]]])
    model = assemble_model(spec, N=3)
    pi = verify_pi(model)
    assert max(model.tails) > 0.1
    assert list(pi) == ["pi_isometry"] and pi["pi_isometry"] < 1e-13


def test_deep_model_checks_in_bounded_memory():
    """At N = 30 (5456 cells) the isometry, commutation and factorization
    checks read no cell: on a freshly built model their own allocations peak
    under 1 MB (they took 333 + 84 MB when they read every cell).  The
    intertwinings read every cell of Pi (32736 x 3); their one stacked
    ``apply_adjoints`` peaks within twice the 23.4 MB of one ``apply_adjoints`` call
    per operator, the first call on the same model."""
    model = assemble_model(random_tuple("scaled-commuting", 4, 3, seed=0), N=30)
    assert model.fock.cell_count == 5456
    for check, bound in ((verify_isometric_representation, 2 ** 20),
                         (verify_intertwining, 2 * 23.4e6)):
        tracemalloc.start()
        try:
            check(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (check.__name__, peak)
    report = full_report(model)
    assert report.passed, report.failures()
    assert report.config["N"] == 30


def test_intertwinings_across_degrees():
    spec = random_tuple("scaled-commuting", 3, 4, seed=13)
    for N in (2, 3, 4):
        model = assemble_model(spec, N=N)
        inter = verify_intertwining(model)
        assert max(inter.values()) < 1e-10, (N, inter)
        fact = verify_factorization(model)
        assert max(fact.values()) < 1e-9
        isom = verify_isometric_representation(model)
        assert max(isom.values()) < 1e-10


def test_moments_nilpotent_exact():
    spec = random_tuple("jointly-nilpotent", 3, 4, seed=14)
    model = assemble_model(spec, N=4)
    assert verify_moments(model)["moment_match"] < 1e-14


def two_memo_moments(model, maxdeg=3):
    """The moment oracle from a forward memo V^beta Pi and an adjoint memo (V^beta)* Pi."""
    spec, pi, ws = model.spec, model.Pi, model.isometries
    K = min(maxdeg, model.N - 1)
    betas = [tuple(b) for b in enumerate_indices(spec.n, K)[0].tolist()]
    forward, backward = {betas[0]: pi}, {betas[0]: pi}
    for beta in betas[1:]:
        slots = [k for k, v in enumerate(beta) if v > 0]
        for memo, s, adjoint in ((forward, slots[0], False), (backward, slots[-1], True)):
            lower = beta[:s] + (beta[s] - 1,) + beta[s + 1:]
            memo[beta] = (apply_adjoints(ws[s], memo[lower])[0] if adjoint
                          else apply(ws[s], memo[lower]))
    tadj = ordered_power_products(spec, FockModel(spec.n, K, 1, spec.phases))
    residual = gap = 0.0
    for row, beta in enumerate(betas):
        residual = max(residual, np.max(np.abs(adj(pi) @ forward[beta] - adj(tadj[row]))))
        if sum(beta) > 0:
            gap = max(gap, np.linalg.norm(backward[beta] - pi @ tadj[row], 2))
    gram_defect = eye(spec.dimH) - adj(pi) @ pi
    lam = max(0.0, np.max(np.linalg.eigvalsh(0.5 * (gram_defect + adj(gram_defect)))))
    return {"moment_match": residual, "moment_allowance": gap + lam}


def cell_moments(model):
    """Pi* V^beta Pi on the truncated model, cell by cell, for the betas of
    ``moment_sums`` in its order (its rows read with the slots reversed):
    V^beta Pi = V_s V^{beta - e_s} Pi, s the first slot of beta, each
    operator applied by its terms (``apply``)."""
    spec, pi, ws = model.spec, model.Pi, model.isometries
    rows = enumerate_indices(spec.n, moment_degree(model))[0]
    betas = [tuple(b) for b in rows[:, ::-1].tolist()]
    forward = {betas[0]: pi}
    for beta in betas[1:]:
        s = next(k for k, v in enumerate(beta) if v > 0)
        forward[beta] = apply(ws[s], forward[beta[:s] + (beta[s] - 1,) + beta[s + 1:]])
    return np.array([adj(pi) @ forward[beta] for beta in betas])


@pytest.mark.parametrize("N", [1, 2, 4])
@pytest.mark.parametrize("style", STYLES)
def test_one_memo_moments_match_two_memos(style, N):
    """The moments at N = infinity (``moment_sums``) against the truncated,
    per-cell ones of the two memos: the first equal T^beta to rounding, and
    the second lie within the two memos' computed allowance of T^beta (the
    spectral defect of Pi*Pi plus the gap of V^beta* Pi and Pi T^beta*), so
    the two differ, beta by beta, by no more than that allowance.  (The name
    is that of the check it replaced, which held one memo to the two.)"""
    for n in (2, 3) if style == "u-commuting" else (2, 3, 5):
        model = assemble_model(style_tuple(style, n, 3, seed=30 + n), N=N)
        got, want = moment_sums(model)
        ref = two_memo_moments(model)
        assert np.max(np.abs(got - want)) <= 1e-14
        assert np.max(np.abs(cell_moments(model) - got)) <= ref["moment_allowance"] + 1e-14
        assert verify_moments(model)["moment_match"] <= ref["moment_match"] + 1e-14


def test_moments_exact_at_N_infinity():
    """A slow scalar triple, whose truncated moments at N = 4 miss T^beta by
    far more than the gate, has exact moments at N = infinity."""
    spec = TupleSpec.from_operators([[[0.8]], [[0.7]], [[0.6]]])
    model = assemble_model(spec, N=4)
    assert two_memo_moments(model)["moment_match"] > 1e-2
    assert verify_moments(model)["moment_match"] <= 1e-14
    assert full_report(model).verdicts["moment_match"]


@pytest.mark.parametrize("n,dimH", [(2, 2), (2, 4), (3, 2), (3, 3), (4, 2), (5, 3)])
def test_moments_equal_cell_moments_where_truncation_is_exact(n, dimH):
    """On a jointly nilpotent tuple T^(alpha) = 0 for |alpha| >= dimH, so at N >=
    dimH + 3 the truncation drops nothing from Pi* V^beta Pi, |beta| <= 3: the
    sums at N = infinity equal the per-cell matrices, beta by beta."""
    model = assemble_model(random_tuple("jointly-nilpotent", n, dimH, seed=n + dimH),
                           N=dimH + 3)
    got, want = moment_sums(model)
    assert got.shape == (len(enumerate_indices(n, 3)[0]), dimH, dimH)
    assert np.max(np.abs(got - cell_moments(model))) <= 1e-14
    assert np.max(np.abs(got - want)) <= 1e-14


def test_cell_moments_approach_infinite_degree_like_the_tails():
    """u-commuting n = 3: the per-cell moments at N = 9, 20 and 40 approach the
    sums at N = infinity like sum(tails), which falls from 0.28 to 7e-5 here:
    their distance over sum(tails) is one constant to 1e-9."""
    spec = random_tuple("u-commuting", 3, 4, seed=1)
    ratios = []
    for N in (9, 20, 40):
        model = assemble_model(spec, N=N)
        got, want = moment_sums(model)
        assert np.max(np.abs(got - want)) <= 1e-14
        ratios.append(np.max(np.abs(cell_moments(model) - got)) / np.sum(model.tails))
    assert np.ptp(ratios) <= 1e-9 * ratios[0] and 0.1 < ratios[0] < 1, ratios


def test_a_phase_error_in_tau1_fails_the_moments():
    """Slot 1's cost in tau1's shift term turned by 1e-8 moves ``moment_match``
    by about 0.2 of the turn, past its gate; the untouched model is exact."""
    model = assemble_model(random_tuple("scaled-commuting", 3, 3, seed=2), N=4)
    assert verify_moments(model)["moment_match"] <= 1e-14
    ops = term_lists(model.isometries)
    slot, block, costs = ops[0][0]
    ops[0][0] = (slot, block, costs * np.exp(1e-8j * (np.arange(len(costs)) == 1)))
    report = full_report(with_isometries(model, ops))
    assert report.residuals["moment_match"] > 1e-9
    assert not report.verdicts["moment_match"]


def test_diagonal_triple_at_the_purity_edge_is_exact():
    """t_2 = diag(0.999, 0.5): a Stein margin of 1 - 0.999^2, and the truncated
    moments at N = 4 miss T^beta by 0.993; at N = infinity they are exact."""
    spec = TupleSpec.from_operators([np.diag([0.0, 0.4]), np.diag([0.999, 0.5]),
                                     np.diag([0.0, 0.1])])
    model = assemble_model(spec, N=4)
    assert two_memo_moments(model)["moment_match"] > 0.99
    report = full_report(model)
    assert report.passed, report.failures()
    assert report.residuals["moment_match"] <= 1e-12
    assert report.config["stein_margin"] == pytest.approx(1 - 0.999 ** 2, rel=1e-12)


def test_pi_isometry_fails_on_a_broken_tails_recursion(monkeypatch):
    """A tail off by 1e-9 in one entry fails ``pi_isometry``: Pi's mass and the
    tails recursion are compared directly, with no second route."""
    spec = random_tuple("scaled-commuting", 3, 4, seed=0)
    assert full_report(assemble_model(spec, N=4)).passed

    def broken(*args):
        tails = builder_tails(*args)
        tails[1] += 1e-9
        return tails

    builder_tails = builder.truncation_tails
    monkeypatch.setattr(builder, "truncation_tails", broken)
    report = full_report(assemble_model(spec, N=4))
    assert report.failures() == ["pi_isometry"]
    assert report.residuals["pi_isometry"] == pytest.approx(1e-9, rel=1e-3)


def test_moments_read_no_cell():
    """scaled-commuting n = 4: the moment check's allocations at N = 30 (5456
    cells) peak within twice those at N = 5 (56 cells)."""
    spec = random_tuple("scaled-commuting", 4, 3, seed=7)
    peaks = []
    for N in (5, 30):
        model = assemble_model(spec, N=N)
        tracemalloc.start()
        try:
            verify_moments(model)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 2 * peaks[0], peaks


@pytest.mark.parametrize("style", ["jointly-nilpotent", "scaled-commuting", "u-commuting"])
def test_models_past_the_dense_stein_size_verify(style):
    """dimH 8 and 16 take the Stein doubling: every check passes and the
    moments hold at N = infinity to rounding."""
    for dimH in (8, 16):
        report = full_report(assemble_model(random_tuple(style, 3, dimH, seed=1), N=4))
        assert report.passed, (dimH, report.failures())
        assert report.residuals["moment_match"] <= 1e-13


def test_moment_check_grows_like_dimH_squared():
    """scaled-commuting n = 3, N = 4: from dimH 8 to 16 the moment check's
    allocations grow about 4-fold (its arrays are h x h per chain; h^2 x h^2
    steps would grow them 16-fold), and at dimH 16 they peak below the 7.5 MB
    of the truncated per-cell memo it replaced; its time grows less than
    16-fold (h^3 products; h^2 x h^2 inverses grew it 28-fold)."""
    peaks, times = [], []
    for dimH in (8, 16):
        model = assemble_model(random_tuple("scaled-commuting", 3, dimH, seed=1), N=4)
        verify_moments(model)
        times.append(min(timeit.repeat(lambda: verify_moments(model), number=1, repeat=5)))
        tracemalloc.start()
        try:
            verify_moments(model)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 6 * peaks[0] and peaks[1] < 7.5e6, peaks
    assert times[1] <= 16 * times[0], times


def test_u_commuting_full_suite():
    for n in (2, 3):
        for seed in range(3):
            spec = random_tuple("u-commuting", n, 4, seed=seed)
            model = assemble_model(spec, N=4)
            report = full_report(model)
            assert report.passed, (n, seed, report.failures())
            assert gated_worst(report) < 1e-10


def cycle_powers(k, n, seed):
    """n seeded powers of the cycle j -> j + 1 of C^k: automorphisms that
    commute, with one another and with the cycle."""
    rng = np.random.default_rng(seed)
    return [[(j + r) % k for j in range(k)] for r in rng.integers(0, k, n)]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("n", [3, 4, 9])
def test_one_pass_covariance_matches_per_component_loop(n, seed):
    """The closed form over the cell counts equals the per-cell reference, one
    component at a time, within 1e-15 relative, for k = 2, 3, 4 and N = 1, 2,
    3, 8: for the automorphism that each operator intertwines (exactly 0 here,
    as the whole equivariance group is) and for a wrong one, the cycle after
    it, which still commutes with the cell relabellings (O(1) residuals)."""
    for k, N in product((2, 3, 4), (1, 2, 3, 8)):
        spec = random_tuple("covariant", n, 2 * k, seed=seed, k=k,
                            automorphisms=cycle_powers(k, n, seed))
        model = assemble_model(spec, N=N)
        autos = np.concatenate([spec.algebra.automorphisms, model.merged.algebra.automorphisms[:1]])
        rolled = np.argsort(np.roll(np.argsort(autos, axis=1), 1, axis=1), axis=1)
        for perms in (autos, rolled):
            got, ref = _covariance(model, perms), covariance(model, perms)
            assert np.all(np.abs(got - ref) <= 1e-15 * np.maximum(1.0, ref)), (k, N, got, ref)
        assert not np.any(_covariance(model, autos))
        assert np.max(covariance(model, rolled)) > 0.1
        assert all(value == 0.0 for value in verify_equivariance(model).values())


def test_equivariance_at_depth_reads_no_cell():
    """At N = 30 (5456 cells) the closed form equals the per-cell reference,
    for the model's automorphisms and the wrong ones of the test above, and
    ``verify_equivariance`` allocates no per-cell table: its peak stays under
    0.5 MB (the per-cell label and indicator tables took 5.1 MB)."""
    spec = random_tuple("covariant", 4, 4, seed=3)
    model = assemble_model(spec, N=30)
    assert model.fock.cell_count == 5456
    tracemalloc.start()
    try:
        eq = verify_equivariance(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5e6, peak
    autos = np.concatenate([spec.algebra.automorphisms, model.merged.algebra.automorphisms[:1]])
    ref = covariance(model, autos)
    assert [eq[f"equiv_v{i}"] for i in range(1, 5)] + [eq["equiv_L1"]] == \
        np.max(ref, axis=1).tolist()
    rolled = np.argsort(np.roll(np.argsort(autos, axis=1), 1, axis=1), axis=1)
    got, ref = _covariance(model, rolled), covariance(model, rolled)
    assert np.all(np.abs(got - ref) <= 1e-15 * np.maximum(1.0, ref)) and np.max(ref) > 0.1


def test_equivariance_trivial_algebra_is_silent():
    model = assemble_model(scalar_triple(), N=2)
    assert verify_equivariance(model) == {}


def test_equivariance_identity_automorphisms():
    spec = random_tuple("covariant", 3, 4, seed=5, k=2, automorphisms=[[0, 1]] * 3)
    model = assemble_model(spec, N=3)
    eq = verify_equivariance(model)
    assert eq and max(eq.values()) < 1e-10
    # with identity automorphisms the dilated isometries commute with rho(M)
    labels = coordinate_labels(model).ravel()
    rho = [np.diag((labels == p).astype(complex)) for p in range(2)]
    for w in list(model.isometries)[:spec.n]:
        for r in rho:
            assert np.linalg.norm(np.asarray(w) @ r - r @ np.asarray(w)) < 1e-10


def test_equivariance_swap_automorphisms():
    # swaps on indices 1 and n, then on index n alone, so that the merged
    # automorphism is a swap too; one more padding coordinate per component
    # pairs aux2 with aux1 through alpha_n
    for automorphisms in ([[1, 0], [0, 1], [1, 0]], [[0, 1], [0, 1], [1, 0]]):
        spec = random_tuple("covariant", 3, 4, seed=6, k=2, automorphisms=automorphisms)
        for pad in (0, 1):
            model = padded_model(spec, 3, pad)
            eq = verify_equivariance(model)
            assert max(eq.values()) < 1e-10
            assert full_report(model).passed


@pytest.mark.parametrize("automorphisms", [[[1, 0], [0, 1], [1, 0]], [[0, 1], [0, 1], [1, 0]],
                                           [[1, 0], [1, 0], [0, 1], [1, 0]]])
def test_coordinate_labels_match_per_cell_composition(automorphisms):
    """Each cell's relabelling g(alpha), composed a_s by a_s: the reference
    labels are g(alpha) of D's, and the counts of ``_relabel_counts`` are the
    number of cells with |alpha| <= K and g(alpha)(q) = p, for every K."""
    spec = random_tuple("covariant", len(automorphisms), 4, seed=6, k=2,
                        automorphisms=automorphisms)
    model = padded_model(spec, 3, 1)
    alg = model.merged.algebra
    ref, counts = [], np.zeros((model.N + 2, alg.k, alg.k))
    for alpha in model.fock.cells.tolist():
        g = np.arange(alg.k)
        for s, count in enumerate(alpha):
            for _ in range(count):
                g = alg.automorphisms[s][g]
        ref.append(g[model.layout.D])
        counts[sum(alpha) + 1:, g, range(alg.k)] += 1
    assert np.array_equal(coordinate_labels(model), np.asarray(ref))
    assert np.array_equal(_relabel_counts(alg.automorphisms, model.N), counts)


def test_mutation_sensitivity():
    spec = random_tuple("scaled-commuting", 3, 4, seed=8)
    model = assemble_model(spec, N=3)

    def flip(u):
        u[0, 0] *= -1.0
        return u

    report = full_report(rebuilt_model(model, flip))
    assert not report.passed
    failing = [report.residuals[k] for k in report.failures()]
    assert max(failing) > 1e-3


def test_report_serializes():
    """The config records the moment degree checked: N - 1, up to MOMENT_MAXDEG = 3,
    and the Stein margin 1 - max_s r(t_s)^2 over the merged slots."""
    for N, degree in ((1, 0), (2, 1), (4, 3), (6, 3)):
        model = assemble_model(scalar_triple(), N=N)
        doc = full_report(model).to_dict()
        assert doc["passed"] is True
        assert set(doc) >= {"residuals", "verdicts", "tail_bounds", "config"}
        margin = 1.0 - max(purity_radii(model.merged, [1, 2]))
        assert doc["config"] == {"tolerances": TOLERANCES, "N": N, "moment_maxdeg": degree,
                                 "stein_margin": margin}
        assert 0 < margin < 1
