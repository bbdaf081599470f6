from copy import copy
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from dilation_forge.builder import (BuildConfig, DilationModel, assemble_model, build_Pi,
                                    build_transfer, dilated_isometries)
from dilation_forge.fock import (TermTable, creation_matrix, enumerate_indices,
                                 interior_cells, interior_projector)
from dilation_forge.generators import STYLES, random_tuple, scalar_triple, zero_tuple
from dilation_forge.linalg import adj, eye, rel_residual
from dilation_forge.tuples import TupleSpec, compose_perm, ordered_power_products
from dilation_forge.verifier import (DEFAULT_TOLERANCES, full_report, verify_equivariance,
                                     verify_factorization, verify_intertwining,
                                     verify_isometric_representation, verify_moments, verify_pi)
from fock_reference import product, terms_norm


def gated_worst(report):
    return max((v for k, v in report.residuals.items()
                if k in report.verdicts and k != "moment_match"), default=0.0)


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
    out = {}
    for i, w in enumerate(model.isometries, start=1):
        out[f"isometry_v{i}"] = rel_residual(w.apply_adj(w.apply(e1))[inner] - e1[inner], e1)
    for (i, vi), (j, vj) in combinations(enumerate(model.isometries, start=1), 2):
        ji = vj.apply(vi.apply(e2))
        out[f"commute_{i}_{j}"] = rel_residual(vi.apply(vj.apply(e2)) - spec.u(i, j) * ji, ji)
    l1 = creation_matrix(fock, 0).apply(e2)
    v1, vn = model.isometries[0], model.isometries[-1]
    out["factor_tau12"] = rel_residual(v1.apply(vn.apply(e2)) - l1, l1)
    out["factor_tau21"] = rel_residual(vn.apply(v1.apply(e2)) - spec.u(spec.n, 1) * l1, l1)
    return out


def rebuilt_model(model, U):
    """The model rebuilt, without the construction's self-checks, from coupling matrix U."""
    spec, coupling = model.spec, model.coupling
    coupling.U = U
    transfer = build_transfer(spec, coupling, BuildConfig(check_identities=False))
    pi, tails = build_Pi(model.merged, model.defects, coupling, model.fock)
    return DilationModel(
        spec=spec, merged=model.merged, fock=model.fock, N=model.N, defects=model.defects,
        layout=model.layout, coupling=coupling, transfer=transfer, Pi=pi,
        isometries=dilated_isometries(spec, transfer, model.layout, model.fock),
        tails=tails)


def assert_matches_reference(model):
    got = {**verify_isometric_representation(model), **verify_factorization(model)}
    ref = reference_products(model)
    assert list(got) == list(ref)
    for name, value in ref.items():
        assert abs(got[name] - value) <= 1e-14 * max(1.0, value), (name, got[name], value)


@pytest.mark.parametrize("N", [1, 2, 5])
@pytest.mark.parametrize("style", STYLES)
def test_composed_residuals_match_identity_columns(style, N):
    model = assemble_model(style_tuple(style, 3, 3, seed=21), N=N)
    assert_matches_reference(model)
    # a non-unitary coupling makes the residuals O(1), so the masks show in the values
    broken = rebuilt_model(model, model.coupling.U + 0.1)
    assert_matches_reference(broken)
    assert max(verify_isometric_representation(broken).values()) > 1e-3


@pytest.mark.parametrize("N", [1, 2, 5])
def test_composed_residuals_match_identity_columns_swap_covariant(N):
    spec = random_tuple("covariant", 3, 4, seed=6, k=2,
                        automorphisms=[[1, 0], [0, 1], [1, 0]])
    assert_matches_reference(assemble_model(spec, N=N, config=BuildConfig(aux_pad=1)))


def per_pair_isometric_representation(model):
    """The isometry and commutation residuals one pair at a time, from the
    one-pair ``product`` and one-group ``terms_norm`` (the verifier's former loop)."""
    spec, fock = model.spec, model.fock
    inner = interior_cells(fock, 1)
    src = interior_cells(fock, min(2, fock.N))
    unit = max(1.0, np.sqrt(np.count_nonzero(inner) * fock.coeff_dim))
    out = {}
    for i, w in enumerate(model.isometries, start=1):
        wtw = product(w, w, adjoint=True)
        out[f"isometry_v{i}"] = terms_norm(fock, [(1.0, wtw)], inner, inner,
                                           minus_identity=True) / unit
    for (i, vi), (j, vj) in combinations(enumerate(model.isometries, start=1), 2):
        ji = product(vj, vi)
        ref = max(1.0, terms_norm(fock, [(1.0, ji)], src))
        out[f"commute_{i}_{j}"] = terms_norm(fock, [(1.0, product(vi, vj)),
                                                    (-spec.u(i, j), ji)], src) / ref
    return out


def per_pair_factorization(model):
    """The transfer factorization residuals from one ``product`` per order and
    one ``terms_norm`` per residual (the verifier's former code)."""
    fock = model.fock
    src = interior_cells(fock, min(2, fock.N))
    l1 = model.L1.terms
    ref = max(1.0, terms_norm(fock, [(1.0, l1)], src))
    v1, vn = model.isometries[0], model.isometries[-1]
    flip = model.spec.u(model.spec.n, 1)
    return {"factor_tau12": terms_norm(fock, [(1.0, product(v1, vn)), (-1.0, l1)], src) / ref,
            "factor_tau21": terms_norm(fock, [(1.0, product(vn, v1)), (-flip, l1)], src) / ref}


def assert_matches_per_pair(model):
    got, ref = verify_isometric_representation(model), per_pair_isometric_representation(model)
    assert list(got) == list(ref)
    for name, value in ref.items():
        assert abs(got[name] - value) <= 1e-14, (name, got[name], value)
    # the factorization pass sums every block in the per-pair order: equal bit for bit
    assert verify_factorization(model) == per_pair_factorization(model)


WIDTHS = {"u-commuting": (2, 3)}  # the u-commuting style builds n = 2 and 3 only


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("style", STYLES)
def test_one_pass_matches_per_pair_loop(style, N):
    for n in WIDTHS.get(style, range(2, 11)):
        model = assemble_model(style_tuple(style, n, 2, seed=30 + n), N=N)
        assert_matches_per_pair(model)
        broken = rebuilt_model(model, model.coupling.U + 0.1)
        assert_matches_per_pair(broken)


def per_operator_intertwining(model):
    """The intertwining residuals one operator at a time, by ``apply_adj`` and
    ``rel_residual`` (the verifier's former loop)."""
    spec, pi = model.spec, model.Pi
    inner = interior_projector(model.fock, 1)
    ts = [spec.op(i) for i in range(1, spec.n + 1)] + [model.merged.op(1)]
    out = []
    for w, t in zip(model.isometries + [model.L1], ts):
        rhs = (pi @ adj(t))[inner]
        out.append(rel_residual(w.apply_adj(pi)[inner] - rhs, rhs))
    return out


@pytest.mark.parametrize("N", [1, 2, 3, 4])
@pytest.mark.parametrize("style", STYLES)
def test_stacked_intertwining_matches_per_operator_loop(style, N):
    """The stacked pass forms the sums ``apply_adj`` forms: equal bit for bit."""
    for n in WIDTHS.get(style, range(2, 11)):
        model = assemble_model(style_tuple(style, n, 2, seed=30 + n), N=N)
        got = verify_intertwining(model)
        assert list(got) == (["dilation1_tau1"] + [f"dilation_L{i}" for i in range(2, n)]
                             + ["dilation2_taun", "dilationV_L1"])
        assert list(got.values()) == per_operator_intertwining(model)
        broken = rebuilt_model(model, model.coupling.U + 0.1)
        got = verify_intertwining(broken)
        assert list(got.values()) == per_operator_intertwining(broken)
        assert max(got["dilation1_tau1"], got["dilation2_taun"]) > 1e-3


def test_replaced_isometries_get_a_fresh_table():
    """``DilationModel.table`` is built once per model object, and a model made
    by ``dataclasses.replace`` builds its own from its own isometries."""
    model = assemble_model(random_tuple("jointly-nilpotent", 4, 2, seed=4), N=2)
    table = model.table
    assert model.table is table
    assert table.count.tolist() == [sum(len(dst) for dst, _, _ in w.terms)
                                    for w in model.isometries + [model.L1]]
    swapped = replace(model, isometries=model.isometries[::-1])
    assert swapped.table is not table
    fresh = TermTable(swapped.isometries + [swapped.L1])
    for name in ("op", "term", "dst", "src", "blocks", "where"):
        assert np.array_equal(getattr(swapped.table, name), getattr(fresh, name)), name
    assert not np.array_equal(swapped.table.blocks, table.blocks)


def test_one_pass_keeps_each_pair_in_its_residual():
    """A middle operator whose shift is scaled on one cell fails exactly the
    commutations that involve its index, and moves only its own isometry entry."""
    model = assemble_model(random_tuple("jointly-nilpotent", 5, 2, seed=4), N=3)
    before = verify_isometric_representation(model)
    k = 3  # V_3 is the creation operator of merged slot k - 1 (0-based)
    bent = creation_matrix(model.fock, k - 1)
    dst, src, blocks = bent.terms[0]
    blocks[src == 0] *= 1.25 * np.exp(0.7j)
    bent_model = replace(model, isometries=model.isometries[:k - 1] + [bent] + model.isometries[k:])
    after = verify_isometric_representation(bent_model)
    assert list(after) == list(before)
    tol = DEFAULT_TOLERANCES["linear"]
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


def test_factorization_sees_a_bent_transfer_shift():
    """tau_n's shift block scaled on one cell breaks both transfer
    factorizations and leaves V_1's isometry entry as it was."""
    model = assemble_model(random_tuple("jointly-nilpotent", 5, 2, seed=4), N=3)
    before = {**verify_isometric_representation(model), **verify_factorization(model)}
    bent = copy(model.isometries[-1])
    dst, src, blocks = bent.terms[0]  # the shift term, src -> src + e_1
    blocks = blocks.copy()
    blocks[src == 0] *= 1.25 * np.exp(0.7j)
    bent.terms = [(dst, src, blocks)] + bent.terms[1:]
    bent_model = replace(model, isometries=model.isometries[:-1] + [bent])
    after = {**verify_isometric_representation(bent_model), **verify_factorization(bent_model)}
    assert list(after) == list(before)
    assert max(before["factor_tau12"], before["factor_tau21"]) <= DEFAULT_TOLERANCES["product"]
    assert after["factor_tau12"] > 1e-3 and after["factor_tau21"] > 1e-3
    assert after["isometry_v1"] == before["isometry_v1"]
    assert_matches_per_pair(bent_model)


def test_zero_tuple_all_pass_exactly():
    model = assemble_model(zero_tuple(3, 2), N=3)
    report = full_report(model)
    assert report.passed
    assert gated_worst(report) < 1e-14
    pi = verify_pi(model)
    assert pi["pi_isometry"] == 0.0 and pi["pi_tail_match"] == 0.0


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
    assert pi["pi_isometry"] < 1e-13 and pi["pi_tail_match"] < 1e-13


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
    mom = verify_moments(model)
    assert mom["moment_match"] < 1e-10
    assert mom["moment_allowance"] < 1e-10


def two_memo_moments(model, maxdeg=3):
    """The moment oracle from a forward memo V^beta Pi and an adjoint memo (V^beta)* Pi."""
    spec, pi, ws = model.spec, model.Pi, model.isometries
    betas = [tuple(b) for b in enumerate_indices(spec.n, min(maxdeg, model.N - 1)).tolist()]
    forward, backward = {betas[0]: pi}, {betas[0]: pi}
    for beta in betas[1:]:
        slots = [k for k, v in enumerate(beta) if v > 0]
        for memo, s, apply in ((forward, slots[0], "apply"), (backward, slots[-1], "apply_adj")):
            lower = beta[:s] + (beta[s] - 1,) + beta[s + 1:]
            memo[beta] = getattr(ws[s], apply)(memo[lower])
    tadj = ordered_power_products(spec, betas)
    residual = gap = 0.0
    for row, beta in enumerate(betas):
        residual = max(residual, np.max(np.abs(adj(pi) @ forward[beta] - adj(tadj[row]))))
        if sum(beta) > 0:
            gap = max(gap, np.linalg.norm(backward[beta] - pi @ tadj[row], 2))
    gram_defect = eye(spec.dimH) - adj(pi) @ pi
    lam = max(0.0, np.max(np.linalg.eigvalsh(0.5 * (gram_defect + adj(gram_defect)))))
    return {"moment_match": residual, "moment_allowance": gap + lam}


@pytest.mark.parametrize("N", [1, 2, 4])
@pytest.mark.parametrize("style", STYLES)
def test_one_memo_moments_match_two_memos(style, N):
    for n in (2, 3) if style == "u-commuting" else (2, 3, 5):
        model = assemble_model(style_tuple(style, n, 3, seed=30 + n), N=N)
        got, ref = verify_moments(model), two_memo_moments(model)
        assert list(got) == list(ref)
        for name, value in ref.items():
            assert abs(got[name] - value) <= 1e-14, (name, got[name], value)


def test_moments_allowance_covers_truncation():
    spec = TupleSpec.from_operators([[[0.8]], [[0.7]], [[0.6]]])
    model = assemble_model(spec, N=4)
    mom = verify_moments(model)
    assert mom["moment_match"] <= 1e-10 + mom["moment_allowance"]


def test_u_commuting_full_suite():
    for n in (2, 3):
        for seed in range(3):
            spec = random_tuple("u-commuting", n, 4, seed=seed)
            model = assemble_model(spec, N=4)
            report = full_report(model)
            assert report.passed, (n, seed, report.failures())
            assert gated_worst(report) < 1e-10


def test_equivariance_trivial_algebra_is_silent():
    model = assemble_model(scalar_triple(), N=2)
    assert verify_equivariance(model) == {}


def test_equivariance_identity_automorphisms():
    spec = random_tuple("covariant", 3, 4, seed=5, k=2, automorphisms=[[0, 1]] * 3)
    model = assemble_model(spec, N=3)
    eq = verify_equivariance(model)
    assert eq and max(eq.values()) < 1e-10
    # with identity automorphisms the dilated isometries commute with rho(M)
    labels = model.coordinate_labels().ravel()
    rho = [np.diag((labels == p).astype(complex)) for p in range(2)]
    for w in model.isometries:
        for r in rho:
            assert np.linalg.norm(np.asarray(w) @ r - r @ np.asarray(w)) < 1e-10


def test_equivariance_swap_automorphisms():
    # swaps on indices 1 and n, then on index n alone, so that the merged
    # automorphism is a swap too; aux_pad = 1 pairs aux2 with aux1 through alpha_n
    for automorphisms in ([[1, 0], [0, 1], [1, 0]], [[0, 1], [0, 1], [1, 0]]):
        spec = random_tuple("covariant", 3, 4, seed=6, k=2, automorphisms=automorphisms)
        for pad in (0, 1):
            model = assemble_model(spec, N=3, config=BuildConfig(aux_pad=pad))
            eq = verify_equivariance(model)
            assert max(eq.values()) < 1e-10
            assert full_report(model).passed


@pytest.mark.parametrize("automorphisms", [[[1, 0], [0, 1], [1, 0]], [[0, 1], [0, 1], [1, 0]],
                                           [[1, 0], [1, 0], [0, 1], [1, 0]]])
def test_coordinate_labels_match_per_cell_composition(automorphisms):
    spec = random_tuple("covariant", len(automorphisms), 4, seed=6, k=2,
                        automorphisms=automorphisms)
    model = assemble_model(spec, N=3, config=BuildConfig(aux_pad=1))
    alg = model.merged.algebra
    ref = []
    for alpha in model.fock.cells.tolist():
        g = list(range(alg.k))
        for s, count in enumerate(alpha):
            for _ in range(count):
                g = compose_perm(alg.automorphisms[s], g)
        ref.append(np.asarray(g)[model.layout.D])
    assert np.array_equal(model.coordinate_labels(), np.asarray(ref))


def test_mutation_sensitivity():
    spec = random_tuple("scaled-commuting", 3, 4, seed=8)
    model = assemble_model(spec, N=3)
    U = model.coupling.U.copy()
    U[0, 0] *= -1.0
    report = full_report(rebuilt_model(model, U))
    assert not report.passed
    failing = [report.residuals[k] for k in report.failures()]
    assert max(failing) > 1e-3


def test_report_serializes():
    model = assemble_model(scalar_triple(), N=2)
    doc = full_report(model).to_dict()
    assert doc["passed"] is True
    assert set(doc) >= {"residuals", "verdicts", "tail_bounds", "config"}
