import numpy as np

from dilation_forge.builder import (BuildConfig, DilationModel, assemble_model, build_Pi,
                                    build_transfer, dilated_isometries)
from dilation_forge.generators import random_tuple, scalar_triple, zero_tuple
from dilation_forge.tuples import TupleSpec
from dilation_forge.verifier import (full_report, verify_equivariance, verify_factorization,
                                     verify_intertwining, verify_isometric_representation,
                                     verify_moments, verify_pi)


def gated_worst(report):
    return max((v for k, v in report.residuals.items()
                if k in report.verdicts and k != "moment_match"), default=0.0)


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
    mom = verify_moments(model, 3)
    assert mom["moment_match"] < 1e-10
    assert mom["moment_allowance"] < 1e-10


def test_moments_allowance_covers_truncation():
    spec = TupleSpec.from_operators([[[0.8]], [[0.7]], [[0.6]]])
    model = assemble_model(spec, N=4)
    mom = verify_moments(model, 3)
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


def test_mutation_sensitivity():
    spec = random_tuple("scaled-commuting", 3, 4, seed=8)
    model = assemble_model(spec, N=3)
    coupling = model.coupling
    coupling.U = coupling.U.copy()
    coupling.U[0, 0] *= -1.0
    cfg = BuildConfig(check_identities=False)
    transfer = build_transfer(spec, model.defects, coupling, cfg)
    pi, tails = build_Pi(model.merged, model.defects, coupling, model.fock)
    mutated = DilationModel(
        spec=spec, merged=model.merged, fock=model.fock, N=model.N, defects=model.defects,
        layout=model.layout, coupling=coupling, transfer=transfer, Pi=pi,
        isometries=dilated_isometries(spec, transfer, model.layout, model.fock),
        tails=tails)
    report = full_report(mutated)
    assert not report.passed
    failing = [report.residuals[k] for k in report.failures()]
    assert max(failing) > 1e-3


def test_report_serializes():
    model = assemble_model(scalar_triple(), N=2)
    doc = full_report(model).to_dict()
    assert doc["passed"] is True
    assert set(doc) >= {"residuals", "verdicts", "tail_bounds", "config"}
