"""Acceptance suite: one test per gated criterion, printed pass/fail per line.

The corpus is seeded and deterministic; thresholds are pinned here and never
loosened at runtime.  Run with `pytest -s tests/test_acceptance.py` to see the
per-criterion lines.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from dilation_forge.builder import (assemble_model, build_defects, build_transfer, build_V0,
                                    build_U, defect_frames, effective_algebra, measure_transfer,
                                    solve_aux, truncation_tails)
from dilation_forge.generators import parrott_tuple, random_tuple, scalar_triple, zero_tuple
from dilation_forge.tuples import TupleSpec, classify
from dilation_forge.verifier import full_report, verify_equivariance, verify_moments
from fock_reference import coordinate_labels

TOL_LINEAR = 1e-10
TOL_PRODUCT = 1e-9
TOL_PI = 1e-12
TOL_MOMENT = 1e-10
TOL_UNITARY = 1e-12


def corpus(count=50, n=3, start_seed=100):
    """Seeded members of both generator styles, dimH <= 5."""
    members = []
    for i in range(count):
        style = "jointly-nilpotent" if i % 2 == 0 else "scaled-commuting"
        dim = 2 + i % 4  # 2..5
        members.append(random_tuple(style, n, dim, start_seed + i))
    return members


def report_line(num, text):
    print(f"PASS criterion {num}: {text}")


def test_criterion_1_class_gate():
    t0 = time.time()
    rep = classify(parrott_tuple())
    assert not rep.in_T1n
    fails = rep.failing_conditions()
    assert any("szego_hat1" in f for f in fails) or any("szego_hatn" in f for f in fails)
    assert classify(zero_tuple(3, 2)).in_T1n
    assert classify(scalar_triple(0.5, 0.4, 0.3)).in_T1n
    elapsed = time.time() - t0
    assert elapsed < 1.0
    report_line(1, f"Parrott rejected ({fails[0]}), zero tuple and scalar triple "
                   f"accepted in {elapsed:.3f}s")


def test_criterion_2_construction_identities():
    t0 = time.time()
    worst = {"equality": 0.0, "unitary": 0.0, "lemma_U1": 0.0, "eq_ABn": 0.0, "eq_Cn": 0.0}
    for spec in corpus(50):
        alg = effective_algebra(spec)
        defects, merged, eq = build_defects(spec, alg)
        coupling = build_V0(spec, defects, alg)
        layout, u = build_U(spec, defects, coupling, solve_aux(spec, coupling))
        transfer = build_transfer(spec, coupling, layout, u, eq)
        worst["equality"] = max(worst["equality"], eq)
        worst["unitary"] = max(worst["unitary"],
                               float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]))))
        for key in ("lemma_U1", "eq_ABn", "eq_Cn"):
            worst[key] = max(worst[key], transfer.residuals[key])
    elapsed = time.time() - t0
    assert worst["equality"] <= TOL_LINEAR
    assert worst["unitary"] <= TOL_UNITARY
    assert worst["lemma_U1"] <= TOL_LINEAR
    assert worst["eq_ABn"] <= TOL_LINEAR
    assert worst["eq_Cn"] <= TOL_LINEAR
    assert elapsed < 120.0
    report_line(2, "50 members: equality<=%.1e unitary<=%.1e U1/ABn/Cn<=%.1e in %.1fs"
                % (worst["equality"], worst["unitary"],
                   max(worst["lemma_U1"], worst["eq_ABn"], worst["eq_Cn"]), elapsed))


def test_criterion_3_dilation_suite():
    t0 = time.time()
    worst = {}
    for spec in corpus(50):
        model = assemble_model(spec, N=4)
        report = full_report(model)
        assert report.verdicts["pi_isometry"] and report.residuals["pi_isometry"] <= TOL_PI
        for key, value in report.residuals.items():
            worst[key] = max(worst.get(key, 0.0), value)
            if key.startswith(("dilation", "isometry", "equiv", "commute")):
                assert value <= TOL_LINEAR, (key, value)
            elif key.startswith("factor"):
                assert value <= TOL_PRODUCT, (key, value)
            elif key == "moment_match":
                assert value <= TOL_MOMENT, (key, value)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report_line(3, "50 members at N=4: worst gated residual %.1e in %.1fs"
                % (max(worst.values()), elapsed))


def test_criterion_4_moment_oracle():
    # the moment identity Pi* V^beta Pi = T^beta holds at N = infinity, with no
    # allowance, on the nilpotent members as on every other
    members = [random_tuple("jointly-nilpotent", 3, 2 + i % 4, 400 + i) for i in range(20)]
    worst = 0.0
    for spec in members:
        model = assemble_model(spec, N=4)
        mom = verify_moments(model)
        assert list(mom) == ["moment_match"]
        worst = max(worst, mom["moment_match"])
    assert worst <= TOL_LINEAR
    report_line(4, f"moments |alpha|<=3 on 20 members: worst {worst:.1e}")


def test_criterion_5_pairs_and_single_contractions():
    passed = 0
    for seed in range(20):
        if seed % 4 == 0:
            # n = 1 via the n = 2 embedding with t2 = 0
            rng = np.random.default_rng(500 + seed)
            t = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
            t *= 0.8 / np.linalg.norm(t, 2)
            spec = TupleSpec.from_operators([t, np.zeros((3, 3))])
        else:
            spec = random_tuple("scaled-commuting", 2, 2 + seed % 4, 500 + seed)
        model = assemble_model(spec, N=4)
        report = full_report(model)
        assert report.passed, (seed, report.failures())
        passed += 1
    report_line(5, f"{passed}/20 pure pairs (incl. n=1 embeddings) build and verify")


def test_criterion_6_u_commuting():
    worst = 0.0
    count = 0
    for seed in range(5):
        for n in (2, 3):
            spec = random_tuple("u-commuting", n, 4, 600 + seed)
            model = assemble_model(spec, N=4)
            report = full_report(model)
            assert report.passed, (n, seed, report.failures())
            phased = max(v for k, v in report.residuals.items() if k.startswith("commute"))
            worst = max(worst, phased)
            count += 1
    assert worst <= TOL_LINEAR
    report_line(6, f"{count} u-commuting members: phased commutation worst {worst:.1e}")


def test_criterion_7_equivariant():
    swap = [[1, 0], [0, 1], [1, 0]]
    spec = random_tuple("covariant", 3, 4, 700, k=2, automorphisms=swap)
    model = assemble_model(spec, N=3)
    eq = verify_equivariance(model)
    worst_swap = max(eq.values())
    assert worst_swap <= TOL_LINEAR

    spec_id = random_tuple("covariant", 3, 4, 701, k=2, automorphisms=[[0, 1]] * 3)
    model_id = assemble_model(spec_id, N=3)
    labels = coordinate_labels(model_id).ravel()
    rho = [np.diag((labels == p).astype(complex)) for p in range(2)]
    worst_comm = max(float(np.linalg.norm(np.asarray(w) @ r - r @ np.asarray(w)))
                     for w in list(model_id.isometries)[:spec_id.n] for r in rho)
    assert worst_comm <= TOL_LINEAR
    report_line(7, f"swap covariance {worst_swap:.1e}; commutant case {worst_comm:.1e}")


def test_criterion_8_mutation_sensitivity():
    spec = random_tuple("scaled-commuting", 3, 4, 800)
    model = assemble_model(spec, N=3)
    u = model.transfer.U.copy()
    u[1, 1] *= -1.0
    transfer = measure_transfer(spec, model.layout, u, defect_frames(spec, model.defects),
                                model.transfer.residuals["defect_equality"])
    mutated = replace(model, transfer=transfer)
    report = full_report(mutated)
    assert not report.passed
    worst = max(report.residuals[k] for k in report.failures())
    assert worst > 1e-3
    report_line(8, f"single sign flip in U drives a gated residual to {worst:.1e}")


def test_criterion_9_tail_monotonicity():
    checked = 0
    for spec in corpus(50):
        defects, merged, _ = build_defects(spec, effective_algebra(spec))
        root = defects["hat1n"].root
        t3, t4, t5 = (truncation_tails(merged, root, N) for N in (3, 4, 5))
        assert np.all(t4 <= t3 + 1e-13)
        assert np.all(t5 <= t4 + 1e-13)
        checked += 1
    report_line(9, f"per-h tails monotone over N=3,4,5 on {checked} members")
