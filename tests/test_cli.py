import json

import numpy as np
import pytest

from dilation_forge.builder import BuildConfig, assemble_model
from dilation_forge.cli import main
from dilation_forge.generators import STYLES, parrott_tuple, random_tuple, scalar_triple
from dilation_forge.io import (dump_json, load_tuple, model_from_dict, model_to_dict,
                               tuple_from_dict, tuple_to_dict)
from dilation_forge.tuples import TupleSpec
from dilation_forge.verifier import full_report


@pytest.fixture
def triple_file(tmp_path):
    path = tmp_path / "triple.json"
    dump_json(tuple_to_dict(scalar_triple()), str(path))
    return str(path)


def test_roundtrip_exact():
    spec = random_tuple("u-commuting", 3, 4, seed=9)
    doc = json.loads(json.dumps(tuple_to_dict(spec)))
    back = tuple_from_dict(doc)
    for a, b in zip(spec.blocks, back.blocks):
        assert np.array_equal(a[0], b[0])
    assert np.array_equal(spec.phases, back.phases)


def test_roundtrip_algebra(tmp_path):
    spec = random_tuple("covariant", 3, 4, seed=2, k=2,
                        automorphisms=[[1, 0], [0, 1], [1, 0]])
    path = tmp_path / "cov.json"
    dump_json(tuple_to_dict(spec), str(path))
    back = load_tuple(str(path))
    assert back.algebra.k == 2
    assert back.algebra.automorphisms == spec.algebra.automorphisms
    assert np.array_equal(back.op(1), spec.op(1))


def test_classify_exit_codes(tmp_path, triple_file, capsys):
    assert main(["classify", "-i", triple_file]) == 0
    parrott = tmp_path / "parrott.json"
    dump_json(tuple_to_dict(parrott_tuple()), str(parrott))
    assert main(["classify", "-i", str(parrott)]) == 2
    out = capsys.readouterr().out
    assert "szego" in out  # names the failing PSD condition
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text('{"n": 3, "dimH":')
    assert main(["classify", "-i", str(corrupt)]) == 1
    assert main(["classify", "-i", str(tmp_path / "missing.json")]) == 1


def test_dilate_and_verify(tmp_path, triple_file):
    model_path = tmp_path / "model.json"
    assert main(["dilate", "-i", triple_file, "--degree", "4",
                 "-o", str(model_path)]) == 0
    doc = json.loads(model_path.read_text())
    assert doc["dims"]["cells"] == 15  # C(2+4, 2) Fock cells
    assert main(["verify", "--model", str(model_path)]) == 0
    assert main(["verify", "-i", triple_file, "--degree", "3"]) == 0


def test_dilate_rejections(tmp_path):
    parrott = tmp_path / "parrott.json"
    dump_json(tuple_to_dict(parrott_tuple()), str(parrott))
    assert main(["dilate", "-i", str(parrott)]) == 2
    d2 = TupleSpec(n=2, dimH=2, d=2,
                   blocks=[[np.zeros((2, 2))] * 2, [np.zeros((2, 2))] * 2])
    d2_path = tmp_path / "d2.json"
    dump_json(tuple_to_dict(d2), str(d2_path))
    assert main(["dilate", "-i", str(d2_path)]) == 2


def test_verify_mutated_model_fails(tmp_path, triple_file):
    model_path = tmp_path / "model.json"
    assert main(["dilate", "-i", triple_file, "--degree", "3", "-o", str(model_path)]) == 0
    clean = json.loads(model_path.read_text())
    for key in ("U1", "Pi"):
        doc = json.loads(json.dumps(clean))
        doc[key][0][0] = [0.9, 0.1]
        model_path.write_text(json.dumps(doc))
        assert main(["verify", "--model", str(model_path)]) == 2, key


def _drop(*path):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        del doc[path[-1]]
    return edit


def _set(value, *path):
    def edit(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value(doc[path[-1]]) if callable(value) else value
    return edit


MODEL_FILE_DEFECTS = {
    **{f"missing {key}": _drop(key) for key in (
        "schema_version", "tuple", "N", "dims", "U1", "Un", "Pi", "tails")},
    **{f"missing dims.{key}": _drop("dims", key) for key in ("coeff", "cells", "aux", "ranks")},
    "schema version 1": _set(1, "schema_version"),
    "schema version 2": _set(2, "schema_version"),
    "Pi missing a row": _set(lambda m: m[:-1], "Pi"),
    "U1 missing a column": _set(lambda m: [row[:-1] for row in m], "U1"),
    "Un not square": _set(lambda m: m[:-1], "Un"),
    "tails too short": _set(lambda t: t[:-1], "tails"),
    "tails not numbers": _set(lambda t: ["x"] * len(t), "tails"),
    "tails not finite": _set(lambda t: [float("nan")] + t[1:], "tails"),
    "coefficient dimension": _set(lambda c: c + 1, "dims", "coeff"),
    "dims disagree with the tuple": _set(lambda r: {**r, "hat1": r["hat1"] + 1}, "dims", "ranks"),
    "dims.aux of the wrong length": _set(lambda a: a + [0], "dims", "aux"),
    "dims.aux negative": _set(lambda a: [-1] + a[1:], "dims", "aux"),
    "dims.aux not an integer": _set(lambda a: [0.0] + a[1:], "dims", "aux"),
    "dims.aux huge": _set(lambda a: [10 ** 12] + a[1:], "dims", "aux"),
    "cells disagree with N": _set(lambda n: n + 1, "N"),
    "negative N": _set(-1, "N"),
    "zero N": _set(0, "N"),
    "huge N": _set(10 ** 9, "N"),
    "N not an integer": _set("4", "N"),
}


@pytest.mark.parametrize("defect", sorted(MODEL_FILE_DEFECTS))
def test_verify_malformed_model_file_is_input_error(tmp_path, triple_file, capsys, defect):
    model_path = tmp_path / "model.json"
    assert main(["dilate", "-i", triple_file, "--degree", "2", "-o", str(model_path)]) == 0
    doc = json.loads(model_path.read_text())
    MODEL_FILE_DEFECTS[defect](doc)
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "--model", str(model_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command", [["dilate", "-i", "{tuple}", "-o", "{model}"],
                                     ["verify", "-i", "{tuple}"], ["demo"]],
                         ids=["dilate", "verify", "demo"])
@pytest.mark.parametrize("degree", ["0", "-2"])
def test_degree_below_one_is_input_error(tmp_path, triple_file, capsys, command, degree):
    model_path = tmp_path / "model.json"
    argv = [a.format(tuple=triple_file, model=model_path) for a in command]
    assert main(argv + ["--degree", degree]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: --degree must be at least 1, got {degree}"]
    assert captured.out == ""  # rejected before anything is built or printed
    assert not model_path.exists()


def test_model_file_of_degree_zero_is_input_error(tmp_path, capsys):
    # the library still builds N = 0 (the diagonal part alone); its file is rejected on load
    model_path = tmp_path / "model.json"
    dump_json(model_to_dict(assemble_model(scalar_triple(), N=0)), str(model_path))
    assert main(["verify", "-m", str(model_path)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: $.N: truncation degree must be at least 1, got 0"]


def test_model_file_with_out_of_class_tuple_fails_verification(tmp_path, triple_file, capsys):
    model_path = tmp_path / "model.json"
    assert main(["dilate", "-i", triple_file, "--degree", "2", "-o", str(model_path)]) == 0
    doc = json.loads(model_path.read_text())
    doc["tuple"] = tuple_to_dict(parrott_tuple())
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["verify", "-m", str(model_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command", [["classify", "-i", "{dir}"], ["verify", "-m", "{dir}"],
                                     ["dilate", "-i", "{tuple}", "-o", "{dir}"],
                                     ["classify", "-i", "{binary}"], ["verify", "-m", "{binary}"]],
                         ids=["classify directory", "verify directory", "dilate into directory",
                              "classify non-UTF-8", "verify non-UTF-8"])
def test_unreadable_file_is_input_error(tmp_path, triple_file, capsys, command):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b'\xff\xfe{"n": 3}')
    argv = [a.format(dir=tmp_path, tuple=triple_file, binary=binary) for a in command]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error:")


def test_model_file_holds_no_dense_isometries(tmp_path, triple_file):
    model_path = tmp_path / "model.json"
    assert main(["dilate", "-i", triple_file, "--degree", "3", "-o", str(model_path)]) == 0
    doc = json.loads(model_path.read_text())
    assert doc["schema_version"] == 3
    assert set(doc) == {"schema_version", "kind", "tuple", "N", "dims", "U1", "Un", "Pi",
                        "tails", "equality_residual"}
    assert doc["tuple"]["schema_version"] == 1


@pytest.mark.parametrize("config", [BuildConfig(), BuildConfig(aux_pad=1, completion_seed=7)],
                         ids=["default", "padded"])
@pytest.mark.parametrize("style", STYLES)
def test_model_file_round_trip_is_exact(style, config):
    model = assemble_model(random_tuple(style, 3, 4, seed=3), N=3, config=config)
    back = model_from_dict(json.loads(dump_json(model_to_dict(model), None)))
    for name in ("Pi", "tails"):
        assert np.array_equal(getattr(back, name), getattr(model, name)), name
    assert np.array_equal(back.transfer.U1, model.transfer.U1)
    assert np.array_equal(back.transfer.Un, model.transfer.Un)
    assert len(back.isometries) == len(model.isometries)
    for w_back, w in zip(back.isometries, model.isometries):
        assert np.array_equal(np.asarray(w_back), np.asarray(w))
    assert full_report(back).residuals == full_report(model).residuals


def test_noncommuting_tuple_is_rejected(tmp_path, capsys):
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    spec = TupleSpec.from_operators([0.2 * e12, 0.2 * e12.T, 0.2 * np.eye(2)])
    path = tmp_path / "noncommuting.json"
    dump_json(tuple_to_dict(spec), str(path))
    assert main(["classify", "-i", str(path)]) == 2
    assert "commutation" in capsys.readouterr().out
    assert main(["dilate", "-i", str(path), "-o", str(tmp_path / "model.json")]) == 2
    assert not (tmp_path / "model.json").exists()


def test_random_styles_classify_and_are_deterministic(tmp_path):
    for style in ("jointly-nilpotent", "scaled-commuting", "u-commuting", "covariant"):
        out1 = tmp_path / f"{style}-1.json"
        out2 = tmp_path / f"{style}-2.json"
        args = ["random", "--style", style, "--n", "3", "--dimH", "4", "--seed", "7"]
        assert main(args + ["-o", str(out1)]) == 0
        assert main(args + ["-o", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert main(["classify", "-i", str(out1)]) == 0


def test_demo_prints_identities(capsys):
    assert main(["demo", "--degree", "3"]) == 0
    out = capsys.readouterr().out
    for name in ("lemma_U1", "eq_ABn", "eq_Cn", "pi_isometry", "factor_tau12",
                 "dilation1_tau1", "dilation2_taun", "moment_match"):
        assert name in out
    assert "overall: pass" in out


def test_verify_requires_source(capsys):
    assert main(["verify"]) == 1


def test_json_format_output(triple_file, capsys):
    assert main(["classify", "-i", triple_file, "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "class_report" and doc["in_T1n"] is True


def _covariant_doc():
    spec = random_tuple("covariant", 3, 4, seed=2, k=2, automorphisms=[[1, 0], [0, 1], [1, 0]])
    return json.loads(json.dumps(tuple_to_dict(spec)))


TUPLE_FILE_DEFECTS = {
    "block_of label a string": _set(lambda b: ["a"] + b[1:], "algebra", "block_of"),
    "block_of label a float": _set(lambda b: [0.5] + b[1:], "algebra", "block_of"),
    "block_of label a bool": _set(lambda b: [False] + b[1:], "algebra", "block_of"),
    "block_of not a list": _set(3, "algebra", "block_of"),
    "automorphism not a list": _set(lambda a: [0] + a[1:], "algebra", "automorphisms"),
    "automorphism entry a float": _set(lambda a: [[1.0, 0]] + a[1:], "algebra", "automorphisms"),
    "automorphism too long": _set(lambda a: [[1, 0, 2]] + a[1:], "algebra", "automorphisms"),
    "k a bool": _set(True, "algebra", "k"),
    "d a bool": _set(True, "d"),
    "d a float": _set(1.0, "d"),
    "phases a vector": _set([[1.0, 0.0]] * 3, "phases"),
    "matrix a vector": _set(lambda m: [[[[0.0, 0.0]] * 4]] + m[1:], "matrices"),
    "matrix entry not finite": _set(lambda m: [[[[[float("nan"), 0.0]] * 4] * 4]] + m[1:],
                                    "matrices"),
}


@pytest.mark.parametrize("defect", sorted(TUPLE_FILE_DEFECTS))
def test_classify_malformed_tuple_file_is_input_error(tmp_path, capsys, defect):
    doc = _covariant_doc()
    TUPLE_FILE_DEFECTS[defect](doc)
    path = tmp_path / "tuple.json"
    path.write_text(json.dumps(doc))
    assert main(["classify", "-i", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_classify_text_names_indeterminate_purity(tmp_path, triple_file, capsys):
    assert main(["classify", "-i", triple_file]) == 0
    assert "purity indeterminate (|radius - 1| <= 1e-08): none" in capsys.readouterr().out
    edge = tmp_path / "edge.json"
    dump_json(tuple_to_dict(TupleSpec.from_operators([[[1.0]], [[0.5]]])), str(edge))
    assert main(["classify", "-i", str(edge)]) == 2
    assert "purity indeterminate (|radius - 1| <= 1e-08): [1]" in capsys.readouterr().out
